"""Zero-reference gate: fail when a function in ``src/repro`` is never named.

Collects every function and method defined under ``src/repro`` and
counts the identifiers across the Python files of ``src/``, ``tests/``,
``benchmarks/``, ``perfbench/``, ``scripts/`` and ``examples/``: name
tokens in code plus identifiers inside string literals (f-strings and
``getattr`` names are strings to the tokenizer), but not comments.  A
name whose only occurrences are its own definitions has no caller, no
test and no override target, so it is dead.  Dunder methods are exempt:
the interpreter calls them.

Usage (from the repository root)::

    python scripts/check_dead_code.py

Exits 1 and lists ``path:line name`` for each dead function.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINED_IN = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "benchmarks", "perfbench", "scripts", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def python_files(directory: Path):
    return sorted(p for p in directory.rglob("*.py")
                  if "__pycache__" not in p.parts)


def definitions(path: Path):
    """``(name, line)`` of every function and method defined in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno


def identifiers(path: Path) -> Counter:
    """Identifier occurrences in ``path``'s code and string literals."""
    found = Counter()
    source = path.read_text()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            found[tok.string] += 1
        elif tok.type == tokenize.STRING:
            found.update(IDENTIFIER.findall(tok.string))
    return found


def dead_functions():
    defined = []  # (name, path, line)
    for path in python_files(DEFINED_IN):
        defined.extend((name, path, line) for name, line in definitions(path))
    occurrences = Counter()
    for directory in SEARCHED:
        for path in python_files(ROOT / directory):
            occurrences.update(identifiers(path))
    definition_count = Counter(name for name, _, _ in defined)
    return [(path, line, name) for name, path, line in defined
            if not (name.startswith("__") and name.endswith("__"))
            and occurrences[name] <= definition_count[name]]


def main() -> int:
    dead = dead_functions()
    for path, line, name in sorted(dead):
        print(f"{path.relative_to(ROOT)}:{line} {name}")
    if dead:
        print(f"{len(dead)} function(s) defined in src/repro are never "
              f"referenced by name", file=sys.stderr)
        return 1
    print("dead-code check ok: every src/repro function is referenced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
