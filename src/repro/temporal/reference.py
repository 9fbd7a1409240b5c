"""Brute-force reference evaluator for SPARQL-T correctness tests.

Dumps the persistent store's full recorded history — every out-edge
with its insertion snapshot, decoded back to strings — and evaluates
temporal queries over it by exhaustive conjunctive join.  Deliberately
simple (no planner, no indexes, no charges): every differential test
compares the engine's answers against this oracle.

Both sides read the *same* store, so compaction's SN coarsening (the GC
frontier relabelling old insertion SNs to the base snapshot) affects
them identically; tests needing exact deep history run with
scalarization disabled.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.rdf.ids import DIR_OUT, split_key
from repro.sparql.ast import OPEN_END, Query, is_variable
from repro.sparql.evaluate import term_number
from repro.temporal.kernels import interval_op_holds

#: One recorded fact: ``(subject, predicate, object, insertion_sn)``,
#: all names decoded.
Fact = Tuple[str, str, str, int]


def dump_history(store) -> List[Fact]:
    """Every out-edge of the persistent store with its insertion SN."""
    strings = store.strings
    facts: List[Fact] = []
    for shard in store.shards:
        for key in shard.iter_keys():
            vid, eid, d = split_key(key)
            if d != DIR_OUT:
                continue
            vids, sns = shard.lookup_versions(key)
            subject = strings.entity_name(vid)
            predicate = strings.predicate_name(eid)
            for object_vid, sn in zip(vids, sns):
                facts.append((subject, predicate,
                              strings.entity_name(object_vid), sn))
    return facts


def _match(pattern, fact: Fact, row: Dict[str, object]
           ) -> Optional[Dict[str, object]]:
    """Extend ``row`` with one pattern/fact match, or None."""
    subject, predicate, obj, sn = fact
    if pattern.predicate != predicate:
        return None
    new = dict(row)
    for term, value in ((pattern.subject, subject), (pattern.object, obj)):
        if is_variable(term):
            if term in new:
                if new[term] != value:
                    return None
            else:
                new[term] = value
        elif term != value:
            return None
    for term, value in ((pattern.ts, sn), (pattern.te, OPEN_END)):
        if term is None:
            continue
        if term in new:
            if new[term] != value:
                return None
        else:
            new[term] = value
    return new


def _endpoint(term: str, row: Dict[str, object]) -> int:
    return row[term] if is_variable(term) else int(term)  # type: ignore


def _filter_ok(expr, row: Dict[str, object]) -> bool:
    """Ordinary FILTER semantics over name/int bindings."""
    def operand(term: str) -> object:
        return row[term] if is_variable(term) else term

    left, right = operand(expr.left), operand(expr.right)
    if expr.op in ("=", "!="):
        equal = str(left) == str(right)
        return equal if expr.op == "=" else not equal
    left_num = left if isinstance(left, int) else term_number(str(left))
    right_num = right if isinstance(right, int) else term_number(str(right))
    if left_num is None or right_num is None:
        return False
    if expr.op == "<":
        return left_num < right_num
    if expr.op == "<=":
        return left_num <= right_num
    if expr.op == ">":
        return left_num > right_num
    return left_num >= right_num


def reference_rows(query: Query, history: List[Fact],
                   snapshot: int) -> List[Tuple[object, ...]]:
    """Evaluate ``query`` over ``history`` at ``snapshot``, brute force.

    Returns distinct projected rows (graph variables as decoded names,
    interval variables as ints), in no particular order — compare as
    sets against the engine's decoded output.
    """
    visible = [fact for fact in history if fact[3] <= snapshot]
    rows: List[Dict[str, object]] = [{}]
    for pattern in query.patterns:
        rows = [new for row in rows for fact in visible
                for new in (_match(pattern, fact, row),) if new is not None]
        if not rows:
            break
    rows = [row for row in rows
            if all(_filter_ok(f, row) for f in query.filters)
            and all(interval_op_holds(f.op,
                                      _endpoint(f.left_ts, row),
                                      _endpoint(f.left_te, row),
                                      _endpoint(f.right_ts, row),
                                      _endpoint(f.right_te, row))
                    for f in query.interval_filters)]
    out_vars = query.projected()
    seen = set()
    out: List[Tuple[object, ...]] = []
    for row in rows:
        projected = tuple(row[v] for v in out_vars)
        if projected not in seen:
            seen.add(projected)
            out.append(projected)
    offset = query.offset or 0
    if offset:
        out = out[offset:]
    if query.limit is not None:
        out = out[:query.limit]
    return out


def decode_result(result, strings, interval_vars) -> List[Tuple[object, ...]]:
    """Decode an engine :class:`ExecutionResult` into reference space:
    graph-variable vids to names, interval variables kept as ints."""
    decoded: List[Tuple[object, ...]] = []
    for row in result.rows:
        decoded.append(tuple(
            value if variable in interval_vars
            else strings.entity_name(value)
            for variable, value in zip(result.variables, row)))
    return decoded
