#!/bin/sh
# Tier-1 gate: the full test suite plus a quick wall-clock benchmark.
#
# The suite is split so the fast tier stays fast: the serving battery
# (thousands of concurrent subscriptions; marked `serving`), the
# chaos suite (fault-injection equivalence; marked `chaos`) and the
# adaptive re-planning suite (skew-inversion differentials; marked
# `adaptive`) and the temporal suite (SPARQL-T snapshot/interval
# differentials; marked `temporal`) are the slowest blocks and run as
# their own stages,
# followed by the columnar-view and pinned-charge suite (incremental
# window deltas equal fresh builds; the explorer and interval kernels
# reproduce the rows and picosecond charges pinned in
# tests/core/pinned_charges.json) and a drift check of the golden files
# (scripts/regen_goldens.py --check).  A test marked both serving and
# chaos runs in the chaos stage only.
#
# The obs stage exports a Chrome trace from a quick traced LSBench run
# and validates it (schema, lossless round trip, and per-activity
# critical paths summing bit-identically to the recorded meter latency);
# see scripts/check_trace.py.
#
# The dead-code stage fails when a function or method defined in
# src/repro is never referenced by name anywhere in the repository's
# Python code (see scripts/check_dead_code.py).
#
# The bench-smoke stage runs the wall-clock benchmark in --quick mode
# (shorter scenarios, fewer repeats) to a scratch file and fails if any
# scenario retains less than its floor (0.6x of the speedup_vs_seed
# recorded in the committed BENCH_wallclock.json; 0.7x for continuous)
# (loose on purpose: it catches a fast
# path falling off, not load noise — see check_bench_smoke.py).  Use
# `python benchmarks/bench_wallclock.py` (no --quick) for citable numbers
# and to refresh BENCH_wallclock.json itself.
set -e
cd "$(dirname "$0")/.."

echo "== tier-1 tests (fast tier) =="
PYTHONPATH=src python -m pytest -x -q \
    -m "not chaos and not serving and not adaptive and not temporal"

echo "== serving battery (sharing, admission, fairness) =="
PYTHONPATH=src python -m pytest -x -q -m "serving and not chaos"

echo "== chaos suite (fault injection + recovery equivalence) =="
PYTHONPATH=src python -m pytest -x -q -m chaos

echo "== adaptive re-planning suite (swap differentials + hysteresis) =="
PYTHONPATH=src python -m pytest -x -q -m adaptive

echo "== temporal suite (SPARQL-T snapshot + interval differentials vs the oracle) =="
PYTHONPATH=src python -m pytest -x -q -m temporal

echo "== columnar views + pinned charges (window deltas, explorer/interval charges) =="
PYTHONPATH=src python -m pytest -x -q \
    tests/core/test_columnar_slice.py \
    tests/core/test_pinned_charges.py

echo "== golden drift check =="
python scripts/regen_goldens.py --check

echo "== obs (trace export + critical-path exactness) =="
PYTHONPATH=src python scripts/check_trace.py

echo "== ablation report (per-phase attribution smoke) =="
PYTHONPATH=src python scripts/report_ablation.py --check --duration-ms 1000

echo "== dead code (every src/repro function referenced by name) =="
python scripts/check_dead_code.py

echo "== bench smoke (quick run vs committed BENCH_wallclock.json) =="
PYTHONPATH=src python benchmarks/bench_wallclock.py --quick \
    --out .bench_smoke.json
python scripts/check_bench_smoke.py --committed BENCH_wallclock.json \
    --smoke .bench_smoke.json
rm -f .bench_smoke.json

echo "== done =="
