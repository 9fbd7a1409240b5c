"""Wall-clock benchmark of the Wukong+S reproduction, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream_windows --seed 1 \\
        --seconds 24 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 24
    python3 perfbench/run.py --selfcheck --workload serving_fanout --seed 1

``--trace 0`` repeats set-up + ``gc.collect()`` + timed region three
times with tracing off and prints the median of each end-to-end metric,
its wall readings scaled to a reference CPU speed (:func:`reference_loop`).
``--trace 1`` plays the same inputs once untraced and once with every
layer entry point wrapped, prints the per-layer metrics, the ledger
(layer self times + ``pygc`` + ``untraced`` = traced region) and the
tracing overhead, and writes the spans as Chrome trace-event JSON under
``perfbench/out/``.  Both check the engine's outputs afterwards (see
``oracle.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The process re-executes itself with ``PYTHONHASHSEED`` derived from
``--seed``: LSBench's generator mixes ``hash()`` of string salts into its
RNG seeds, so without that its inputs would change from process to
process.  ``--selfcheck`` proves the engine itself does not depend on
the hash seed: it replays one set of generated inputs under two other
hash seeds and requires identical simulated metrics and result digests.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.bench.metrics import percentile  # noqa: E402
from repro.core.stats import collect_stats  # noqa: E402

import oracle  # noqa: E402
from spans import PYGC, ROOT, UNTRACED, SpanRecorder, tail  # noqa: E402
from workloads import (TICKS_PER_SECOND, WORKLOADS, Driver,  # noqa: E402
                       build, generate)

OUT_DIR = os.path.join(HERE, "out")
#: Set-up + timed region repetitions of an untraced run; every metric is
#: the median of its repetitions, which share ``--seconds`` between them.
REPEATS = 3
#: Hash seeds the self-check replays under (any two distinct values).
REPLAY_HASH_SEEDS = (1, 2)
#: Typical time of :func:`reference_loop` on a 2-core x86 VM.  Wall
#: metrics of an untraced run are reported at this reference speed: each
#: reading is scaled by ``REFERENCE_MS`` over the loop's time measured
#: while it was taken (see README.md, "Machine speed").
REFERENCE_MS = 3.3
#: Reference-loop samples around a set-up (their median is taken).
SPEED_SAMPLES = 7
#: Seconds between reference-loop samples during a timed region.
PROBE_EVERY_S = 0.2

#: Layers, in ledger order (see :func:`instrument` for their entry points).
LAYERS = ("inputs", "store.load", "core.engine", "core.adaptor",
          "core.dispatcher", "core.injector", "core.stream_index",
          "core.coordinator", "core.continuous", "store.executor",
          "core.oneshot", "temporal", "core.gc", "serving")
#: Layers without an item count (their calls are the count).
NO_ITEMS = ("inputs", "core.engine", "core.coordinator", "core.gc")


def hash_seed(seed: int) -> str:
    return str(seed % 4294967296)


def ticks_for(workload: str, seconds: int) -> int:
    """Ticks of one repetition: ``--seconds`` is shared by all of them."""
    return max(11, seconds * TICKS_PER_SECOND[workload] // REPEATS)


# -- machine speed -------------------------------------------------------------

def reference_loop() -> int:
    """Fixed pure-Python work -- string formatting, hashing and dict reads
    and writes, like the engine's string and index work -- that allocates
    nothing the garbage collector tracks, so the engine's heap does not
    change its time while the CPU speed the VM gives us does."""
    table: dict = {}
    total = 0
    for i in range(12000):
        key = "k%d" % (i & 4095)
        total += table.get(key, 0)
        table[key] = i
    return total


def reference_ms() -> float:
    samples = []
    for _ in range(SPEED_SAMPLES):
        start = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


class SpeedProbe:
    """Runs the reference loop between ticks, every ``PROBE_EVERY_S``; the
    region's wall time excludes :attr:`spent_s`."""

    def __init__(self):
        self.samples_ms: list = []
        self.spent_s = 0.0
        self._due = 0.0

    def __call__(self) -> None:
        start = time.perf_counter()
        if start < self._due:
            return
        reference_loop()
        end = time.perf_counter()
        self.samples_ms.append((end - start) * 1e3)
        self.spent_s += end - start
        self._due = end + PROBE_EVERY_S


def at_reference_speed(metrics: dict, loop_ms: float) -> dict:
    """Scale wall readings taken while the loop took ``loop_ms`` to the
    reference speed; simulated metrics and counts are left alone."""
    scale = REFERENCE_MS / loop_ms
    out = {}
    for name, value in metrics.items():
        kind = unit(name)
        if name.startswith("sim_") or kind not in ("s", "ms", "1/s"):
            out[name] = value
        else:
            out[name] = value / scale if kind == "1/s" else value * scale
    return out


# -- metrics -----------------------------------------------------------------

def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tuples(engine) -> int:
    return sum(r.num_tuples for r in engine.injection_records)


def simulated(driver: Driver) -> dict:
    """The simulated-time metrics (exact; a pure function of the inputs)."""
    out = {}
    closes = [r.meter.ms for r in driver.closes()]
    for name, samples in (("close", closes),
                          ("query", driver.query_sim_ms)):
        if samples:
            out[f"sim_{name}_ms_p50"] = percentile(samples, 50)
            out[f"sim_{name}_ms_p99"] = percentile(samples, 99)
            out[f"sim_{name}_samples"] = len(samples)
    return out


def end_to_end(driver: Driver, region_s: float, tuples: int) -> dict:
    """Every end-to-end metric that applies to the driver's workload."""
    serving = driver.session.serving
    out = {"ingest_tuples_per_s": tuples / region_s}
    closes = len(driver.closes())
    if closes:
        out["closes_per_s"] = closes / region_s
    if driver.query_sim_ms:
        out["queries_per_s"] = len(driver.query_sim_ms) / region_s
    if serving is not None:
        out["delivered_per_s"] = serving.results_delivered / region_s
    for name, samples in (("tick", driver.tick_s), ("query", driver.query_s)):
        if samples:
            value, pct, n = tail([s * 1e3 for s in samples])
            out[f"{name}_ms_p50"] = statistics.median(samples) * 1e3
            out[f"{name}_ms_tail"] = value
            out[f"{name}_ms_tail_percentile"] = pct
            out[f"{name}_samples"] = n
    out.update(simulated(driver))
    return out


def _counters(engine, serving) -> dict:
    caches = collect_stats(engine).caches
    fabric = engine.cluster.fabric.stats
    out = {name: getattr(caches, name) for name in (
        "adjacency_hits", "adjacency_misses", "plan_hits", "plan_misses",
        "parse_hits", "parse_misses", "window_delta_hits",
        "window_delta_misses", "temporal_plan_hits", "temporal_plan_misses",
        "batch_executions", "row_executions",
        "temporal_batch_executions", "temporal_row_executions")}
    out.update(rdma_reads=fabric.rdma_reads, rdma_bytes=fabric.rdma_bytes,
               messages=fabric.messages, message_bytes=fabric.message_bytes,
               executions_saved=serving.executions_saved if serving else 0)
    return out


def per_layer(recorder: SpanRecorder, driver: Driver, before: dict,
              after: dict, overhead: float) -> dict:
    """Every per-layer metric, all workloads alike (idle layers read 0)."""
    ledger = recorder.ledger()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = recorder.calls.get(layer, 0)
        out[f"{layer}.self_s"] = ledger.get(layer, 0.0)
        if layer not in NO_ITEMS:
            out[f"{layer}.items"] = recorder.items.get(layer, 0)
    passes = sum(recorder.gc_collections)
    for generation, count in enumerate(recorder.gc_collections):
        out[f"pygc.gen{generation}"] = count
    out["pygc.pause_s"] = ledger.get(PYGC, 0.0)
    out["pygc.collected_per_pass"] = recorder.gc_collected / passes \
        if passes else 0.0
    out["untraced.self_s"] = ledger.get(UNTRACED, 0.0)
    out["region_s"] = recorder.region_seconds()
    out["trace.overhead"] = overhead
    delta = {k: after[k] - before[k] for k in after}
    for cache, key in (("adjacency", "adjacency"), ("plan", "plan"),
                       ("parse", "parse"), ("window_delta", "window_delta"),
                       ("temporal_plan", "temporal_plan")):
        hits, misses = delta[f"{key}_hits"], delta[f"{key}_misses"]
        out[f"cache.{cache}.lookups"] = hits + misses
        out[f"cache.{cache}.hit_ratio"] = hits / (hits + misses) \
            if hits + misses else 0.0
    out["exec.batch"] = delta["batch_executions"] \
        + delta["temporal_batch_executions"]
    out["exec.row"] = delta["row_executions"] \
        + delta["temporal_row_executions"]
    rows = driver.temporal_rows
    out["temporal.rows"] = rows
    out["temporal.entries_per_row"] = \
        driver.temporal_entries / rows if rows else 0.0
    serving = driver.session.serving
    out["serving.sharing_ratio"] = serving.registry.sharing_ratio \
        if serving is not None else 0.0
    out["serving.executions_saved"] = delta["executions_saved"]
    for key in ("rdma_reads", "rdma_bytes", "messages", "message_bytes"):
        out[f"fabric.{key}"] = delta[key]
    return out


# -- instrumentation -----------------------------------------------------------

def instrument(recorder: SpanRecorder, engine, serving) -> None:
    """Wrap each layer's public entry point on this engine's instances."""
    wrap = recorder.wrap
    wrap(engine, "load_static", "store.load", lambda r, a, k: r)
    wrap(engine, "step", "core.engine")
    for adaptor in engine.adaptors.values():
        wrap(adaptor, "adapt", "core.adaptor",
             lambda r, a, k: r.num_tuples)
    for dispatcher in engine.dispatchers.values():
        wrap(dispatcher, "dispatch", "core.dispatcher",
             lambda r, a, k: sum(b.num_inserts for b in r.values()))
    for injector in engine.injectors:
        wrap(injector, "inject", "core.injector",
             lambda r, a, k: a[0].num_inserts)
    for name in engine.schemas:
        wrap(engine.registry.index(name), "append_slice",
             "core.stream_index", lambda r, a, k: len(a[0].entries))
    wrap(engine.coordinator, "advance", "core.coordinator")
    wrap(engine.continuous, "poll", "core.continuous",
         lambda r, a, k: len(r))
    explorers = {id(e): e for e in (engine.continuous.explorer,
                                    engine.oneshot_engine.explorer)}
    for explorer in explorers.values():
        wrap(explorer, "execute", "store.executor",
             lambda r, a, k: len(r.rows))
    wrap(engine.oneshot_engine, "execute", "core.oneshot",
         lambda r, a, k: len(r.result.rows))
    wrap(engine.oneshot_engine, "plan", "core.oneshot")
    wrap(engine.temporal, "execute", "temporal",
         lambda r, a, k: len(r.result.rows))
    wrap(engine.gc, "run", "core.gc")
    if serving is not None:
        wrap(serving, "tick", "serving", lambda r, a, k: len(r))
        wrap(serving.scheduler, "drain", "serving")


# -- runs ------------------------------------------------------------------------

def check(driver: Driver) -> tuple:
    checked, wrong = oracle.check_last_tick(driver)
    more, more_wrong = oracle.check_deliveries(driver.session)
    return checked + more, wrong + more_wrong


def untraced_run(workload: str, seed: int, seconds: int) -> dict:
    ticks = ticks_for(workload, seconds)
    raw, scaled, loops = [], [], []
    attempted = failed = 0
    for _ in range(REPEATS):
        session = driver = None
        gc.collect()
        before = reference_ms()
        start = time.perf_counter()
        session = build(generate(workload, seed, ticks))
        setup_s = time.perf_counter() - start
        after = reference_ms()
        probe = SpeedProbe()
        driver = Driver(session, between_ticks=probe)
        gc.collect()
        start = time.perf_counter()
        driver.run()
        region_s = time.perf_counter() - start - probe.spent_s
        region_loop = statistics.median(probe.samples_ms)
        wall = end_to_end(driver, region_s, _tuples(session.engine))
        raw.append(dict(wall, setup_s=setup_s, region_s=region_s))
        scaled.append(dict(
            at_reference_speed(wall, region_loop),
            **at_reference_speed({"setup_s": setup_s}, (before + after) / 2)))
        loops.append((before, after, region_loop))
        attempted += driver.attempted
        failed += driver.failed
    metrics = {name: statistics.median([r[name] for r in scaled])
               for name in scaled[0]}
    metrics["peak_rss_mb"] = _rss_mb()
    # Every repetition plays the same inputs; the last one is checked.
    checked, wrong = check(driver)
    return {"metrics": metrics, "attempted": attempted + checked,
            "failed": failed + wrong, "checked": checked,
            "mismatches": wrong, "raw": raw, "loops_ms": loops}


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    ticks = ticks_for(workload, seconds)
    # Untraced reference pass over the same work as the traced one.
    gc.collect()
    start = time.perf_counter()
    driver = Driver(build(generate(workload, seed, ticks)))
    gc.collect()
    driver.run()
    plain_s = time.perf_counter() - start
    driver = None
    gc.collect()

    recorder = SpanRecorder()
    recorder.watch_gc()
    root = recorder.begin(ROOT)
    span = recorder.begin("inputs")
    inputs = generate(workload, seed, ticks)
    recorder.end(span)
    recorder.calls["inputs"] += 1
    session = build(inputs, lambda e, s: instrument(recorder, e, s))
    before = _counters(session.engine, session.serving)
    driver = Driver(session, new_request=recorder.new_request)
    gc.collect()    # the protocol's collection; the ledger counts it as pygc
    driver.run()
    recorder.end(root)
    recorder.unwatch_gc()
    after = _counters(session.engine, session.serving)

    traced_s = recorder.region_seconds()
    metrics = per_layer(recorder, driver, before, after,
                        traced_s / plain_s - 1.0)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
    recorder.write_chrome(trace_path)
    checked, wrong = check(driver)
    return {"metrics": metrics, "attempted": driver.attempted + checked,
            "failed": driver.failed + wrong, "checked": checked,
            "mismatches": wrong, "ledger": recorder.ledger(),
            "region_s": traced_s, "plain_s": plain_s,
            "trace_path": trace_path}


# -- hash-seed self-check ---------------------------------------------------------

def replay(path: str) -> int:
    """Play pickled inputs (written by this script) and print the
    simulated metrics and result digest as JSON."""
    with open(path, "rb") as handle:
        inputs = pickle.load(handle)
    session = build(inputs)
    digest = oracle.Digest(session.engine.strings)
    driver = Driver(session, observe=digest)
    driver.run()
    print(json.dumps({"simulated": simulated(driver),
                      "digest": digest.finish(driver)}, sort_keys=True))
    return 0


def selfcheck(workload: str, seed: int, seconds: int) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"inputs-{workload}-{seed}.pickle")
    with open(path, "wb") as handle:
        pickle.dump(generate(workload, seed, ticks_for(workload, seconds)),
                    handle)
    outputs = []
    try:
        for value in REPLAY_HASH_SEEDS:
            env = dict(os.environ, PYTHONHASHSEED=str(value))
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--replay", path],
                env=env, stdout=subprocess.PIPE, check=True, timeout=170)
            outputs.append(done.stdout.decode().strip().splitlines()[-1])
    finally:
        os.remove(path)
    same = outputs[0] == outputs[1]
    print(f"hash seeds {REPLAY_HASH_SEEDS}: "
          f"{'identical' if same else 'DIFFERENT'}")
    for value, output in zip(REPLAY_HASH_SEEDS, outputs):
        print(f"  PYTHONHASHSEED={value}: {output}")
    return 0 if same else 1


# -- reporting ----------------------------------------------------------------------

def unit(name: str) -> str:
    """The unit of every metric this script reports, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_percentile"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("ratio", "overhead", "_per_row", "_per_pass")):
        return "ratio"
    return "count"


def report(workload: str, seed: int, trace: bool, result: dict) -> None:
    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload} seed={seed} trace={int(trace)} ==")
    print(f"fail_ratio {failed / attempted:.6f} ratio "
          f"({failed} failed of {attempted} attempted; "
          f"{result['mismatches']} oracle mismatches in "
          f"{result['checked']} checks)")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {unit(name)}")
    if not trace:
        print(f"-- unscaled readings per repetition; reference loop ms "
              f"around set-up and in the region ({REFERENCE_MS} nominal) --")
        for loops, raw in zip(result["loops_ms"], result["raw"]):
            print("  loop_ms " + " ".join(f"{v:.2f}" for v in loops) + "; "
                  + " ".join(f"{name} {raw[name]:.6g}" for name in sorted(raw)
                             if unit(name) in ("s", "ms", "1/s")
                             and not name.startswith("sim_")))
    else:
        region = result["region_s"]
        print(f"-- ledger (self seconds; sums to the traced region "
              f"{region:.4f} s) --")
        ledger = result["ledger"]
        for layer in LAYERS + (PYGC, UNTRACED):
            value = ledger.get(layer, 0.0)
            print(f"  {layer:18s} {value:9.4f} s {100 * value / region:6.2f}%")
        print(f"  {'sum':18s} {sum(ledger.values()):9.4f} s")
        print(f"tracing overhead: traced {region:.4f} s vs untraced "
              f"{result['plain_s']:.4f} s "
              f"({100 * (region / result['plain_s'] - 1):+.2f}%)")
        print(f"chrome trace: {os.path.relpath(result['trace_path'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--replay", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.replay:
        return replay(args.replay)
    if args.all:
        status = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
            status |= subprocess.run(cmd).returncode
        return status
    if args.workload is None:
        parser.error("--workload or --all is required")
    if os.environ.get("PYTHONHASHSEED") != hash_seed(args.seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed(args.seed))
        argv = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + argv, env)
    if args.selfcheck:
        return selfcheck(args.workload, args.seed, args.seconds)
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds)
    else:
        result = untraced_run(args.workload, args.seed, args.seconds)
    report(args.workload, args.seed, bool(args.trace), result)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["mismatches"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
