"""Pinned simulated charges of the graph explorer and the interval kernels.

Each case runs one query and records its projected rows, its meter's
exact total in picoseconds, its per-category picosecond breakdown and,
for interval queries, the version-chain traversal counters.  The values
in ``pinned_charges.json`` were recorded from row-at-a-time
implementations of the explorer and the interval evaluator (since
deleted), so the columnar kernels are held to the charges of an
independent implementation of the same cost model, not to their own
output.

Coverage:

* the distributed-execution query sets (index starts, constant starts,
  step FILTERs, UNION, OPTIONAL and a cross-product index start) on 1, 2
  and 3 nodes with RDMA on and off, in every execution mode, plus a store
  holding duplicate edges;
* ``GraphExplorer.explore`` from seed rows (the composite baseline's
  entry point), including a cross-product index start;
* LSBench S1-S6 one-shot queries on a one-node engine;
* interval (quintuple) queries of every shape the temporal differential
  generates, over a fixed event list on 1 and 2 nodes, plus two
  deep-history interval queries on the default LSBench data.

Regenerate with ``scripts/regen_goldens.py`` only when a change means to
move simulated time.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import Dict

from repro.bench.harness import build_wukongs
from repro.bench.lsbench import LSBench, LSBenchConfig
from repro.core.engine import EngineConfig, WukongSEngine
from repro.rdf.parser import parse_triples
from repro.rdf.string_server import StringServer
from repro.rdf.terms import TimedTuple, Triple
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.sparql.parser import parse_query
from repro.sparql.planner import plan_query, plan_steps
from repro.store.distributed import DistributedStore, PersistentAccess
from repro.store.executor import GraphExplorer
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema

PINNED_PATH = os.path.join(os.path.dirname(__file__), "pinned_charges.json")

XLAB = """
Logan ty XMen .
Erik ty XMen .
Logan fo Erik .
Erik fo Logan .
Logan po T-13 .
Logan po T-14 .
Erik po T-12 .
T-13 ht sosp17 .
T-12 ht sosp17 .
Logan li T-12 .
Erik li T-13 .
Erik li T-14 .
T-12 sc 2 .
T-13 sc 5 .
T-14 sc 9 .
"""

#: Index-start plans, with and without FILTER schedules.
INDEX_QUERIES = [
    "SELECT ?U ?P WHERE { ?U po ?P }",
    "SELECT ?U ?P ?T WHERE { ?U po ?P . ?P ht ?T }",
    "SELECT ?P ?S WHERE { ?U po ?P . ?P sc ?S . FILTER (?S > 2) }",
    "SELECT ?U ?P WHERE { ?U po ?P . FILTER (?U != Erik) }",
]
#: Constant-start plans, with and without FILTER schedules.
CONST_QUERIES = [
    "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 . Erik li ?X }",
    "SELECT ?F ?P WHERE { Logan fo ?F . ?F po ?P }",
    "SELECT ?X ?S WHERE { Logan po ?X . ?X sc ?S . FILTER (?S < 9) }",
]
#: UNION and OPTIONAL plans: the groups run at the home node after the
#: (possibly distributed) step phase.
GROUP_QUERIES = [
    "SELECT ?P WHERE { { Logan po ?P } UNION { Erik po ?P } }",
    "SELECT ?P ?T WHERE { Logan po ?P . OPTIONAL { ?P ht ?T } }",
    "SELECT ?U ?P ?T WHERE { ?U po ?P . OPTIONAL { ?P ht ?T } }",
]
#: A second, disconnected pattern: an index start over many input rows.
CROSS_QUERIES = [
    "SELECT ?P ?U ?F WHERE { Logan po ?P . ?U fo ?F }",
]
EXPLORER_QUERIES = INDEX_QUERIES + CONST_QUERIES + GROUP_QUERIES \
    + CROSS_QUERIES
MODES = ["in_place", "fork_join", "migrate"]

#: Interval-query fixture (the temporal differential's shapes).
TEMPORAL_STATIC = "u0 fo u1 .\nu1 fo u2 .\nu2 fo u3 .\nu3 fo u0 ."
#: (actor, post id, batch index) of each streamed post.
EVENTS = [("u0", 0, 0), ("u1", 1, 0), ("u0", 2, 1), ("u2", 1, 1),
          ("u3", 3, 2), ("u1", 4, 2), ("u0", 1, 3), ("u2", 5, 3),
          ("u3", 0, 4), ("u1", 2, 5), ("u0", 3, 5), ("u2", 4, 5)]
INTERVAL_QUERIES = [
    f"SELECT ?U ?P ?ts WHERE {{ ?U po ?P [?ts, ?te) "
    f"FILTER ([?ts, ?te) {op} [2, {end})) }}"
    for op, end in (("OVERLAPS", 5), ("DURING", "*"), ("BEFORE", 5),
                    ("AFTER", 5), ("STARTS", 5))
] + [
    "SELECT ?P ?ts WHERE { u0 po ?P [?ts, ?te) FILTER (?ts >= 3) }",
    "SELECT ?P ?ts WHERE { u1 po ?P [?ts, ?te) FILTER (?ts >= 2) "
    "FILTER ([?ts, ?te) OVERLAPS [2, 6)) }",
    "SELECT ?F ?P ?pts WHERE { u0 fo ?F [?fts, ?fte) . "
    "?F po ?P [?pts, ?pte) FILTER (?pts >= ?fts) }",
    "SELECT ?U ?F ?P WHERE { ?U fo ?F [?ts, ?fte) . ?F po ?P [?ts, ?pte) }",
]


def _facts(rows, meter: LatencyMeter, counters=None) -> Dict:
    rows = [list(row) for row in rows]
    if len(rows) > 1000:
        # Keep the fixture small: large results pin a digest of the
        # exact row sequence instead.
        rows = {"count": len(rows), "sha256": hashlib.sha256(
            json.dumps(rows).encode()).hexdigest()}
    facts = {"rows": rows, "ps": meter.ps,
             "breakdown": dict(sorted(meter._breakdown.items()))}
    if counters is not None:
        facts["counters"] = list(counters)
    return facts


def _xlab_store(num_nodes: int, use_rdma: bool, duplicates: bool = False):
    cluster = Cluster(num_nodes=num_nodes, use_rdma=use_rdma)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    store.load(parse_triples(XLAB))
    if duplicates:
        # Re-inserting an edge at a later snapshot duplicates it in the
        # adjacency list (the distinct-rows proof must then fail).
        for triple in parse_triples("Logan po T-13 .\nErik fo Logan ."):
            store.insert_encoded(strings.encode_triple(triple), sn=1)
    return cluster, strings, store


def _persistent_factory(store):
    def factory(node_id):
        access = PersistentAccess(store, home_node=node_id)
        return lambda pattern: access
    return factory


def explorer_cases() -> Dict[str, Dict]:
    """Every query x mode on every cluster shape (fresh store each)."""
    shapes = [(nodes, rdma, False) for nodes in (1, 2, 3)
              for rdma in (True, False)] + [(3, True, True)]
    out: Dict[str, Dict] = {}
    for nodes, rdma, duplicates in shapes:
        cluster, strings, store = _xlab_store(nodes, rdma, duplicates)
        factory = _persistent_factory(store)
        shape = f"n{nodes}-{'rdma' if rdma else 'tcp'}" \
            + ("-dup" if duplicates else "")
        for mode in MODES:
            for text in EXPLORER_QUERIES:
                explorer = GraphExplorer(cluster, strings)
                meter = LatencyMeter()
                result = explorer.execute(plan_query(parse_query(text)),
                                          factory, meter, mode=mode)
                out[f"{shape}|{mode}|{text}"] = _facts(result.rows, meter)
    return out


def explore_cases() -> Dict[str, Dict]:
    """``GraphExplorer.explore`` from seed rows, as the composite
    baseline calls it (rows as sorted ``(variable, vid)`` pairs)."""
    cluster, strings, store = _xlab_store(2, True)
    access = PersistentAccess(store, home_node=0)
    logan = strings.lookup_entity("Logan")
    erik = strings.lookup_entity("Erik")
    seeds = [{"?U": logan}, {"?U": erik}, {"?U": logan}]
    texts = [
        "SELECT * WHERE { ?U po ?P . ?P ht ?T }",
        "SELECT * WHERE { ?U li ?P . ?P sc ?S }",
        "SELECT * WHERE { ?U fo ?F . ?A li ?B }",
    ]
    out: Dict[str, Dict] = {}
    for text in texts:
        steps = plan_steps(parse_query(text).patterns, prebound={"?U"})
        explorer = GraphExplorer(cluster, strings)
        meter = LatencyMeter()
        rows = explorer.explore(steps, lambda pattern: access, meter,
                                seeds=seeds)
        out[f"explore|{text}"] = _facts(
            [sorted(row.items()) for row in rows], meter)
    return out


def lsbench_cases() -> Dict[str, Dict]:
    """LSBench S1-S6 one-shots on a one-node engine after 1 s of streams."""
    bench = LSBench(LSBenchConfig.tiny())
    engine = build_wukongs(bench, num_nodes=1, duration_ms=1_000)
    engine.run_until(1_000)
    out: Dict[str, Dict] = {}
    for name in ("S1", "S2", "S3", "S4", "S5", "S6"):
        record = engine.oneshot(bench.oneshot_query(name), home_node=0)
        out[f"lsbench|{name}"] = _facts(record.result.rows, record.meter)
    return out


def _temporal_engine(num_nodes: int) -> WukongSEngine:
    posts = [TimedTuple(Triple(actor, "po", f"t{post}"), batch * 1000 + 500)
             for actor, post, batch in sorted(EVENTS, key=lambda e: e[2])]
    engine = WukongSEngine(
        schemas=[StreamSchema("Posts")],
        config=EngineConfig(num_nodes=num_nodes, batch_interval_ms=1000,
                            scalarization=False))
    engine.load_static(parse_triples(TEMPORAL_STATIC))
    source = StreamSource(engine.schemas["Posts"])
    source.queue_tuples(posts, 0, 1000)
    engine.attach_source(source)
    engine.run_until(7_000)
    return engine


def _interval_facts(record) -> Dict:
    return _facts(record.result.rows, record.meter,
                  (record.snapshot_reads, record.version_entries,
                   record.max_chain_depth))


def interval_cases() -> Dict[str, Dict]:
    """Interval queries on 1 and 2 nodes, home node pinned to 0."""
    out: Dict[str, Dict] = {}
    for nodes in (1, 2):
        engine = _temporal_engine(nodes)
        for text in INTERVAL_QUERIES:
            record = engine.oneshot(text, home_node=0)
            out[f"interval|n{nodes}|{text}"] = _interval_facts(record)
    return out


def deep_interval_queries(stable_sn: int):
    hi = max(2, stable_sn)
    return [
        "SELECT ?s ?o ?ts WHERE { ?s po ?o [?ts, ?te) . "
        f"FILTER ([?ts, ?te) OVERLAPS [1, {hi})) }}",
        "SELECT ?u ?f ?p ?ts WHERE { ?u fo ?f [?fts, ?fte) . "
        "?f po ?p [?ts, ?te) . FILTER ([?ts, ?te) DURING [1, *)) }",
    ]


def deep_interval_cases() -> Dict[str, Dict]:
    """Deep version chains: default LSBench on two nodes after 2 s
    (thousands of probes, meter totals in the millions of ns)."""
    engine = build_wukongs(LSBench(LSBenchConfig()), num_nodes=2,
                           duration_ms=2000)
    engine.run_until(2000)
    out: Dict[str, Dict] = {}
    for index, text in enumerate(
            deep_interval_queries(engine.coordinator.stable_sn)):
        record = engine.oneshot(text, home_node=0)
        out[f"deep|{index}"] = _interval_facts(record)
    return out


GROUPS = {
    "explorer": explorer_cases,
    "explore": explore_cases,
    "lsbench": lsbench_cases,
    "interval": interval_cases,
    "deep_interval": deep_interval_cases,
}


def compute(groups=None) -> Dict[str, Dict]:
    return {name: GROUPS[name]() for name in groups or GROUPS}


def compute_pinned(groups=None) -> Dict[str, Dict]:
    """:func:`compute` in a child interpreter with ``PYTHONHASHSEED=0``.

    LSBench's generator iterates string-keyed sets, so its data (and
    with it every LSBench-based charge) depends on the hash seed; the
    child fixes it.  The facts come back through JSON, in the form the
    fixture file stores them.
    """
    tests_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
    code = ("import json, sys\n"
            "from core.pinned_charges import compute\n"
            f"json.dump(compute({groups!r}), sys.stdout)")
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout)
