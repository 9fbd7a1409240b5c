"""The explorer's execution modes against an independent evaluator.

Every mode — in-place, fork-join and migrate, on RDMA and TCP fabrics —
must return the answers of the CSPARQL baseline (an Esper+Jena
nested-loop evaluator that shares no code with the explorer) for
index-start, constant-start, FILTER, UNION, OPTIONAL and cross-product
plans.  Exact row order and picosecond charges are pinned separately by
``tests/core/test_pinned_charges.py``.
"""

from core.pinned_charges import (CONST_QUERIES, CROSS_QUERIES,
                                 GROUP_QUERIES, INDEX_QUERIES, XLAB)
from repro.baselines.csparql_engine import CSparqlEngine
from repro.core.engine import EngineConfig, WukongSEngine
from repro.core.stats import collect_stats
from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.rdf.string_server import StringServer
from repro.sim.cluster import Cluster
from repro.sim.cost import LatencyMeter
from repro.sparql.parser import parse_query
from repro.sparql.planner import plan_query
from repro.store.distributed import DistributedStore, PersistentAccess
from repro.store.executor import GraphExplorer
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema, batch_tuples

DUPLICATES = "Logan po T-13 .\nErik fo Logan ."


def build(num_nodes=3, use_rdma=True):
    cluster = Cluster(num_nodes=num_nodes, use_rdma=use_rdma)
    strings = StringServer()
    store = DistributedStore(cluster, strings)
    store.load(parse_triples(XLAB))
    return cluster, strings, store


def factory_for(store):
    def factory(node_id):
        access = PersistentAccess(store, home_node=node_id)
        return lambda pattern: access
    return factory


def run(cluster, strings, store, text, mode):
    explorer = GraphExplorer(cluster, strings)
    meter = LatencyMeter()
    result = explorer.execute(plan_query(parse_query(text)),
                              factory_for(store), meter, mode=mode)
    return result, meter, explorer


def names(strings, rows):
    """Rows as entity names (None for an unbound OPTIONAL variable)."""
    return sorted(tuple(strings.entity_name(vid) if vid >= 0 else None
                        for vid in row) for row in rows)


def baseline_rows(text, extra=""):
    """The CSPARQL baseline's answer.  Its one-shot entry point skips
    FILTER/UNION/OPTIONAL, so the query runs through the continuous
    path, which evaluates stored-only queries in full."""
    baseline = CSparqlEngine()
    baseline.load_static(parse_triples(XLAB + extra))
    rows, _ = baseline.execute_continuous(parse_query(text), 0)
    return names(baseline.strings, rows)


def assert_matches_baseline(cluster, strings, store, text, mode,
                            extra=""):
    result, _, _ = run(cluster, strings, store, text, mode)
    assert len(result.rows) == len(set(result.rows)), text
    assert names(strings, result.rows) == baseline_rows(text, extra), \
        (text, mode)


def test_fork_join_differential():
    cluster, strings, store = build()
    for text in INDEX_QUERIES + GROUP_QUERIES[2:] + CROSS_QUERIES:
        assert_matches_baseline(cluster, strings, store, text, "fork_join")


def test_migrate_differential():
    cluster, strings, store = build()
    for text in INDEX_QUERIES + CONST_QUERIES + GROUP_QUERIES \
            + CROSS_QUERIES:
        assert_matches_baseline(cluster, strings, store, text, "migrate")


def test_migrate_differential_without_rdma():
    """TCP fabric: migrate is the auto mode and messages replace reads."""
    cluster, strings, store = build(use_rdma=False)
    for text in INDEX_QUERIES + CONST_QUERIES + CROSS_QUERIES:
        assert_matches_baseline(cluster, strings, store, text, "migrate")
        assert_matches_baseline(cluster, strings, store, text, "auto")


def test_union_optional_fallback_differential():
    """UNION arms and OPTIONAL groups, which run row by row at the home
    node after the step phase, on one and three nodes."""
    for num_nodes in (1, 3):
        cluster, strings, store = build(num_nodes=num_nodes)
        for text in GROUP_QUERIES + CROSS_QUERIES:
            assert_matches_baseline(cluster, strings, store, text,
                                    "in_place")


def test_duplicate_edges_differential():
    """Re-inserting an edge at a later snapshot duplicates it in the
    adjacency list; the distinct-rows proof must fail and the projection
    must still deduplicate."""
    cluster, strings, store = build()
    for triple in parse_triples(DUPLICATES):
        store.insert_encoded(strings.encode_triple(triple), sn=1)
    for mode in ("fork_join", "migrate"):
        for text in INDEX_QUERIES + CONST_QUERIES:
            assert_matches_baseline(cluster, strings, store, text, mode,
                                    extra=DUPLICATES)


def test_filter_oneshot_takes_batch_path():
    """A FILTER-bearing plan runs its step phase columnar end to end."""
    cluster, strings, store = build()
    text = "SELECT ?P ?S WHERE { ?U po ?P . ?P sc ?S . FILTER (?S > 2) }"
    result, _, explorer = run(cluster, strings, store, text, "fork_join")
    assert len(result.rows) == 2  # T-13 (5) and T-14 (9)
    assert names(strings, result.rows) == baseline_rows(text)
    assert explorer.batch_executions == 1


TWEETS = """
Logan po T-15 @2200
T-15 ht sosp17 @2250
Erik po T-16 @5100
Logan po T-17 @8100
T-17 ht sosp17 @8200
"""

QC = """
REGISTER QUERY QC AS
SELECT ?X ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM X-Lab
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  GRAPH X-Lab { ?X fo ?Y }
}
"""

ONESHOT = "SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 }"


def build_engine():
    engine = WukongSEngine(
        schemas=[StreamSchema("Tweet_Stream")],
        config=EngineConfig(num_nodes=2, batch_interval_ms=1000))
    engine.load_static(parse_triples(XLAB))
    source = StreamSource(engine.schemas["Tweet_Stream"])
    source.queue_tuples(parse_timed_tuples(TWEETS), 0, 1000)
    engine.attach_source(source)
    return engine


def test_engine_matches_baseline():
    """Whole-engine answers: every continuous window close (stream
    window + stored data through the columnar window views) equals the
    baseline's at the same close, and a one-shot after the run (over
    static data plus the absorbed stream) equals the baseline's over
    the same triples."""
    engine = build_engine()
    engine.register_continuous(QC)
    engine.run_until(10_000)
    record = engine.oneshot(ONESHOT)
    baseline = CSparqlEngine()
    baseline.load_static(parse_triples(XLAB))
    for batch in batch_tuples("Tweet_Stream", parse_timed_tuples(TWEETS),
                              0, 1000):
        baseline.ingest(batch)
    executions = engine.continuous.queries["QC"].executions
    assert executions
    for execution in executions:
        rows, _ = baseline.execute_continuous(parse_query(QC),
                                              execution.close_ms)
        assert names(engine.strings, execution.result.rows) == \
            names(baseline.strings, rows), execution.close_ms
    assert any(execution.result.rows for execution in executions)
    absorbed = CSparqlEngine()
    absorbed.load_static(parse_triples(XLAB) + [
        timed.triple for timed in parse_timed_tuples(TWEETS)])
    rows, _ = absorbed.execute_oneshot(parse_query(ONESHOT))
    assert names(engine.strings, record.result.rows) == \
        names(absorbed.strings, rows)


def test_engine_counters_report_batch_path():
    engine = build_engine()
    engine.run_until(2_000)
    engine.oneshot(
        "SELECT ?X ?S WHERE { Logan po ?X . ?X sc ?S . FILTER (?S > 2) }")
    caches = collect_stats(engine).caches
    assert caches.batch_executions >= 1
    assert caches.row_executions == 0
    assert "batch" in collect_stats(engine).format()
