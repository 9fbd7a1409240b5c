"""Metrics registry semantics and the collect_metrics engine sweep."""

from repro.core.cache import BoundedLRU
from repro.core.engine import EngineConfig, WukongSEngine
from repro.obs.metrics import MetricsRegistry, collect_metrics
from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema


def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    registry.counter("hits").inc()
    registry.counter("hits").inc(3)
    registry.gauge("entries", node=1).set(42)
    hist = registry.histogram("latency_ns")
    for ns in (500.0, 5_000.0, 2e6):
        hist.observe(ns)

    snap = registry.snapshot()
    assert snap["counters"]["hits"] == 4
    assert snap["gauges"]["entries{node=1}"] == 42
    record = snap["histograms"]["latency_ns"]
    assert record["count"] == 3
    assert record["total_ns"] == 500.0 + 5_000.0 + 2e6
    # 500 -> bucket <=1e3; 5e3 -> <=1e4; 2e6 -> <=1e7.
    assert record["counts"][0] == 1
    assert record["counts"][1] == 1
    assert record["counts"][4] == 1


def test_label_keys_are_order_insensitive():
    registry = MetricsRegistry()
    registry.counter("c", b=2, a=1).inc()
    registry.counter("c", a=1, b=2).inc()
    assert registry.snapshot()["counters"] == {"c{a=1,b=2}": 2}


def test_render_lists_every_metric():
    registry = MetricsRegistry()
    registry.counter("hits").inc(7)
    registry.gauge("depth").set(2.5)
    registry.histogram("lat_ns").observe(1e6)
    text = registry.render()
    assert "hits 7" in text
    assert "depth 2.5" in text
    assert "lat_ns count=1" in text


def _tiny_engine(ticks=6):
    config = EngineConfig(num_nodes=2, batch_interval_ms=100)
    engine = WukongSEngine(schemas=[StreamSchema("S")], config=config)
    engine.load_static(parse_triples(
        "a fo b .\nb fo c .\nc fo a ."))
    source = StreamSource(engine.schemas["S"])
    source.queue_tuples(parse_timed_tuples(
        "\n".join(f"a po p{t} @{100 * t + 10}" for t in range(ticks))),
        0, 100)
    engine.attach_source(source)
    for _ in range(ticks):
        engine.step()
    return engine


def test_collect_metrics_pulls_cache_counters():
    engine = _tiny_engine()
    # A one-entry parse cache: the third text evicts the first.
    engine.parse_cache = BoundedLRU(1)
    text = "SELECT ?X WHERE { a fo ?X }"
    engine.oneshot(text)
    engine.oneshot(text)  # plan + parse cache hits
    engine.oneshot("SELECT ?X WHERE { ?X fo b }")

    registry = collect_metrics(engine)
    snap = registry.snapshot()
    assert snap["counters"]["parse_cache_hits"] == 1
    assert snap["counters"]["parse_cache_misses"] == 2
    assert snap["counters"]["plan_cache_hits"] == 1
    assert snap["counters"]["plan_cache_misses"] == 2
    assert snap["counters"]["parse_cache_evictions"] == 1
    for prefix in ("plan_cache", "continuous_plan_cache",
                   "temporal_plan_cache"):
        assert snap["counters"][f"{prefix}_evictions"] == 0
    assert snap["counters"]["adjacency_cache_misses"] > 0
    assert snap["counters"]["tuples_injected"] > 0
    assert snap["gauges"]["store_entries"] > 0
    assert "stream_index_slices{stream=S}" in snap["gauges"]


def test_collect_metrics_is_idempotent_and_deterministic():
    engine = _tiny_engine()
    engine.oneshot("SELECT ?X WHERE { a fo ?X }")
    first = collect_metrics(engine).snapshot()
    second = collect_metrics(engine, registry=MetricsRegistry()).snapshot()
    assert first == second  # pulled counters are set, not accumulated

    other = _tiny_engine()
    other.oneshot("SELECT ?X WHERE { a fo ?X }")
    assert collect_metrics(other).snapshot() == first


def test_engine_pushes_latency_histograms_when_attached():
    config = EngineConfig(num_nodes=2, batch_interval_ms=100, tracing=True)
    engine = WukongSEngine(schemas=[StreamSchema("S")], config=config)
    engine.load_static(parse_triples("a fo b ."))
    source = StreamSource(engine.schemas["S"])
    source.queue_tuples(parse_timed_tuples("a po p1 @10\na po p2 @110"),
                        0, 100)
    engine.attach_source(source)
    for _ in range(3):
        engine.step()
    engine.oneshot("SELECT ?X WHERE { a fo ?X }")

    snap = engine.metrics.snapshot()
    assert snap["histograms"]["oneshot_ns"]["count"] == 1
    assert snap["histograms"]["injection_ns{stream=S}"]["count"] >= 2
