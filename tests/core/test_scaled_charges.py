"""The one rounding rule for scaled charges, pinned end to end.

One-shot and temporal contention and the injector's straggler slowdown
charge a fraction of an exact integer-picosecond total.  The cost models
here carry a 1 or 3 ps surcharge so the totals are odd, i.e. not a
multiple of the factor's denominator, and round down for one surcharge
and up for the other: the scaled charge must equal the exact product
rounded to the nearest picosecond, ties to even
(``repro.sim.cost.scale_ps``) — never a value read off a float view.
"""

from fractions import Fraction

import pytest

from repro.core.dispatcher import NodeBatch
from repro.core.engine import EngineConfig, WukongSEngine
from repro.core.injector import Injector
from repro.core.stream_index import IndexSlice
from repro.rdf.parser import parse_timed_tuples, parse_triples
from repro.rdf.string_server import StringServer
from repro.rdf.terms import EncodedTriple, EncodedTuple
from repro.sim.cluster import Cluster
from repro.sim.cost import CostModel, LatencyMeter
from repro.store.distributed import DistributedStore
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema

CONTINUOUS = """
    REGISTER QUERY QC AS
    SELECT ?X ?P
    FROM S [RANGE 1s STEP 500ms]
    WHERE { GRAPH S { ?X po ?P } }
"""


def reference(base_ps, factor):
    """Exact product, nearest picosecond, ties to even."""
    return round(Fraction(base_ps) * Fraction(factor))


def assert_scaled(meter, category, factor):
    scaled = meter._breakdown[category]
    base = meter.ps - scaled
    num, den = factor.as_integer_ratio()
    assert base * num % den, "premise: the product must need rounding"
    assert scaled == reference(base, factor)


def contended_engine(factor, surcharge_ps):
    # One task dispatch per query: its surcharge makes the total odd.
    cost = CostModel(task_dispatch_ns=60_000 + surcharge_ps / 1000)
    config = EngineConfig(num_nodes=2, batch_interval_ms=100,
                          scalarization=False, oneshot_contention=factor,
                          cost=cost)
    engine = WukongSEngine(schemas=[StreamSchema("S")], config=config)
    engine.load_static(parse_triples("u0 fo u1 .\nu1 fo u2 ."))
    source = StreamSource(engine.schemas["S"])
    source.queue_tuples(parse_timed_tuples(
        "\n".join(f"u{t % 3} po p{t} @{100 * t + 10}" for t in range(6))),
        0, 100)
    engine.attach_source(source)
    engine.register_continuous(CONTINUOUS)  # one-shots now contend
    engine.run_until(600)
    return engine


@pytest.mark.parametrize("surcharge_ps", [1, 3])
@pytest.mark.parametrize("factor", [0.5, 0.25, 0.05])
def test_oneshot_contention(factor, surcharge_ps):
    engine = contended_engine(factor, surcharge_ps)
    record = engine.oneshot("SELECT ?F ?P WHERE { u0 fo ?F . ?F po ?P }",
                            home_node=0)
    assert record.result.rows
    assert_scaled(record.meter, "contention", factor)


@pytest.mark.parametrize("surcharge_ps", [1, 3])
@pytest.mark.parametrize("factor", [0.5, 0.25, 0.05])
def test_temporal_contention(factor, surcharge_ps):
    engine = contended_engine(factor, surcharge_ps)
    record = engine.oneshot("SELECT ?U ?P ?ts WHERE { ?U po ?P [?ts, ?te) }",
                            home_node=0)
    assert record.result.rows
    assert_scaled(record.meter, "contention", factor)


@pytest.mark.parametrize("slowdown", [1.5, 1.25, 3.0])
def test_straggler_slowdown(slowdown):
    # 120 ns + 1 ps per insert charge: two tuples make an odd total.
    cluster = Cluster(num_nodes=1, cost=CostModel(insert_entry_ns=120.001))
    injector = Injector(0, DistributedStore(cluster, StringServer()), {})
    injector.slowdown = slowdown
    batch = NodeBatch("S", 1, 0, out_timeless=[
        EncodedTuple(EncodedTriple(1, 2, o), 10) for o in (3, 4)])
    meter = LatencyMeter()
    injector.inject(batch, 1, IndexSlice(1), meter=meter)
    factor = slowdown - 1.0
    if factor.is_integer():
        # An integer factor never rounds: the surcharge is exact.
        straggle = meter._breakdown["straggle"]
        assert straggle == (meter.ps - straggle) * int(factor)
    else:
        assert_scaled(meter, "straggle", factor)
