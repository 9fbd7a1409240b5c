"""Differential: the columnar interval kernels vs the brute-force oracle.

Over random ingestion histories and random quintuple/interval queries,
an interval execution must:

* return exactly the answers of the brute-force history oracle
  (:mod:`repro.temporal.reference`), and
* leave the engine state digest untouched (a temporal read pins and
  unpins its snapshot and writes nothing),

including under a kill-during-query chaos plan: a node killed and
recovered mid-ingestion, with the interval queries running against the
replayed store.  Exact rows, order, picosecond charges and traversal
counters are pinned separately (``tests/core/test_pinned_charges.py``
and :func:`test_deep_multi_node_meters_identical` below).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from core.pinned_charges import PINNED_PATH, compute_pinned
from repro.chaos.controller import ChaosController
from repro.chaos.plan import FaultPlan, KillNode
from repro.chaos.state import diff_digests, engine_state_digest
from repro.core.engine import EngineConfig, WukongSEngine
from repro.rdf.parser import parse_triples
from repro.rdf.terms import TimedTuple, Triple
from repro.sparql.parser import parse_query
from repro.streams.source import StreamSource
from repro.streams.stream import StreamSchema
from repro.temporal.reference import (decode_result, dump_history,
                                      reference_rows)

pytestmark = pytest.mark.temporal

USERS = ["u0", "u1", "u2", "u3"]
STATIC = "u0 fo u1 .\nu1 fo u2 .\nu2 fo u3 .\nu3 fo u0 ."

OPS = ["OVERLAPS", "DURING", "BEFORE", "AFTER", "STARTS"]


def event_strategy():
    return st.tuples(
        st.sampled_from(USERS),          # actor
        st.integers(0, 5),               # post id
        st.integers(0, 5),               # batch index (1s batches)
    )


def query_strategy():
    """Random interval queries spanning every kernel branch: single and
    multi-pattern quintuples, constant and variable endpoints, plain
    and interval FILTERs, and a shared-``?ts`` join."""
    op = st.sampled_from(OPS)
    lo = st.integers(0, 6)
    width = st.integers(1, 6)
    actor = st.sampled_from(USERS)

    single_ifilter = st.builds(
        lambda op, lo, width:
        f"SELECT ?U ?P ?ts WHERE {{ ?U po ?P [?ts, ?te) "
        f"FILTER ([?ts, ?te) {op} [{lo}, {lo + width})) }}",
        op, lo, width)
    const_subject = st.builds(
        lambda actor, lo:
        f"SELECT ?P ?ts WHERE {{ {actor} po ?P [?ts, ?te) "
        f"FILTER (?ts >= {lo}) }}",
        actor, lo)
    two_filters = st.builds(
        lambda actor, op, lo, width:
        f"SELECT ?P ?ts WHERE {{ {actor} po ?P [?ts, ?te) "
        f"FILTER (?ts >= {lo}) "
        f"FILTER ([?ts, ?te) {op} [{lo}, {lo + width})) }}",
        actor, op, lo, width)
    quintuple_join = st.builds(
        lambda actor:
        f"SELECT ?F ?P ?pts WHERE {{ {actor} fo ?F [?fts, ?fte) . "
        f"?F po ?P [?pts, ?pte) FILTER (?pts >= ?fts) }}",
        actor)
    shared_ts_join = st.just(
        "SELECT ?U ?F ?P WHERE { ?U fo ?F [?ts, ?fte) . "
        "?F po ?P [?ts, ?pte) }")
    return st.one_of(single_ifilter, const_subject, two_filters,
                     quintuple_join, shared_ts_join)


def build_engine(events):
    posts = [TimedTuple(Triple(actor, "po", f"t{post_id}"),
                        batch * 1000 + 500)
             for actor, post_id, batch in sorted(events, key=lambda e: e[2])]
    engine = WukongSEngine(
        schemas=[StreamSchema("Posts")],
        config=EngineConfig(num_nodes=2, batch_interval_ms=1000,
                            scalarization=False))
    engine.load_static(parse_triples(STATIC))
    source = StreamSource(engine.schemas["Posts"])
    source.queue_tuples(posts, 0, 1000)
    engine.attach_source(source)
    return engine


def assert_matches_reference(engine, query_text):
    before = engine_state_digest(engine)
    record = engine.oneshot(query_text)
    assert record.interval_path
    assert diff_digests(before, engine_state_digest(engine)) == []
    # Order-insensitive: the oracle joins in history order, the engine
    # in plan order.
    ast = parse_query(query_text)
    expected = reference_rows(ast, dump_history(engine.store),
                              record.snapshot)
    decoded = decode_result(record.result, engine.strings,
                            set(ast.interval_variables()))
    assert sorted(map(repr, decoded)) == sorted(map(repr, expected))


@settings(max_examples=12, deadline=None)
@given(events=st.lists(event_strategy(), max_size=24),
       query_text=query_strategy())
def test_interval_path_matches_reference(events, query_text):
    engine = build_engine(events)
    engine.run_until(7_000)
    assert_matches_reference(engine, query_text)


def kill_during_query_plan(ticks: int) -> FaultPlan:
    """Kill node 1 mid-ingestion for 2 ticks: the interval queries then
    run against the recovered, replayed store."""
    plan = FaultPlan(faults=[KillNode(at_tick=3, node_id=1, down_ticks=2)],
                     name="kill-during-query")
    plan.validate(2, ("Posts",), ticks, ticks_per_checkpoint=1)
    return plan


def build_chaos_engine(events, ticks):
    posts = [TimedTuple(Triple(actor, "po", f"t{post_id}"),
                        batch * 1000 + 500)
             for actor, post_id, batch in sorted(events, key=lambda e: e[2])]
    engine = WukongSEngine(
        schemas=[StreamSchema("Posts")],
        config=EngineConfig(num_nodes=2, batch_interval_ms=1000,
                            scalarization=False, fault_tolerance=True,
                            checkpoint_interval_ms=1000))
    engine.load_static(parse_triples(STATIC))
    source = StreamSource(engine.schemas["Posts"])
    source.queue_tuples(posts, 0, 1000)
    engine.attach_source(source)
    controller = ChaosController(kill_during_query_plan(ticks))
    controller.attach(engine, ticks=ticks)
    for _ in range(ticks):
        engine.step()
    return engine, controller


@settings(max_examples=6, deadline=None)
@given(events=st.lists(event_strategy(), min_size=4, max_size=20),
       query_text=query_strategy())
def test_interval_path_matches_reference_under_kill(events, query_text):
    ticks = 8
    engine, controller = build_chaos_engine(events, ticks)
    # The fault must actually have fired and healed, or this test
    # degenerates into the fault-free case.
    assert controller.first_fault_ms is not None
    assert controller.heal_ms is not None
    assert_matches_reference(engine, query_text)


def test_deep_multi_node_meters_identical():
    """Deep version chains (default LSBench on two nodes: thousands of
    probes, meter totals in the millions of ns) reproduce the pinned
    rows, picosecond charges and traversal counters exactly."""
    with open(PINNED_PATH) as handle:
        pinned = json.load(handle)["deep_interval"]
    assert compute_pinned(["deep_interval"])["deep_interval"] == pinned
