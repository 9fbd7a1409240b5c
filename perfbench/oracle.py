"""Output checks, run after the timed region against the independent
evaluators already in the repository; none of them runs the engine's
planner or executor.

* The last tick's S queries, and the closes of the last tick that had
  any: the C-SPARQL baseline
  (:class:`repro.baselines.csparql_engine.CSparqlEngine`) loaded from the
  benchmark's own inputs -- the static triples plus every timeless stream
  tuple whose batch the close's snapshot covers.
* The last tick's temporal (T) queries: the brute-force SPARQL-T
  reference (:mod:`repro.temporal.reference`) over the store's history.
* serving_fanout: every subscriber's deliveries against its backing
  query's executions.

Each check returns ``(checked, mismatches)``; every mismatch counts into
``fail_ratio``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Set, Tuple

from repro.baselines.csparql_engine import CSparqlEngine
from repro.sparql.parser import parse_query
from repro.streams.stream import batch_tuples
from repro.temporal.reference import (decode_result, dump_history,
                                      reference_rows)

from workloads import BATCH_INTERVAL_MS, Driver, Session


def _names(strings, rows) -> Set[tuple]:
    return {tuple(strings.entity_name(v) if isinstance(v, int) and v > 0
                  else None for v in row) for row in rows}


def _baseline(session: Session, snapshot: int) -> CSparqlEngine:
    """The C-SPARQL baseline holding what ``snapshot`` makes visible."""
    engine = session.engine
    coordinator = engine.coordinator
    baseline = CSparqlEngine()
    visible = list(session.inputs.static)
    for name, tuples in session.inputs.streams.items():
        schema = engine.schemas[name]
        for batch in batch_tuples(name, tuples, 0, BATCH_INTERVAL_MS):
            if batch.end_ms > engine.clock.now_ms:
                break
            baseline.ingest(batch)
            sn = coordinator.sn_for_batch(name, batch.batch_no)
            if sn is not None and sn <= snapshot:
                visible.extend(t.triple for t in batch.tuples
                               if not schema.is_timing(t.triple.predicate))
    baseline.load_static(visible)
    return baseline


def check_last_tick(driver: Driver) -> Tuple[int, int]:
    """Compare the last tick's closes and one-shots with the evaluators."""
    session = driver.session
    engine = session.engine
    checked = mismatches = 0
    stable = driver.closes_sn
    # S6's answer grows to ~600k rows, more than the brute-force
    # baseline can join within the run's memory; S4, which the last tick
    # runs instead, takes the same index-start join path.
    too_large = driver.bench.oneshot_query("S6")
    plain = [(text, record) for text, record in driver.last_tick_queries
             if not parse_query(text).is_temporal and text != too_large]
    snapshots = {record.snapshot for _, record in plain}
    if driver.last_tick_closes:
        snapshots.add(stable)
    baselines = {sn: _baseline(session, sn) for sn in snapshots}
    for text, record in driver.last_tick_closes:
        baseline = baselines[stable]
        rows, _ = baseline.execute_continuous(parse_query(text),
                                              record.close_ms)
        checked += 1
        if _names(baseline.strings, rows) != \
                _names(engine.strings, record.result.rows):
            mismatches += 1
    for text, record in plain:
        baseline = baselines[record.snapshot]
        rows, _ = baseline.execute_oneshot(parse_query(text))
        checked += 1
        if _names(baseline.strings, rows) != \
                _names(engine.strings, record.result.rows):
            mismatches += 1
    history = None
    for text, record in driver.last_tick_queries:
        query = parse_query(text)
        if not query.is_temporal:
            continue
        if history is None:
            history = dump_history(engine.store)
        interval_vars = {v for p in query.patterns for v in (p.ts, p.te)
                         if v is not None}
        expected = set(reference_rows(query, history, record.snapshot))
        got = set(decode_result(record.result, engine.strings,
                                interval_vars))
        checked += 1
        if expected != got:
            mismatches += 1
    return checked, mismatches


def check_deliveries(session: Session) -> Tuple[int, int]:
    """Each subscriber received exactly its backing query's executions."""
    if session.serving is None:
        return 0, 0
    strings = session.engine.strings
    expected: Dict[int, List[Set[tuple]]] = {}
    checked = mismatches = 0
    for subscription in session.subscriptions:
        handle = subscription.entry.handle
        want = expected.get(id(handle))
        if want is None:
            want = expected[id(handle)] = [
                _names(strings, record.result.rows)
                for record in handle.executions]
        got = [set(result.rows) for result in subscription.poll()]
        checked += 1
        if got != want:
            mismatches += 1
    return checked, mismatches


class Digest:
    """Digest of every simulated latency and decoded result of a run:
    pass it as the driver's ``observe`` hook, then call :meth:`finish`."""

    def __init__(self, strings):
        self._strings = strings
        self._hash = hashlib.sha256()

    def _rows(self, rows) -> list:
        return sorted(_names(self._strings, rows), key=repr)

    def __call__(self, text: str, record) -> None:
        if hasattr(record, "latency_ns"):   # a served one-shot
            item = (record.request.tenant, text, record.latency_ns,
                    sorted(record.result.rows, key=repr))
        else:
            item = (text, record.meter.ns, record.snapshot,
                    self._rows(record.result.rows))
        self._hash.update(repr(item).encode())

    def finish(self, driver: Driver) -> str:
        for text, handle in driver.session.watched:
            for record in handle.executions:
                self._hash.update(repr((text, record.close_ms,
                                        record.meter.ns,
                                        self._rows(record.result.rows))
                                       ).encode())
        return self._hash.hexdigest()
