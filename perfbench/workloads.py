"""The three benchmark workloads: seed-pure inputs and a closed-loop driver.

Each workload is a pure function of its seed (given the hash seed the
runner pins, see ``run.py``): :func:`generate` returns plain data, and
:func:`build` turns that data into a loaded engine.  :class:`Driver`
then plays the inputs on their simulated ticks: one caller calls
``step()`` / ``ServingLayer.tick()`` / ``oneshot()`` and waits for each
call, while stream tuples and serving submissions are due on their tick
whatever the engine's speed.

Why each workload exists (see README.md for the full table):

* ``stream_windows`` -- bulk load, the injection path and window closes
  do the work; the one-shot, temporal and serving layers stay idle.
* ``reads_under_ingest`` -- one-shot and SPARQL-T reads while ingestion
  lengthens version chains; no continuous queries, so closes stay idle.
* ``serving_fanout`` -- 1024 subscriptions deduped onto ~19 backing
  queries plus one-shot traffic one tenant oversubscribes, so the
  serving registry, fan-out and fair scheduler dominate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.lsbench import LSBench, LSBenchConfig
from repro.core.engine import EngineConfig, WukongSEngine
from repro.errors import ReproError
from repro.rdf.terms import TimedTuple, Triple
from repro.serving import AdmissionPolicy, ServingLayer
from repro.streams.source import StreamSource

BATCH_INTERVAL_MS = 100
NUM_NODES = 2

#: Simulated ticks (100 ms each) a run plays per second of ``--seconds``;
#: calibrated so the timed ticks take about ``--seconds`` on a 2-core x86
#: VM.  Fixing the tick count (not the wall time) keeps the simulated
#: metrics exact and gives a faster engine the same work, not more of it.
TICKS_PER_SECOND = {
    "stream_windows": 16,
    "reads_under_ingest": 12,
    "serving_fanout": 70,
}

#: serving_fanout shape.
SUBSCRIPTIONS = 1024
TENANTS = 8
#: One-shot slots the fair scheduler grants per tick; every tenant sends
#: one request a tick and tenant0 also sends a burst every BURST_EVERY
#: ticks, so tenant0 queues for a few ticks while the others do not.
SLOTS_PER_TICK = 12
BURST = 12
BURST_EVERY = 4

#: Step of the start-user rotation; prime, so it visits every user of
#: each LSBench scale before repeating one.
USER_STRIDE = 37

WORKLOADS = ("stream_windows", "reads_under_ingest", "serving_fanout")


@dataclass
class Inputs:
    """Everything a workload feeds the engine, as plain picklable data."""

    lsbench: LSBenchConfig
    scalarization: bool
    static: List[Triple]
    streams: Dict[str, List[TimedTuple]]
    #: Continuous registrations made directly on the engine.
    continuous: List[Tuple[str, str]] = field(default_factory=list)
    #: serving_fanout: (tenant, continuous query text) subscriptions.
    subscriptions: List[Tuple[str, str]] = field(default_factory=list)
    #: Per tick, the calls due on it: ``(tenant, text)`` for serving
    #: submissions, ``("", text)`` for direct one-shots, and
    #: ``("T2", str(width))`` for a T2 over the latest ``width`` SNs.
    calls: List[List[Tuple[str, str]]] = field(default_factory=list)


def generate(workload: str, seed: int, ticks: int) -> Inputs:
    """The inputs of ``workload`` for ``seed``, ``ticks`` ticks long."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload: {workload}")
    if workload == "stream_windows":
        config = LSBenchConfig.large()
        config.rate_scale = 0.1
    elif workload == "reads_under_ingest":
        config = LSBenchConfig.small()
    else:
        # A quarter of the default rate keeps engine work small next to
        # serving work on the 120-user graph, where every stream tuple
        # lands on a few users' adjacency lists.
        config = LSBenchConfig.tiny()
        config.rate_scale = 0.01
    config.seed = seed
    bench = LSBench(config)
    inputs = Inputs(
        lsbench=config,
        scalarization=workload != "reads_under_ingest",
        static=bench.static_triples(),
        streams=bench.generate_streams(ticks * BATCH_INTERVAL_MS))
    # The seed drives the generated data only.  The query schedule is the
    # same for every seed, so runs with different seeds do the same kind
    # of work and their spread is noise, not a different query mix.
    def user(k: int) -> int:
        """The k-th user of a fixed rotation over all users."""
        return k * USER_STRIDE % config.num_users

    if workload == "stream_windows":
        inputs.continuous = [(name, bench.continuous_query(name))
                             for name in ("L1", "L2", "L3", "L4", "L5",
                                          "L6")]
        # Group-I starts stay selective: nine quiet (mid- and deep-tail)
        # users for L1, and L3 on the other first stream posts.
        for k in range(9):
            quiet = config.num_users // 4 + k * config.num_users // 12
            inputs.continuous.append(
                (f"L1_{quiet}",
                 bench.continuous_query("L1", start_user=quiet)))
        for post in range(3):
            inputs.continuous.append(
                (f"L3_{post}", bench.continuous_query("L3", start_user=post)))
        inputs.calls = [[] for _ in range(ticks)]
    elif workload == "reads_under_ingest":
        for tick in range(ticks):
            due = [("", bench.oneshot_query("S1")),
                   ("", bench.oneshot_query("S2", start_user=user(4 * tick))),
                   ("", bench.oneshot_query("S3",
                                            start_user=user(4 * tick + 1))),
                   ("", bench.oneshot_query("S5",
                                            start_user=user(4 * tick + 2))),
                   # S4 on the last tick, so the output check samples it.
                   ("", bench.oneshot_query(
                       "S6" if (ticks - tick) % 2 == 0 else "S4")),
                   ("T2", "4"),
                   ("", bench.temporal_query(
                       "T4", start_user=user(4 * tick + 3)))]
            inputs.calls.append(due)
    else:
        tenants = [f"tenant{i}" for i in range(TENANTS)]
        for i in range(SUBSCRIPTIONS):
            inputs.subscriptions.append((
                tenants[i % TENANTS],
                bench.continuous_query(f"L{1 + i % 4}",
                                       start_user=(i // 4) % 13,
                                       range_ms=600, step_ms=300)))
        for tick in range(ticks):
            due = []
            for j, tenant in enumerate(tenants):
                due.append((tenant, bench.oneshot_query(
                    f"S{1 + (tick + j) % 3}", start_user=user(tick + j))))
            if tick % BURST_EVERY == 0:
                for j in range(BURST):
                    due.append((tenants[0], bench.oneshot_query(
                        ("S2", "S3", "S5")[j % 3],
                        start_user=user(tick * BURST + j))))
            inputs.calls.append(due)
    return inputs


@dataclass
class Session:
    """A loaded engine (and serving layer) ready for the first tick."""

    inputs: Inputs
    engine: WukongSEngine
    serving: Optional[ServingLayer] = None
    subscriptions: list = field(default_factory=list)
    #: (query text, handle) of every engine-side continuous registration:
    #: the direct ones, or one per shared serving backing query.
    watched: list = field(default_factory=list)


def build(inputs: Inputs,
          instrument: Optional[Callable[[WukongSEngine,
                                         Optional[ServingLayer]],
                                        None]] = None) -> Session:
    """Load ``inputs`` into a fresh engine.

    ``instrument(engine, serving)`` runs right after construction, before
    any data is loaded, so wrappers it installs see the bulk load.
    """
    bench = LSBench(inputs.lsbench)
    engine = WukongSEngine(
        schemas=bench.schemas(),
        config=EngineConfig(num_nodes=NUM_NODES,
                            batch_interval_ms=BATCH_INTERVAL_MS,
                            scalarization=inputs.scalarization))
    serving = None
    if inputs.subscriptions:
        serving = ServingLayer(engine, policy=AdmissionPolicy(
            oneshot_slots_per_tick=SLOTS_PER_TICK))
    if instrument is not None:
        instrument(engine, serving)
    engine.load_static(inputs.static)
    for name, tuples in inputs.streams.items():
        source = StreamSource(engine.schemas[name])
        source.queue_tuples(tuples, 0, BATCH_INTERVAL_MS)
        engine.attach_source(source)
    session = Session(inputs=inputs, engine=engine, serving=serving)
    for name, text in inputs.continuous:
        session.watched.append(
            (text, engine.register_continuous(text, name=name)))
    backing = {}
    for tenant, text in inputs.subscriptions:
        subscription = serving.register(tenant, text)
        session.subscriptions.append(subscription)
        backing.setdefault(subscription.shared_name,
                           (text, subscription.entry.handle))
    session.watched.extend(backing.values())
    return session


def t2_text(bench: LSBench, stable_sn: int, width: int) -> str:
    """T2 over the ``width`` most recent stable snapshots."""
    return bench.temporal_query("T2", ts_from=max(1, stable_sn - width + 1),
                                ts_to=stable_sn + 1)


class Driver:
    """Plays a session's ticks in a closed loop and records every call.

    Wall times of ``step()`` / ``tick()`` land in :attr:`tick_s` and of
    ``oneshot()`` in :attr:`query_s`; simulated one-shot latencies in
    :attr:`query_sim_ms`.  Results are not retained (S6 answers run to
    hundreds of thousands of rows), except the last tick's queries and
    the closes of the last tick with any, which the output check samples;
    ``observe(text, record)`` sees every one-shot result as it arrives,
    and ``between_ticks()`` runs after every tick.  Typed errors are
    counted, never raised.
    """

    def __init__(self, session: Session,
                 new_request: Optional[Callable[[], None]] = None,
                 observe: Optional[Callable] = None,
                 between_ticks: Optional[Callable[[], None]] = None):
        self.session = session
        self.bench = LSBench(session.inputs.lsbench)
        self._new_request = new_request
        self._observe = observe
        self._between_ticks = between_ticks
        self.tick_s: List[float] = []
        self.query_s: List[float] = []
        self.query_sim_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        #: Interval (SPARQL-T) executions: rows returned and version
        #: entries scanned for them.
        self.temporal_rows = 0
        self.temporal_entries = 0
        self.last_tick_queries: list = []
        #: Closes of the last tick that had any, and the stable SN
        #: they read the stored graph at.
        self.last_tick_closes: list = []
        self.closes_sn = 0

    def _call(self, fn, *args):
        if self._new_request is not None:
            self._new_request()
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except ReproError:
            self.failed += 1
            result = None
        return time.perf_counter() - start, result

    def _oneshots(self, due) -> None:
        engine = self.session.engine
        self.last_tick_queries = []
        for kind, text in due:
            if kind == "T2":
                text = t2_text(self.bench, engine.coordinator.stable_sn,
                               int(text))
            elapsed, record = self._call(engine.oneshot, text)
            self.query_s.append(elapsed)
            if record is None:
                continue
            self.query_sim_ms.append(record.meter.ms)
            if getattr(record, "interval_path", False):
                self.temporal_rows += record.row_count
                self.temporal_entries += record.version_entries
            if self._observe is not None:
                self._observe(text, record)
            self.last_tick_queries.append((text, record))

    def run(self) -> None:
        session = self.session
        engine, serving = session.engine, session.serving
        seen = [0] * len(session.watched)
        for due in session.inputs.calls:
            if serving is None:
                elapsed, _ = self._call(engine.step)
                self.tick_s.append(elapsed)
                self._oneshots(due)
            else:
                for tenant, text in due:
                    self._call(serving.submit, tenant, text)
                elapsed, served = self._call(serving.tick)
                self.tick_s.append(elapsed)
                for one in served or ():
                    self.query_sim_ms.append(one.latency_ms)
                    if self._observe is not None:
                        self._observe(one.request.text, one)
            fresh = [(text, record)
                     for (text, handle), count in zip(session.watched, seen)
                     for record in handle.executions[count:]]
            if fresh:
                self.last_tick_closes = fresh
                self.closes_sn = engine.coordinator.stable_sn
                seen = [len(handle.executions)
                        for _, handle in session.watched]
            if self._between_ticks is not None:
                self._between_ticks()

    def closes(self) -> list:
        """Every window close of the run (all happen inside it)."""
        return [record for _, handle in self.session.watched
                for record in handle.executions]
