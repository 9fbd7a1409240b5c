"""Calibrated cost model and latency accounting.

The cost model prices every primitive operation that the paper's systems
perform, in simulated nanoseconds.  One single model instance is shared by
Wukong+S and all baselines in a given experiment, so differences in measured
latency come from differences in the *amount of work* each design performs
(number of probes, scans, network reads, cross-system transformations), not
from per-engine fudging of the same operation.

Calibration: the default constants are chosen so that the reproduction's
simulated latencies land in the same regimes the paper reports (Tables 2-5,
9) — sub-millisecond for selective queries on Wukong+S, tens of
milliseconds for the composite design, hundreds of milliseconds to seconds
for CSPARQL-engine and Spark Streaming.  The constants model, respectively:
DRAM hash probes, cache-line scans, one-sided RDMA verbs (~2 us), kernel
TCP/IP round trips (~60 us), per-tuple serialization in JVM streaming
frameworks, and mini-batch scheduler overheads.

Simulated time is integer picoseconds: every price is a whole number of
ps and :class:`LatencyMeter` sums Python ints, so a total never depends on
the order or grouping of its charges.  Charges scaled by a fraction
(contention, straggler slowdown, half round trips) round once, by
:func:`scale_ps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Optional


@dataclass(frozen=True)
class CostModel:
    """Prices (simulated nanoseconds) for primitive operations.

    Every price must be a whole number of picoseconds (``0.02`` ns is
    20 ps; ``0.0005`` ns is rejected with ValueError at construction):
    meters keep integer ps, so simulated time is exact arithmetic.

    Storage primitives
    ------------------
    hash_probe_ns:        one hash-table key lookup in the local store.
    scan_entry_ns:        scanning one entry of a neighbour/value list.
    insert_entry_ns:      appending one entry to a key's value list.
    create_key_ns:        allocating a fresh key/value pair.
    index_probe_ns:       one probe of a stream-index slice.
    binding_ns:           producing or extending one variable binding row
                          during graph exploration.
    timestamp_filter_ns:  checking one inline timestamp (Wukong/Ext path).
    gc_entry_ns:          reclaiming one entry during garbage collection.

    Network primitives
    ------------------
    rdma_read_ns:         base latency of a one-sided RDMA read.
    rdma_byte_ns:         incremental per-byte cost of an RDMA read.
    tcp_rtt_ns:           base round-trip over the 10 GbE fallback network.
    tcp_byte_ns:          incremental per-byte cost over TCP.
    fork_ns:              dispatching one sub-query to a node (fork-join).
    join_gather_ns:       gathering one node's sub-results (fork-join).

    Cross-system / framework overheads (composite + baselines)
    -----------------------------------------------------------
    transform_tuple_ns:   converting one tuple between a stream processor's
                          format and the store's query format.
    storm_tuple_ns:       per-tuple processing overhead inside a Storm bolt
                          (at-a-time model: serialization, queueing, ack).
    storm_execution_ns:   fixed per-window-execution overhead of the Storm
                          topology (trigger + bolt activation), excluding
                          the job scheduler as the paper's setup does.
    heron_tuple_ns:       the same per-tuple cost for Heron (faster).
    heron_execution_ns:   Heron's per-execution overhead.
    csparql_tuple_ns:     per-tuple overhead of the Esper-based window
                          engine inside CSPARQL-engine.
    csparql_base_ns:      fixed per-execution overhead of CSPARQL-engine
                          (query interpretation, Esper/Jena glue).
    jena_probe_ns:        one lookup in the Jena-like triple store.
    join_probe_ns:        one hash-join probe in a relational engine.
    join_build_ns:        inserting one row into a relational hash table.
    spark_task_ns:        fixed per-stage scheduling cost in Spark.
    spark_row_ns:         per-row cost of Spark's whole-table scans.
    structured_task_ns:   fixed per-trigger cost of Structured Streaming.
    structured_row_ns:    per-row cost of scanning the unbounded table.

    Engine bookkeeping
    ------------------
    task_dispatch_ns:     fixed per-query-execution overhead: enqueueing
                          the task, waking a worker, delivering results
                          (the ~0.1 ms floor visible across the paper's
                          latency tables).
    trigger_check_ns:     evaluating the readiness of one continuous query.
    filter_ns:            evaluating one FILTER expression on one row.
    vts_update_ns:        updating one vector-timestamp component.
    sn_publish_ns:        publishing one SN->VTS mapping.
    log_entry_ns:         writing one entry to the local checkpoint log.
    """

    # --- storage ---
    hash_probe_ns: float = 150.0
    scan_entry_ns: float = 3.0
    insert_entry_ns: float = 120.0
    create_key_ns: float = 300.0
    index_probe_ns: float = 100.0
    binding_ns: float = 25.0
    timestamp_filter_ns: float = 8.0
    gc_entry_ns: float = 15.0

    # --- network ---
    rdma_read_ns: float = 1_800.0
    rdma_byte_ns: float = 0.02
    tcp_rtt_ns: float = 60_000.0
    tcp_byte_ns: float = 0.8
    fork_ns: float = 12_000.0
    join_gather_ns: float = 8_000.0

    # --- cross-system / frameworks ---
    transform_tuple_ns: float = 3_000.0
    storm_tuple_ns: float = 2_600.0
    storm_execution_ns: float = 150_000.0
    heron_tuple_ns: float = 1_100.0
    heron_execution_ns: float = 80_000.0
    csparql_tuple_ns: float = 45_000.0
    csparql_base_ns: float = 40_000_000.0
    jena_probe_ns: float = 18_000.0
    join_probe_ns: float = 220.0
    join_build_ns: float = 260.0
    spark_task_ns: float = 45_000_000.0
    spark_row_ns: float = 900.0
    structured_task_ns: float = 80_000_000.0
    structured_row_ns: float = 1_100.0

    # --- engine bookkeeping ---
    task_dispatch_ns: float = 60_000.0
    trigger_check_ns: float = 200.0
    filter_ns: float = 30.0
    vts_update_ns: float = 80.0
    sn_publish_ns: float = 500.0
    log_entry_ns: float = 180.0

    def __post_init__(self) -> None:
        # Rejects any price that is not a whole number of picoseconds, so
        # every charge (and every sum of charges) is exact integer ps, and
        # registers each price so LatencyMeter.charge converts it with one
        # dict probe.
        for spec in fields(self):
            value = getattr(self, spec.name)
            _PS_OF[value] = ns_to_ps(value)
        for name in ("rdma_read", "rdma_byte", "tcp_rtt", "tcp_byte"):
            object.__setattr__(self, f"_{name}_ps",
                               ns_to_ps(getattr(self, f"{name}_ns")))

    def rdma_read_ps(self, nbytes: int) -> int:
        """Exact picoseconds of one one-sided RDMA read of ``nbytes``."""
        return self._rdma_read_ps + self._rdma_byte_ps * max(0, nbytes)

    def tcp_ps(self, nbytes: int) -> int:
        """Exact picoseconds of one TCP round trip carrying ``nbytes``."""
        return self._tcp_rtt_ps + self._tcp_byte_ps * max(0, nbytes)

    def one_way_ps(self, nbytes: int) -> int:
        """Half a TCP round trip carrying ``nbytes`` (see :func:`scale_ps`)."""
        return scale_ps(self.tcp_ps(nbytes), 0.5)

    def rdma_read_cost(self, nbytes: int) -> float:
        """Total cost of one one-sided RDMA read of ``nbytes`` (ns view)."""
        return self.rdma_read_ps(nbytes) / PS_PER_NS

    def tcp_cost(self, nbytes: int) -> float:
        """Total cost of one TCP round trip carrying ``nbytes`` (ns view)."""
        return self.tcp_ps(nbytes) / PS_PER_NS


#: The meter's exact unit: simulated time is kept in integer picoseconds.
PS_PER_NS = 1000

#: Every CostModel price (ns) -> its exact ps, filled at construction.
_PS_OF: Dict[float, int] = {}


def ns_to_ps(ns: float) -> int:
    """``ns`` as an exact whole number of picoseconds.

    Raises ValueError for negative time and for any value that is not a
    whole number of ps (the float nearest ``ps / 1000`` must be ``ns``).
    """
    if ns < 0:
        raise ValueError(f"cannot charge negative time: {ns}")
    ps = round(ns * PS_PER_NS)
    if ps / PS_PER_NS != ns:
        raise ValueError(f"{ns!r} ns is not a whole number of picoseconds")
    return ps


def scale_ps(ps: int, factor: float) -> int:
    """The one rounding rule for scaled charges (contention, stragglers,
    half round trips): ``ps * factor`` computed exactly from the integer
    total and the factor's exact binary value, rounded to the nearest
    picosecond with ties to even.  Never derived from a float view.
    """
    if factor < 0:
        raise ValueError(f"cannot scale time by a negative factor: {factor}")
    num, den = factor.as_integer_ratio()
    quotient, rest = divmod(ps * num, den)
    if 2 * rest > den or (2 * rest == den and quotient & 1):
        quotient += 1
    return quotient


class LatencyMeter:
    """Accumulates simulated time, with optional category breakdown.

    A meter models the critical path of one logical activity (a query, an
    injection, a checkpoint).  Sequential work is added with :meth:`charge`;
    work that proceeds in parallel across nodes or threads is modelled by
    spawning one child meter per branch and folding them back with
    :meth:`join_parallel`, which adds the *maximum* branch time (the
    critical path) to this meter.

    The total and the per-category breakdown are exact Python ints of
    picoseconds; ``ns``/``us``/``ms``/``breakdown_ms`` are float views.

    >>> m = LatencyMeter()
    >>> m.charge(500)
    >>> a, b = m.spawn(), m.spawn()
    >>> a.charge(1_000); b.charge(3_000)
    >>> m.join_parallel([a, b])
    >>> m.ns
    3500.0
    """

    __slots__ = ("_ps", "_breakdown")

    def __init__(self) -> None:
        self._ps = 0
        self._breakdown: Dict[str, int] = {}

    # -- accumulation -------------------------------------------------
    def charge(self, ns: float, times: int = 1, category: Optional[str] = None) -> None:
        """Add ``ns * times`` to the meter, optionally tagged by category."""
        ps = _PS_OF.get(ns)
        if ps is None:
            ps = ns_to_ps(ns)
        if times < 0:
            raise ValueError(f"cannot charge a negative number of times: {times}")
        total = ps * times
        self._ps += total
        if category is not None:
            self._breakdown[category] = self._breakdown.get(category, 0) + total

    def charge_ps(self, ps: int, category: Optional[str] = None) -> None:
        """Add an exact ``ps`` picoseconds (network prices, scaled charges)."""
        if type(ps) is not int or ps < 0:
            raise ValueError(f"charge must be a non-negative int of ps: {ps!r}")
        self._ps += ps
        if category is not None:
            self._breakdown[category] = self._breakdown.get(category, 0) + ps

    def add(self, other: "LatencyMeter") -> None:
        """Fold another meter in sequentially (sum of times)."""
        self._ps += other._ps
        for key, value in other._breakdown.items():
            self._breakdown[key] = self._breakdown.get(key, 0) + value

    def spawn(self) -> "LatencyMeter":
        """Create an empty child meter for one parallel branch."""
        return LatencyMeter()

    def join_parallel(self, branches: Iterable["LatencyMeter"]) -> None:
        """Fold parallel branches in: elapsed time grows by the slowest branch.

        The category breakdown of the *slowest* branch (the first one on
        an exact tie) is merged, since the breakdown documents the
        critical path.
        """
        slowest: Optional[LatencyMeter] = None
        for branch in branches:
            if slowest is None or branch._ps > slowest._ps:
                slowest = branch
        if slowest is not None:
            self.add(slowest)

    # -- inspection ---------------------------------------------------
    @property
    def ps(self) -> int:
        """Elapsed simulated picoseconds (exact)."""
        return self._ps

    @property
    def ns(self) -> float:
        """Elapsed simulated nanoseconds."""
        return self._ps / PS_PER_NS

    @property
    def us(self) -> float:
        """Elapsed simulated microseconds."""
        return self._ps / 1_000_000

    @property
    def ms(self) -> float:
        """Elapsed simulated milliseconds."""
        return self._ps / 1_000_000_000

    @property
    def breakdown_ms(self) -> Dict[str, float]:
        """Per-category elapsed milliseconds (categories passed to charge)."""
        return {key: value / 1_000_000_000
                for key, value in self._breakdown.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyMeter(ms={self.ms:.4f})"


class ChargeSet:
    """Accumulates charges for one activity, flushed aggregated at the end.

    A ``ChargeSet`` quacks like a :class:`LatencyMeter` for charging (it
    exposes the same ``charge(ns, times=1, category=None)`` shape), so it
    can be handed to store primitives in place of a meter inside a hot
    loop.  It merely counts occurrences per ``(ns, category)`` pair;
    :meth:`flush` then issues one aggregated ``meter.charge`` per pair,
    cutting the Python-level overhead from one meter call per store entry
    to one per distinct price.  Meters sum exact integer picoseconds, so
    when (and in which order) a set is flushed never changes the total.
    """

    __slots__ = ("_acc",)

    def __init__(self) -> None:
        self._acc: Dict = {}

    def charge(self, ns: float, times: int = 1,
               category: Optional[str] = None) -> None:
        key = (ns, category)
        self._acc[key] = self._acc.get(key, 0) + times

    def flush(self, meter: LatencyMeter) -> None:
        """Emit one aggregated charge per distinct (ns, category) pair."""
        for (ns, category), times in self._acc.items():
            meter.charge(ns, times=times, category=category)
        self._acc.clear()


@dataclass
class MemoryModel:
    """Prices (bytes) for the memory-accounting experiments (Table 7, §6.7).

    entry_bytes:       one vid entry in a persistent-store value list.
    key_bytes:         one key (vid|eid|d, 64-bit packed) plus bucket slot.
    index_key_bytes:   one stream-index slice entry key (packed 64-bit,
                       open-addressed: no bucket overhead).
    fat_pointer_bytes: the paper's 96-bit fat pointer (address + size)
                       used by stream-index entries, rounded to 12 bytes.
    timestamp_bytes:   one stored timestamp (Wukong/Ext inline path).
    tuple_bytes:       one raw stream tuple (triple + timestamp) in wire
                       form (RDF terms are strings on the wire).
    sn_segment_bytes:  per-key bookkeeping for one snapshot segment.
    """

    entry_bytes: int = 8
    key_bytes: int = 16
    index_key_bytes: int = 8
    fat_pointer_bytes: int = 12
    timestamp_bytes: int = 8
    tuple_bytes: int = 64
    sn_segment_bytes: int = 16

    extras: Dict[str, int] = field(default_factory=dict)
