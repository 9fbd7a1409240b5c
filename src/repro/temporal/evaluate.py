"""Row-based evaluator for SPARQL-T interval (quintuple) queries.

Quintuple patterns need each matched entry's insertion snapshot next to
its value, which the columnar one-shot kernels deliberately do not carry
(their visible-prefix reads drop the SN column).  Interval queries
originally ran *only* here, on this row-based evaluator over
:meth:`DistributedStore.neighbors_versions_from`, precisely to avoid
threading SN columns through a hot batch path before the charge
discipline for doing so was proven.  That caveat is now resolved:
:mod:`repro.temporal.kernels` carries the ``?ts`` column through
batched, version-carrying store reads, and the temporal engine runs
it by default.  This evaluator stays as the differential
control (``use_batch=False``; ``row_path`` in the bench harness) — the
batch path must stay bit-identical to it in rows, simulated charges,
and state digest.

The evaluator reuses the planner's selectivity ordering
(:func:`repro.sparql.planner.plan_steps`) and mirrors the graph
explorer's shape: walk the ordered steps, expand binding rows through
version-carrying neighbour lookups, bind ``?ts`` to the entry's
insertion SN and ``?te`` to :data:`~repro.sparql.ast.OPEN_END` (the
store is append-only, so every visible entry is still live), and prune
with ordinary and interval FILTERs as soon as their variables are bound.

Charges are deterministic simulated time: store probes charge through
the version read (hash probe + visible-prefix scan + remote reads),
each produced binding charges ``binding_ns``, each filter application
``filter_ns``.  Interval queries are a new query family, so these
charges extend the cost model's coverage without touching any existing
golden workload.

Compaction note: bounded scalarization relabels SNs at or below the GC
frontier to the base snapshot, coarsening ``?ts`` for pre-frontier
entries.  Queries whose interval conditions need exact pre-frontier
history must run with scalarization disabled (or a larger
``keep_snapshots``); the snapshot pin taken by the engine guarantees
the frontier cannot move past the read snapshot *mid-query*.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PlanError
from repro.rdf.ids import DIR_IN, DIR_OUT
from repro.sim.cost import LatencyMeter
from repro.sparql.ast import (IntervalFilter, FilterExpr, OPEN_END, Query,
                              is_variable)
from repro.sparql.evaluate import term_number
from repro.sparql.planner import (BOUND_OBJECT, BOUND_SUBJECT, CONST_OBJECT,
                                  CONST_SUBJECT, PlannedStep)

#: One binding row: graph variables map to vids, interval endpoint
#: variables map to snapshot numbers.
Row = Dict[str, int]


def interval_op_holds(op: str, s1: int, e1: int, s2: int, e2: int) -> bool:
    """Whether ``[s1, e1) op [s2, e2)`` holds (half-open semantics).

    ``OVERLAPS``: the intervals share at least one snapshot.
    ``DURING``: the left interval is contained in the right.
    ``BEFORE`` / ``AFTER``: the left ends at-or-before the right starts /
    starts at-or-after the right ends.  ``STARTS``: equal lower endpoints.
    """
    if op == "OVERLAPS":
        return s1 < e2 and s2 < e1
    if op == "DURING":
        return s1 >= s2 and e1 <= e2
    if op == "BEFORE":
        return e1 <= s2
    if op == "AFTER":
        return s1 >= e2
    if op == "STARTS":
        return s1 == s2
    raise PlanError(f"unsupported interval operator: {op}")


def _endpoint(term: str, row: Row) -> int:
    """Resolve one interval-filter endpoint under a row."""
    if is_variable(term):
        value = row.get(term)
        if value is None:
            raise PlanError(f"interval variable never bound: {term}")
        return value
    return int(term)


def interval_filter_matches(ifilter: IntervalFilter, row: Row) -> bool:
    """Whether one row satisfies one interval FILTER."""
    return interval_op_holds(
        ifilter.op,
        _endpoint(ifilter.left_ts, row), _endpoint(ifilter.left_te, row),
        _endpoint(ifilter.right_ts, row), _endpoint(ifilter.right_te, row))


def _plain_filter_matches(expr: FilterExpr, row: Row,
                          interval_vars: Set[str],
                          name_of: Callable[[int], str],
                          resolve: Callable[[str], Optional[int]]) -> bool:
    """Ordinary FILTER semantics extended to interval variables.

    An interval variable's binding *is* its numeric value (a snapshot
    number), where a graph variable's binding is a vid whose entity name
    may parse as a number — same comparison rules as
    :func:`repro.sparql.evaluate.filter_matches` otherwise.
    """
    def operand(term: str) -> Tuple[Optional[int], Optional[str]]:
        if is_variable(term):
            value = row.get(term)
            if value is None:
                raise PlanError(f"filter variable never bound: {term}")
            if term in interval_vars:
                return None, str(value)
            return value, name_of(value)
        return resolve(term), term

    left_vid, left_name = operand(expr.left)
    right_vid, right_name = operand(expr.right)
    if expr.op == "=":
        if left_vid is not None and right_vid is not None:
            return left_vid == right_vid
        return left_name == right_name
    if expr.op == "!=":
        if left_vid is not None and right_vid is not None:
            return left_vid != right_vid
        return left_name != right_name
    left_num = term_number(left_name) if left_name is not None else None
    right_num = term_number(right_name) if right_name is not None else None
    if left_num is None or right_num is None:
        return False  # SPARQL: type errors eliminate the row
    if expr.op == "<":
        return left_num < right_num
    if expr.op == "<=":
        return left_num <= right_num
    if expr.op == ">":
        return left_num > right_num
    return left_num >= right_num


class IntervalCounters:
    """Version-chain traversal statistics of one interval execution."""

    __slots__ = ("snapshot_reads", "version_entries", "max_chain_depth")

    def __init__(self) -> None:
        #: Version-carrying store probes issued (one per key read).
        self.snapshot_reads = 0
        #: Total version-chain entries traversed across all probes.
        self.version_entries = 0
        #: Longest single version chain traversed.
        self.max_chain_depth = 0

    def record(self, entries: int) -> None:
        self.snapshot_reads += 1
        self.version_entries += entries
        if entries > self.max_chain_depth:
            self.max_chain_depth = entries


def evaluate_interval_query(query: Query, steps: Sequence[PlannedStep],
                            store, home_node: int, snapshot: int,
                            meter: LatencyMeter,
                            counters: Optional[IntervalCounters] = None
                            ) -> Tuple[List[str], List[Tuple[int, ...]]]:
    """Run an interval (quintuple) query at a pinned ``snapshot``.

    Returns ``(variables, rows)`` ready for an ``ExecutionResult``:
    the projected columns, graph variables as vids and interval
    variables as snapshot numbers.
    """
    strings = store.strings
    cost = store.cluster.cost
    name_of = strings.entity_name
    resolve = strings.lookup_entity
    if counters is None:
        counters = IntervalCounters()

    interval_vars = set(query.interval_variables())
    plain_filters = list(query.filters)
    interval_filters = list(query.interval_filters)

    def versions(vid: int, eid: int, d: int) -> Tuple[List[int], List[int]]:
        vids, sns = store.neighbors_versions_from(
            home_node, vid, eid, d, meter, max_sn=snapshot,
            category="store")
        counters.record(len(vids))
        return vids, sns

    def prune(rows: List[Row], bound: Set[str]) -> List[Row]:
        """Apply every filter whose variables are now fully bound."""
        nonlocal plain_filters, interval_filters
        ready = [f for f in plain_filters if set(f.variables()) <= bound]
        iready = [f for f in interval_filters
                  if set(f.variables()) <= bound]
        if not ready and not iready:
            return rows
        plain_filters = [f for f in plain_filters if f not in ready]
        interval_filters = [f for f in interval_filters if f not in iready]
        kept: List[Row] = []
        for row in rows:
            meter.charge(cost.filter_ns, times=len(ready) + len(iready),
                         category="filter")
            if all(_plain_filter_matches(f, row, interval_vars,
                                         name_of, resolve) for f in ready) \
                    and all(interval_filter_matches(f, row) for f in iready):
                kept.append(row)
        return kept

    rows: List[Row] = [{}]
    bound: Set[str] = set()
    for step in steps:
        pattern = step.pattern
        eid = strings.lookup_predicate(pattern.predicate)
        if eid is None:
            rows = []
            break
        ts_var, te_var = pattern.ts, pattern.te
        next_rows: List[Row] = []

        def extend(row: Row, anchor_var: Optional[str],
                   anchor_vid: int, other_term: str,
                   vids: List[int], sns: List[int]) -> None:
            """Bind one probe's entries against ``row``."""
            other_is_var = is_variable(other_term)
            other_bound = other_is_var and other_term in row
            if not other_is_var:
                other_vid = resolve(other_term)
                if other_vid is None:
                    return
            elif other_bound:
                other_vid = row[other_term]
            else:
                other_vid = None
            for vid, sn in zip(vids, sns):
                if other_vid is not None and vid != other_vid:
                    continue
                if ts_var is not None and ts_var in row \
                        and row[ts_var] != sn:
                    continue
                if te_var is not None and te_var in row \
                        and row[te_var] != OPEN_END:
                    continue
                new = dict(row)
                if anchor_var is not None:
                    new[anchor_var] = anchor_vid
                if other_vid is None:
                    new[other_term] = vid
                if ts_var is not None:
                    new[ts_var] = sn
                if te_var is not None:
                    new[te_var] = OPEN_END
                meter.charge(cost.binding_ns, category="explore")
                next_rows.append(new)

        if step.kind == CONST_SUBJECT:
            subject_vid = resolve(pattern.subject)
            if subject_vid is not None:
                vids, sns = versions(subject_vid, eid, DIR_OUT)
                for row in rows:
                    extend(row, None, subject_vid, pattern.object,
                           vids, sns)
        elif step.kind == CONST_OBJECT:
            object_vid = resolve(pattern.object)
            if object_vid is not None:
                vids, sns = versions(object_vid, eid, DIR_IN)
                for row in rows:
                    extend(row, None, object_vid, pattern.subject,
                           vids, sns)
        elif step.kind == BOUND_SUBJECT:
            cache: Dict[int, Tuple[List[int], List[int]]] = {}
            for row in rows:
                subject_vid = row[pattern.subject]
                if subject_vid not in cache:
                    cache[subject_vid] = versions(subject_vid, eid, DIR_OUT)
                vids, sns = cache[subject_vid]
                extend(row, None, subject_vid, pattern.object, vids, sns)
        elif step.kind == BOUND_OBJECT:
            cache = {}
            for row in rows:
                object_vid = row[pattern.object]
                if object_vid not in cache:
                    cache[object_vid] = versions(object_vid, eid, DIR_IN)
                vids, sns = cache[object_vid]
                extend(row, None, object_vid, pattern.subject, vids, sns)
        else:  # INDEX_START: enumerate subjects, then expand each
            subjects = store.gather_index(home_node, eid, DIR_OUT, meter,
                                          category="store")
            for subject_vid in subjects:
                vids, sns = versions(subject_vid, eid, DIR_OUT)
                for row in rows:
                    extend(row, pattern.subject, subject_vid,
                           pattern.object, vids, sns)

        rows = next_rows
        bound.update(pattern.variables())
        bound.update(pattern.interval_variables())
        rows = prune(rows, bound)
        if not rows:
            break

    if plain_filters or interval_filters:
        # Every declared variable is bound once all steps ran; leftover
        # filters here mean the row set emptied before their step.
        rows = prune(rows, bound | set(query.variables()))

    out_vars = query.projected()
    seen: Set[Tuple[int, ...]] = set()
    out_rows: List[Tuple[int, ...]] = []
    for row in rows:
        projected = tuple(row[v] for v in out_vars)
        if projected not in seen:
            seen.add(projected)
            out_rows.append(projected)
    offset = query.offset or 0
    if offset:
        out_rows = out_rows[offset:]
    if query.limit is not None:
        out_rows = out_rows[:query.limit]
    return out_vars, out_rows
