"""Wall-clock spans recorded from outside the engine, and the ledger built
from them.

A :class:`SpanRecorder` wraps layer entry points on engine *instances*
(never on classes, so nothing else in the process is affected), keeps
every span in memory and, with :meth:`SpanRecorder.watch_gc`, records
Python's cyclic-GC pauses as ``pygc`` spans through ``gc.callbacks``.
:func:`self_times` turns the spans into per-layer self time: a span's
duration minus the union of its children's intervals.  The root span's
self time is the ``untraced`` remainder, so the ledger's parts sum to the
traced region by construction.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Name of the root span; its self time is reported as ``untraced``.
ROOT = "region"
UNTRACED = "untraced"
PYGC = "pygc"


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest sample with at least ten
    samples above it; the percentile is the share at or below it."""
    n = len(values)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


class Span:
    """One recorded interval: layer name, start/end (perf_counter seconds),
    index of the enclosing span (-1 for the root) and request id."""

    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, parent: int, request: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self seconds.

    A span's self time is its duration minus the union of its children's
    intervals clipped to it, so overlapping children are not subtracted
    twice.  The root span's self time is keyed :data:`UNTRACED`.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        clipped = [(max(s, span.start), min(e, span.end))
                   for s, e in children.get(index, ())
                   if min(e, span.end) > max(s, span.start)]
        own = (span.end - span.start) - _union_length(clipped)
        out[UNTRACED if span.name == ROOT else span.name] += own
    return dict(out)


class SpanRecorder:
    """In-memory span recording with per-layer call and item counts."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self._request = 0
        #: Python GC: collections per generation, objects collected.
        self.gc_collections = [0, 0, 0]
        self.gc_collected = 0
        self._gc_span: Optional[int] = None

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open a span under the innermost open one, in the current
        request (see :meth:`new_request`)."""
        stack = self._stack
        # Allocate before taking the index: a GC pass triggered by the
        # allocation records its own span first.
        span = Span(name, 0.0, stack[-1] if stack else -1, self._request)
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        span.start = span.end = time.perf_counter()
        return index

    def new_request(self) -> None:
        """Spans begun from now on belong to a new request id."""
        self._request += 1

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} ended out of order")

    def wrap(self, obj: object, attr: str, layer: str,
             count: Optional[Callable] = None) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper.

        ``count(result, args, kwargs)`` returns the call's item count.
        """
        inner = getattr(obj, attr)
        begin, end, calls, items = self.begin, self.end, self.calls, \
            self.items

        def traced(*args, **kwargs):
            index = begin(layer)
            try:
                result = inner(*args, **kwargs)
            finally:
                end(index)
            calls[layer] += 1
            if count is not None:
                items[layer] += count(result, args, kwargs)
            return result

        setattr(obj, attr, traced)

    # -- Python GC ---------------------------------------------------------
    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            if self._stack:
                self._gc_span = self.begin(PYGC)
        elif self._gc_span is not None:
            self.end(self._gc_span)
            self._gc_span = None
            self.gc_collections[info["generation"]] += 1
            self.gc_collected += info["collected"]

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- reports -----------------------------------------------------------
    def ledger(self) -> Dict[str, float]:
        return self_times(self.spans)

    def region_seconds(self) -> float:
        return sum(span.end - span.start for span in self.spans
                   if span.name == ROOT)

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON, wall-clock microseconds from the first
        span (open it in Perfetto next to the simulated-time traces)."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [{
            "name": span.name, "cat": "wall", "ph": "X", "pid": 1,
            "tid": 1, "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "args": {"span": index, "parent": span.parent,
                     "request": span.request},
        } for index, span in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
