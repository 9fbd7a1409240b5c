"""Tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import gc
import json
import os

import pytest

import run
from spans import (PYGC, ROOT, UNTRACED, Span, SpanRecorder, self_times,
                   tail)


def _span(name, start, end, parent):
    span = Span(name, start, parent, 0)
    span.end = end
    return span


class TestTail:
    def test_ten_samples_beyond_the_tail(self):
        values = list(range(100))
        value, pct, n = tail(values)
        assert sum(1 for v in values if v > value) == 10
        assert (value, pct, n) == (89, 90.0, 100)

    def test_unsorted_input(self):
        values = [5.0, 1.0, 3.0] + [0.0] * 8 + [9.0] * 10
        value, _, _ = tail(values)
        assert sum(1 for v in values if v > value) == 10

    def test_needs_eleven_samples(self):
        assert tail([2.0] + [1.0] * 10) == (1.0, 100.0 / 11, 11)
        with pytest.raises(ValueError):
            tail([1.0] * 10)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [_span(ROOT, 0.0, 10.0, -1),
                 _span("a", 1.0, 5.0, 0),
                 _span("b", 2.0, 3.0, 1),
                 _span("b", 6.0, 7.0, 0)]
        assert self_times(spans) == {UNTRACED: 5.0, "a": 3.0, "b": 2.0}

    def test_overlapping_children_are_subtracted_once(self):
        spans = [_span(ROOT, 0.0, 10.0, -1),
                 _span("a", 1.0, 5.0, 0),
                 _span(PYGC, 4.0, 6.0, 0)]
        assert self_times(spans)[UNTRACED] == pytest.approx(5.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [_span(ROOT, 0.0, 4.0, -1),
                 _span("a", 3.0, 6.0, 0)]
        assert self_times(spans)[UNTRACED] == pytest.approx(3.0)

    def test_same_layer_nested_in_itself(self):
        spans = [_span(ROOT, 0.0, 4.0, -1),
                 _span("a", 0.0, 4.0, 0),
                 _span("a", 1.0, 2.0, 1)]
        assert self_times(spans) == {UNTRACED: 0.0, "a": 4.0}


class _Layer:
    def work(self, n):
        garbage = []
        for i in range(n):
            node = [i]
            node.append(node)          # a cycle only the collector frees
            garbage.append(node)
        return garbage

    def outer(self, n):
        return len(self.work(n))


class TestRecorder:
    def test_ledger_sums_to_region(self):
        recorder = SpanRecorder()
        layer = _Layer()
        recorder.wrap(layer, "work", "inner", lambda r, a, k: len(r))
        recorder.wrap(layer, "outer", "outer")
        recorder.watch_gc()
        try:
            root = recorder.begin(ROOT)
            for _ in range(20):
                recorder.new_request()
                layer.outer(2000)
            gc.collect()
            recorder.end(root)
        finally:
            recorder.unwatch_gc()
        ledger = recorder.ledger()
        assert sum(ledger.values()) == pytest.approx(
            recorder.region_seconds(), rel=1e-9)
        assert recorder.calls["inner"] == recorder.calls["outer"] == 20
        assert recorder.items["inner"] == 40000
        assert sum(recorder.gc_collections) >= 1
        assert recorder.gc_collected >= 2000
        assert ledger[PYGC] > 0
        # Every span of one top-level call shares its request id.
        outer = [s for s in recorder.spans if s.name == "outer"]
        assert len({s.request for s in outer}) == 20
        for span in recorder.spans:
            if span.name == "inner":
                assert recorder.spans[span.parent].request == span.request

    def test_wrapper_is_per_instance(self):
        recorder = SpanRecorder()
        traced, plain = _Layer(), _Layer()
        recorder.wrap(traced, "work", "inner")
        root = recorder.begin(ROOT)
        plain.work(3)
        traced.work(3)
        recorder.end(root)
        assert recorder.calls["inner"] == 1

    def test_chrome_trace(self, tmp_path):
        recorder = SpanRecorder()
        root = recorder.begin(ROOT)
        recorder.end(recorder.begin("a"))
        recorder.end(root)
        path = tmp_path / "trace.json"
        recorder.write_chrome(str(path))
        events = json.loads(path.read_text())["traceEvents"]
        assert [e["name"] for e in events] == [ROOT, "a"]
        assert events[1]["args"]["parent"] == 0
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def _bench():
    with open(os.path.join(os.path.dirname(run.HERE),
                           "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_report():
    bench = _bench()
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert run.unit(metric["name"]) == metric["unit"], metric


def test_reference_speed_scales_wall_readings_only():
    readings = {"tick_ms_p50": 10.0, "ingest_tuples_per_s": 100.0,
                "setup_s": 4.0, "sim_close_ms_p50": 1.0, "tick_samples": 5}
    # Taken while the machine ran the reference loop at half speed.
    scaled = run.at_reference_speed(readings, 2 * run.REFERENCE_MS)
    assert scaled == {"tick_ms_p50": 5.0, "ingest_tuples_per_s": 200.0,
                      "setup_s": 2.0, "sim_close_ms_p50": 1.0,
                      "tick_samples": 5}


@pytest.mark.parametrize("traced", [False, True])
def test_runs_report_every_listed_metric(traced):
    bench = _bench()
    if traced:
        result, wanted = run.traced_run("serving_fanout", 3, 1), \
            bench["per_layer"]
        ledger = result["ledger"]
        assert sum(ledger.values()) == pytest.approx(result["region_s"])
    else:
        result, wanted = run.untraced_run("serving_fanout", 3, 1), \
            bench["end_to_end"]
    assert result["mismatches"] == 0 and result["failed"] == 0
    assert result["checked"] > 0
    for metric in wanted:
        assert metric["name"] in result["metrics"], metric


def test_inputs_replay_identically_under_two_hash_seeds(capsys):
    """The engine's simulated results do not depend on PYTHONHASHSEED."""
    assert run.selfcheck("serving_fanout", 7, 1) == 0
    assert "identical" in capsys.readouterr().out
