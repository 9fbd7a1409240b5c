"""Tests for the cost model and latency meter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cost import (ChargeSet, CostModel, LatencyMeter, MemoryModel,
                            scale_ps)


class TestCostModel:
    def test_rdma_read_cost_includes_bytes(self):
        cost = CostModel(rdma_read_ns=1000.0, rdma_byte_ns=0.5)
        assert cost.rdma_read_cost(100) == 1000.0 + 50.0

    def test_tcp_cost_includes_bytes(self):
        cost = CostModel(tcp_rtt_ns=50_000.0, tcp_byte_ns=1.0)
        assert cost.tcp_cost(200) == 50_200.0

    def test_negative_bytes_clamped(self):
        cost = CostModel()
        assert cost.rdma_read_cost(-10) == cost.rdma_read_ns
        assert cost.tcp_cost(-10) == cost.tcp_rtt_ns

    def test_rdma_is_cheaper_than_tcp_by_default(self):
        cost = CostModel()
        assert cost.rdma_read_cost(1024) < cost.tcp_cost(1024)


class TestLatencyMeter:
    def test_starts_empty(self):
        meter = LatencyMeter()
        assert meter.ns == 0.0
        assert meter.ms == 0.0

    def test_charge_accumulates(self):
        meter = LatencyMeter()
        meter.charge(500)
        meter.charge(250, times=2)
        assert meter.ns == 1000.0
        assert meter.us == 1.0

    def test_charge_rejects_negative(self):
        meter = LatencyMeter()
        with pytest.raises(ValueError):
            meter.charge(-1)
        with pytest.raises(ValueError):
            meter.charge(1, times=-1)

    def test_category_breakdown(self):
        meter = LatencyMeter()
        meter.charge(1_000_000, category="store")
        meter.charge(2_000_000, category="network")
        meter.charge(500_000, category="store")
        breakdown = meter.breakdown_ms
        assert breakdown["store"] == pytest.approx(1.5)
        assert breakdown["network"] == pytest.approx(2.0)

    def test_add_is_sequential(self):
        a, b = LatencyMeter(), LatencyMeter()
        a.charge(100, category="x")
        b.charge(200, category="x")
        a.add(b)
        assert a.ns == 300.0
        assert a.breakdown_ms["x"] == pytest.approx(300 / 1e6)

    def test_join_parallel_takes_max(self):
        meter = LatencyMeter()
        meter.charge(500)
        fast, slow = meter.spawn(), meter.spawn()
        fast.charge(1_000)
        slow.charge(3_000)
        meter.join_parallel([fast, slow])
        assert meter.ns == 3_500.0

    def test_join_parallel_merges_slowest_breakdown(self):
        meter = LatencyMeter()
        fast, slow = meter.spawn(), meter.spawn()
        fast.charge(1, category="fast-work")
        slow.charge(100, category="slow-work")
        meter.join_parallel([fast, slow])
        assert "slow-work" in meter.breakdown_ms
        assert "fast-work" not in meter.breakdown_ms

    def test_join_parallel_empty_is_noop(self):
        meter = LatencyMeter()
        meter.charge(10)
        meter.join_parallel([])
        assert meter.ns == 10.0


class TestExactPicoseconds:
    def test_meter_accumulates_int_picoseconds(self):
        meter = LatencyMeter()
        meter.charge(CostModel().rdma_read_cost(3), category="network")
        meter.charge(150.0, times=2, category="store")
        assert meter.ps == 1_800_060 + 300_000
        assert type(meter.ps) is int
        assert all(type(v) is int for v in meter._breakdown.values())

    def test_fractional_picosecond_price_rejected(self):
        with pytest.raises(ValueError):
            CostModel(rdma_byte_ns=0.0005)
        with pytest.raises(ValueError):
            CostModel(hash_probe_ns=150.0001)
        with pytest.raises(ValueError):
            LatencyMeter().charge(0.0005)

    def test_charge_ps_rejects_negative_and_non_int(self):
        meter = LatencyMeter()
        with pytest.raises(ValueError):
            meter.charge_ps(-1)
        with pytest.raises(ValueError):
            meter.charge_ps(1.5)

    def test_scale_ps_rounds_half_to_even(self):
        assert scale_ps(5, 0.5) == 2
        assert scale_ps(7, 0.5) == 4
        assert scale_ps(3, 0.25) == 1
        assert scale_ps(1, 0.25) == 0
        # The factor's exact binary value: 0.05 is a hair above 1/20, so
        # 10 * 0.05 is just over one half and rounds up.
        assert scale_ps(10, 0.05) == 1
        assert scale_ps(30, 0.05) == 2
        with pytest.raises(ValueError):
            scale_ps(10, -0.5)


#: Integer-valued default prices mixed into the random charge sequences.
_INT_PRICES = ("hash_probe_ns", "scan_entry_ns", "binding_ns",
               "index_probe_ns", "filter_ns", "task_dispatch_ns")

_charge_lists = st.lists(
    st.tuples(st.sampled_from(("int", "rdma", "tcp", "half")),
              st.integers(0, 5000),
              st.sampled_from(("store", "network", "explore", None))),
    max_size=60)


def _expanded(raw):
    """``(ns, times, category, expected_ps)`` for each raw charge."""
    cost = CostModel()
    out = []
    for kind, n, category in raw:
        if kind == "int":
            name = _INT_PRICES[n % len(_INT_PRICES)]
            ns = getattr(cost, name)
            out.append((ns, n % 7, category, int(ns) * 1000 * (n % 7)))
        elif kind == "rdma":
            out.append((cost.rdma_read_cost(n), 1, category,
                        1_800_000 + 20 * n))
        elif kind == "tcp":
            out.append((cost.tcp_cost(n), 1, category, 60_000_000 + 800 * n))
        else:
            out.append((cost.tcp_cost(n) / 2, 1, category,
                        30_000_000 + 400 * n))
    return out


def _expected(charges):
    total = sum(c[3] for c in charges)
    breakdown = {}
    for _, _, category, ps in charges:
        if category is not None:
            breakdown[category] = breakdown.get(category, 0) + ps
    return total, breakdown


def _charged(charges, meter=None):
    meter = meter if meter is not None else LatencyMeter()
    for ns, times, category, _ in charges:
        meter.charge(ns, times=times, category=category)
    return meter


class TestChargeOrderIndependence:
    @settings(max_examples=200, deadline=None)
    @given(raw=_charge_lists, data=st.data())
    def test_any_order_or_grouping_gives_the_same_total(self, raw, data):
        charges = _expanded(raw)
        total, breakdown = _expected(charges)
        in_order = _charged(charges)
        shuffled = _charged(data.draw(st.permutations(charges)))
        aggregated = LatencyMeter()
        charge_set = ChargeSet()
        for ns, times, category, _ in charges:
            charge_set.charge(ns, times=times, category=category)
        charge_set.flush(aggregated)
        cut = data.draw(st.integers(0, len(charges)))
        grouped = _charged(charges[:cut])
        grouped.add(_charged(charges[cut:]))
        for meter in (in_order, shuffled, aggregated, grouped):
            assert meter.ps == total
            assert type(meter.ps) is int
            assert meter._breakdown == breakdown
            assert meter.ns == total / 1000

    @settings(max_examples=100, deadline=None)
    @given(raw=_charge_lists, data=st.data())
    def test_join_parallel_exact_tie_picks_the_first_branch(self, raw,
                                                            data):
        charges = _expanded(raw)
        first = _charged(charges)
        first.charge(0, category="first")
        second = _charged(data.draw(st.permutations(charges)))
        second.charge(0, category="second")
        assert first.ps == second.ps
        meter = LatencyMeter()
        meter.join_parallel([first, second])
        assert meter.ps == first.ps
        assert "first" in meter._breakdown
        assert "second" not in meter._breakdown

    def test_join_parallel_tie_across_price_kinds(self):
        cost = CostModel()
        rdma, flat = LatencyMeter(), LatencyMeter()
        rdma.charge(cost.rdma_read_cost(1000), category="rdma")
        flat.charge(1820, category="flat")
        for branches, winner in (([rdma, flat], "rdma"),
                                 ([flat, rdma], "flat")):
            meter = LatencyMeter()
            meter.join_parallel(branches)
            assert meter.ps == 1_820_000
            assert list(meter._breakdown) == [winner]


class TestMemoryModel:
    def test_defaults_are_positive(self):
        model = MemoryModel()
        assert model.entry_bytes > 0
        assert model.fat_pointer_bytes > 0
        assert model.tuple_bytes > model.entry_bytes
