"""Property test: plan sharing is answer-preserving, differentially.

For any mix of subscriptions — templates, parameter bindings, copy
counts — running the workload with common-subplan sharing on must be
indistinguishable, subscriber by subscriber, from running it with every
subscription backed by its own private registration:

* identical decoded results per subscriber (rows, columns, latencies,
  snapshots),
* identical execution meters (total ns and per-category breakdown) on
  every backing execution, and
* an identical engine state digest (data plane: shards, stream indexes,
  transients, coordinator) — the backing-registration bookkeeping is
  excluded, since N private queries vs the deduped shared set is exactly
  the difference sharing is *supposed* to make.

Sharing must be a pure evaluation-cost optimization with no observable
effect.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.state import diff_digests, engine_state_digest
from serving.serving_workload import build_serving, window_query

pytestmark = pytest.mark.serving

DURATION_MS = 800

#: One subscription group: (template, parameter binding, copies).
subscription_groups = st.lists(
    st.tuples(st.sampled_from(("L1", "L2", "L3", "L4")),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=1, max_value=3)),
    min_size=1, max_size=5)


def run_workload(groups, sharing):
    bench, serving = build_serving(num_nodes=1, sharing=sharing,
                                   duration_ms=DURATION_MS)
    subscriptions = []
    for template, start_user, copies in groups:
        text = window_query(bench, template, start_user=start_user)
        for copy in range(copies):
            subscriptions.append(serving.register(f"tenant{copy}", text))
    serving.run_until(DURATION_MS)
    return serving, subscriptions


def subscriber_facts(subscription):
    return [(r.columns, r.rows, r.server_latency_ms, r.client_latency_ms,
             r.snapshot) for r in subscription.poll()]


def execution_meter_facts(subscription):
    return [(rec.close_ms, rec.meter.ns,
             dict(sorted(rec.meter.breakdown_ms.items())))
            for rec in subscription.entry.handle.executions]


def data_plane_digest(engine):
    digest = engine_state_digest(engine)
    # The backing registrations legitimately differ between the runs
    # (shared entries vs one per subscription); everything that
    # determines query answers must not.
    digest.pop("queries")
    return digest


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(groups=subscription_groups)
def test_shared_and_unshared_serving_are_indistinguishable(groups):
    shared, shared_subs = run_workload(groups, sharing=True)
    unshared, unshared_subs = run_workload(groups, sharing=False)

    # The runs must actually differ in evaluation work whenever a plan
    # has more than one subscriber, or the differential proves nothing.
    copies = sum(c for _, _, c in groups)
    assert unshared.registry.num_shared == copies
    assert shared.registry.num_shared <= copies
    if any(c > 1 for _, _, c in groups):
        assert shared.executions_saved > 0

    delivered = 0
    for ours, theirs in zip(shared_subs, unshared_subs):
        results = subscriber_facts(ours)
        assert results == subscriber_facts(theirs)
        assert execution_meter_facts(ours) == execution_meter_facts(theirs)
        delivered += len(results)
    # Both layers account for the same delivered-result volume.
    assert delivered == shared.results_delivered == \
        unshared.results_delivered
    assert diff_digests(data_plane_digest(shared.engine),
                        data_plane_digest(unshared.engine)) == []
