"""The query executors reproduce the pinned simulated charges.

``pinned_charges.json`` records, per case, the projected rows, the exact
picosecond total and per-category breakdown, and (for interval queries)
the version-chain traversal counters; see ``core.pinned_charges`` for
the cases.  Any drift in rows, order or a single picosecond fails.
"""

import json

import pytest

from core.pinned_charges import PINNED_PATH, compute_pinned

GROUPS = ["explorer", "explore", "lsbench", "interval"]


@pytest.fixture(scope="module")
def pinned():
    with open(PINNED_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def computed():
    return compute_pinned(GROUPS)


@pytest.mark.parametrize("group", GROUPS)
def test_charges_match_pinned(computed, pinned, group):
    assert sorted(computed[group]) == sorted(pinned[group])
    drift = [case for case, facts in pinned[group].items()
             if computed[group][case] != facts]
    assert not drift, f"{len(drift)} drifted cases, e.g. {drift[:3]}"
