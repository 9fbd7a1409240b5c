"""BoundedLRU: recency, eviction counting, degenerate capacity."""

import pytest

from repro.core.cache import BoundedLRU


def test_hit_refreshes_recency():
    cache = BoundedLRU(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # a is now the most recently used
    cache.put("c", 3)           # so b is the victim
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert (cache.hits, cache.misses, cache.evictions) == (3, 1, 1)


def test_put_of_existing_key_refreshes_without_evicting():
    cache = BoundedLRU(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)
    cache.put("c", 3)
    assert cache.get("a") == 10
    assert cache.get("b") is None
    assert cache.evictions == 1


def test_eviction_counter_counts_every_overflow():
    cache = BoundedLRU(3)
    for i in range(10):
        cache.put(i, str(i))
    assert len(cache) == 3
    assert cache.evictions == 7
    assert [cache.get(i) for i in (7, 8, 9)] == ["7", "8", "9"]


def test_capacity_one():
    cache = BoundedLRU(1)
    cache.put("a", 1)
    assert cache.get("a") == 1
    cache.put("b", 2)
    assert len(cache) == 1
    assert cache.get("a") is None
    assert cache.get("b") == 2
    assert cache.evictions == 1


def test_nonpositive_capacity_rejected():
    with pytest.raises(ValueError):
        BoundedLRU(0)
