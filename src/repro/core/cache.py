"""The bounded LRU cache behind every plan, parse and procedure cache.

Cached values are pure functions of their keys (parsed ASTs, compiled
plans), so a cache only ever saves wall-clock work: it never charges
simulated time, and neither its capacity nor its eviction order can
change a result.  The per-shard adjacency-segment cache is separate
(:meth:`repro.store.kvstore.ShardStore.cached_adjacency`): its hits are
validated against the live SN list, and it is the hottest lookup in the
engine.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Optional, TypeVar

V = TypeVar("V")


class BoundedLRU(Generic[V]):
    """A map of at most ``capacity`` entries, least recently used evicted.

    :meth:`get` counts a hit or a miss, and a hit refreshes the entry's
    recency; :meth:`put` inserts (or refreshes) an entry and, once the
    capacity is exceeded, evicts and counts the least recently used one.
    Values must not be None (None is the miss sentinel).
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_entries")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()

    def get(self, key: Hashable) -> Optional[V]:
        """The value cached under ``key``, or None on a miss."""
        entries = self._entries
        value = entries.get(key)
        if value is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: V) -> None:
        """Cache ``value`` under ``key`` as the most recently used entry."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)
