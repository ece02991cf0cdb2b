"""A small generic thread-safe LRU cache.

Shared by the service-layer answer cache (and available to any other
subsystem that needs bounded memoization).  The SQL plan cache in
:mod:`repro.db.sql.plan_cache` deliberately carries its own copy of
this logic so the db layer never imports upward into :mod:`repro.perf`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    Every operation takes the internal lock, so the cache is safe to
    share across the threads of
    :meth:`repro.api.service.AnswerService.answer_batch`.  Values are
    returned as stored — callers share them, which is safe for the
    immutable/append-only results this codebase caches.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: object = None) -> object:
        with self._lock:
            value = self._items.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._items.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            while len(self._items) > self.capacity:
                self._items.popitem(last=False)
                self.evictions += 1

    def pop_where(self, predicate: Callable[[Hashable, object], bool]) -> int:
        """Drop every entry *predicate* accepts; returns how many."""
        with self._lock:
            doomed = [
                key for key, value in self._items.items() if predicate(key, value)
            ]
            for key in doomed:
                del self._items[key]
            return len(doomed)

    def clear(self) -> int:
        with self._lock:
            count = len(self._items)
            self._items.clear()
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._items

    def keys(self) -> list[Hashable]:
        """A snapshot of the cached keys (newest last)."""
        with self._lock:
            return list(self._items.keys())
