"""One bounded, thread-safe least-recently-used map.

Every bounded cache in the package — subfile byte ranges, restored
levels, decoded geometry, decimation plans, kept request traces, the
query planner's resolution memo — is an :class:`LRU`; they differ only in
what an entry weighs (bytes, fine-level vertices, or 1 per entry) and in
the budget. A leaf module: it imports nothing from ``repro``, so
``repro.obs`` can use it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

__all__ = ["LRU"]


class LRU:
    """Map of at most ``budget`` total weight; evicts the least recent.

    ``weigh(value)`` is an entry's weight, taken once on :meth:`put`
    (1 by default, so ``budget`` counts entries). :meth:`put` never
    evicts the entry it inserts, so one entry heavier than the whole
    budget stays resident alone until the next insert; callers that
    must refuse such an entry check before they put.

    ``hits``/``misses`` are counted by :meth:`get` under the same lock
    hold as the lookup, so they stay exact under threads. Counters
    survive :meth:`clear`; ``weight`` and ``len`` do not.
    """

    def __init__(
        self, budget: int, weigh: Callable[[object], int] = lambda value: 1
    ) -> None:
        self.budget = budget
        self._weigh = weigh
        self._lock = threading.Lock()
        self._data: OrderedDict = OrderedDict()  # key -> (value, weight)
        self.weight = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0

    def get(self, key, *, hit: bool = True, miss: bool = True):
        """The value under ``key``, now the most recent; ``None`` if absent.

        ``hit=False`` / ``miss=False`` leave that counter alone (a
        caller that falls back to a counted :meth:`get` on a miss).
        """
        with self._lock:
            item = self._data.get(key)
            if item is None:
                self.misses += miss
                return None
            self._data.move_to_end(key)
            self.hits += hit
            return item[0]

    def peek(self, key):
        """The value under ``key`` without touching recency or counters."""
        with self._lock:
            item = self._data.get(key)
        return None if item is None else item[0]

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def put(self, key, value) -> int:
        """Insert (or replace) ``key`` as the most recent entry.

        Returns how many older entries were evicted to bring the
        resident weight back within budget.
        """
        weight = self._weigh(value)
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self.weight -= old[1]
            self._data[key] = (value, weight)
            self.weight += weight
            self.insertions += 1
            evicted = 0
            while self.weight > self.budget and len(self._data) > 1:
                _, (_, victim) = self._data.popitem(last=False)
                self.weight -= victim
                evicted += 1
            self.evictions += evicted
            return evicted

    def pop(self, key, default=None):
        with self._lock:
            item = self._data.pop(key, None)
            if item is None:
                return default
            self.weight -= item[1]
            return item[0]

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.weight = 0

    def items(self) -> list[tuple]:
        """Snapshot of ``(key, value)`` pairs, least recent first."""
        with self._lock:
            return [(key, item[0]) for key, item in self._data.items()]

    def __len__(self) -> int:
        return len(self._data)

    def stats(self, weight: str = "weight") -> dict:
        """One consistent snapshot; ``weight`` names the resident-weight key."""
        with self._lock:
            return {
                "entries": len(self._data),
                weight: self.weight,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
