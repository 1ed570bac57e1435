"""Lazy-deletion binary heap keyed by edge priority.

Algorithm 1 of the paper pops the shortest edge, collapses it, then inserts
the new edges created around the merged vertex. Edge priorities change as
neighborhoods are rewritten, so the queue supports *updates* and
*removals*. A classic lazy-deletion heap gives O(log n) push/pop — matching
the complexity the paper cites ("dominated by the cost of the insert
operation in a priority queue, which is typically O(log N)") — without the
bookkeeping of a full indexed heap: stale entries are skipped at pop time
by comparing against the authoritative ``priority_of`` map.
"""

from __future__ import annotations

import heapq
from typing import Iterable

__all__ = ["EdgePriorityQueue"]

EdgeKey = tuple[int, int]


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical undirected key (min, max) for an edge."""
    return (u, v) if u < v else (v, u)


class EdgePriorityQueue:
    """Min-heap of undirected edges with lazy deletion.

    Entries are ``(priority, (u, v))``. The authoritative priority lives in
    :attr:`priority_of`; heap entries whose priority disagrees are stale
    and skipped when popped.
    """

    __slots__ = ("_heap", "priority_of", "_pushes", "_stale_pops")

    def __init__(self, items: Iterable[tuple[EdgeKey, float]] = ()) -> None:
        self.priority_of: dict[EdgeKey, float] = {}
        self._heap: list[tuple[float, EdgeKey]] = []
        self._pushes = 0
        self._stale_pops = 0
        for key, prio in items:
            self.push(key[0], key[1], prio)

    def __len__(self) -> int:
        return len(self.priority_of)

    def __contains__(self, key: EdgeKey) -> bool:
        return edge_key(*key) in self.priority_of

    def push(self, u: int, v: int, priority: float) -> None:
        """Insert edge (u, v) or update its priority."""
        key = edge_key(u, v)
        self.priority_of[key] = priority
        heapq.heappush(self._heap, (priority, key))
        self._pushes += 1

    def discard(self, u: int, v: int) -> None:
        """Remove edge (u, v) if present (lazily; heap entry skipped later)."""
        self.priority_of.pop(edge_key(u, v), None)

    def pop(self) -> tuple[EdgeKey, float]:
        """Pop and return ``((u, v), priority)`` of the minimum live edge.

        Raises
        ------
        IndexError
            If the queue holds no live edges.
        """
        while self._heap:
            priority, key = heapq.heappop(self._heap)
            live = self.priority_of.get(key)
            if live is not None and live == priority:
                del self.priority_of[key]
                return key, priority
            self._stale_pops += 1
        raise IndexError("pop from empty EdgePriorityQueue")

    def peek(self) -> tuple[EdgeKey, float]:
        """Return the minimum live edge without removing it."""
        while self._heap:
            priority, key = self._heap[0]
            live = self.priority_of.get(key)
            if live is not None and live == priority:
                return key, priority
            heapq.heappop(self._heap)
            self._stale_pops += 1
        raise IndexError("peek at empty EdgePriorityQueue")

    @property
    def stats(self) -> dict[str, int]:
        """Instrumentation: total pushes and stale entries skipped."""
        return {
            "pushes": self._pushes,
            "stale_pops": self._stale_pops,
            "live": len(self.priority_of),
            "heap_size": len(self._heap),
        }
