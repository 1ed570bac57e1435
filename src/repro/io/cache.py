"""Byte-budgeted LRU cache for subfile byte ranges.

Progressive analytics re-read the same products over and over — the
same base for every refinement chain, the same coarse deltas for every
parameter-sensitivity pass — and each repeat pays full slow-tier
latency. The cache front-ends the tiers with analytics-local DRAM:
entries are keyed by ``(subfile, offset, length)`` (the unit the BP
catalog addresses), evicted strictly least-recently-used, and bounded
by a byte budget rather than an entry count because range sizes span
four orders of magnitude (chunk indices to full base payloads).

The cache is thread-safe: the data node's executor threads restore
through one retrieval engine, and so one cache, at the same time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lru import LRU

__all__ = ["CacheEntry", "RangeCache"]


@dataclass
class CacheEntry:
    """One cached byte range and where it originally came from."""

    data: bytes
    tier: str
    prefetched: bool = False


class RangeCache:
    """LRU mapping ``(subfile, offset, length)`` → bytes, byte-budgeted.

    Parameters
    ----------
    capacity_bytes:
        Total payload budget. ``0`` disables caching entirely (every
        ``get`` misses, every ``put`` is dropped) — the opt-out for
        benchmarks that need cold-read charges.
    """

    def __init__(self, capacity_bytes: int = 64 << 20) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        self.capacity_bytes = int(capacity_bytes)
        self._ranges = LRU(self.capacity_bytes, weigh=lambda e: len(e.data))

    # ------------------------------------------------------------------
    hits = property(lambda self: self._ranges.hits)
    misses = property(lambda self: self._ranges.misses)
    evictions = property(lambda self: self._ranges.evictions)
    insertions = property(lambda self: self._ranges.insertions)
    used_bytes = property(lambda self: self._ranges.weight)

    def __len__(self) -> int:
        return len(self._ranges)

    def __contains__(self, key: tuple[str, int, int]) -> bool:
        return key in self._ranges

    def get(self, key: tuple[str, int, int]) -> CacheEntry | None:
        """Return the entry (refreshing its recency) or None on a miss."""
        return self._ranges.get(key)

    def put(
        self, key: tuple[str, int, int], data: bytes, tier: str, *,
        prefetched: bool = False,
    ) -> bool:
        """Insert a range; returns False when it cannot be cached.

        Ranges larger than the whole budget bypass the cache (caching
        them would evict everything for one entry that cannot recur
        cheaply anyway).
        """
        if len(data) > self.capacity_bytes:
            return False
        self._ranges.put(key, CacheEntry(data, tier, prefetched))
        return True

    def invalidate(self, subfile: str | None = None) -> int:
        """Drop entries (all, or one subfile's); returns the count dropped.

        Tier migration moves whole subfiles with unchanged offsets, so
        cached bytes stay valid; invalidation is for writers that reuse
        a dataset name.
        """
        return sum(
            self._ranges.pop(key) is not None
            for key, _ in self._ranges.items()
            if subfile is None or key[0] == subfile
        )

    def stats(self) -> dict:
        return {
            **self._ranges.stats("used_bytes"),
            "insertions": self.insertions,
            "capacity_bytes": self.capacity_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"RangeCache(entries={len(self._ranges)}, "
            f"used={self.used_bytes}/{self.capacity_bytes})"
        )
