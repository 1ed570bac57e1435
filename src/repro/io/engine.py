"""Concurrent retrieval engine: batched, cached, prefetching range reads.

The Canopus read side is where the paper's value lives — analytics
restore accuracy progressively from base + deltas spread across tiers —
but a naive reader fetches one product at a time and pays full per-op
latency for each. The engine front-ends the tier transports with three
mechanisms:

* a byte-budgeted LRU **range cache** (:mod:`repro.io.cache`) so
  repeated progressive queries stop re-paying slow-tier reads;
* **batched reads** (:meth:`RetrievalEngine.read_many`): requests are
  coalesced per subfile and issued concurrently across tiers, charged
  with the overlap model — per-tier batches use the device's stream
  concurrency (:meth:`~repro.storage.device.DeviceModel.concurrent_read_seconds`)
  and different tiers overlap entirely (max-per-tier, via
  :meth:`~repro.storage.simclock.SimClock.charge_concurrent`);
* **prefetch** (:meth:`RetrievalEngine.prefetch`): the decoder knows
  the next level's keys before it needs them, so their byte ranges are
  fetched by worker threads while the current delta decompresses; the
  simulated charge is issued deterministically at submit time, so the
  accounting never depends on thread scheduling.

Real bytes always move through :meth:`Transport.peek_range` (uncharged);
the engine owns every simulated charge it causes. CRC-32 checksums from
the catalog are verified on every fetch unless the caller opts out.
"""

from __future__ import annotations

import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro.errors import BPFormatError, StorageError
from repro.io.cache import RangeCache
from repro.io.metadata import VariableRecord
from repro.io.transports import Transport
from repro.obs import context as obs_context
from repro.obs import trace
from repro.obs.metrics import Counter, MetricsRegistry
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["EngineStats", "RetrievalEngine"]

#: Coalesce ranges in the same subfile when the gap between them is at
#: most this many bytes — reading the gap is cheaper than a second op.
_COALESCE_GAP = 4096


class EngineStats:
    """Cache/prefetch counters, as a view over a metrics registry.

    Historically a plain dataclass mutated with ``+=`` from whichever
    thread got there first; now every counter lives in a thread-safe
    :class:`~repro.obs.metrics.MetricsRegistry` (worker threads update
    hit counters concurrently with the submit path). The attribute API
    (``stats.hits``, ``stats.hits_by_tier``, ...) is preserved as
    read-only properties, so existing benchmarks keep working.
    """

    #: Scalar counters exposed as attributes and snapshot keys.
    _SCALARS = (
        "hits",
        "misses",
        "bytes_from_cache",
        "prefetch_issued",
        "prefetch_useful",
        "batches",
        "coalesced_spans",
        "failover_retries",
    )
    #: Per-tier counter families exposed as dict-valued attributes.
    _BY_TIER = ("hits_by_tier", "misses_by_tier", "bytes_from_tier")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # Counter handles, resolved once: a registry lookup builds and
        # sorts a label key per call, and one cold restore makes
        # hundreds of increments. ``reset`` zeroes in place, so the
        # handles stay valid.
        self._scalar = {
            name: self.registry.counter(f"engine.{name}")
            for name in self._SCALARS
        }
        self._tiered: dict[tuple[str, str], Counter] = {}

    # -- mutation (engine-internal) -------------------------------------
    def _tier_counter(self, name: str, tier: str) -> Counter:
        counter = self._tiered.get((name, tier))
        if counter is None:
            counter = self._tiered[name, tier] = self.registry.counter(
                f"engine.{name}", tier=tier
            )
        return counter

    def incr(self, name: str, n: int = 1) -> None:
        self._scalar[name].inc(n)

    def record_hit(self, tier: str, nbytes: int) -> None:
        self._scalar["hits"].inc()
        self._tier_counter("hits_by_tier", tier).inc()
        self._scalar["bytes_from_cache"].inc(nbytes)

    def record_miss(self, tier: str, nbytes: int) -> None:
        self._scalar["misses"].inc()
        self._tier_counter("misses_by_tier", tier).inc()
        self._tier_counter("bytes_from_tier", tier).inc(nbytes)

    # -- view -----------------------------------------------------------
    def __getattr__(self, name: str):
        # Only consulted for names not found normally: map the legacy
        # dataclass attributes onto registry lookups.
        if name in EngineStats._SCALARS:
            return self.registry.value(f"engine.{name}")
        if name in EngineStats._BY_TIER:
            return self.registry.label_values(f"engine.{name}", "tier")
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def hit_ratio(self) -> float:
        """Range-cache hit fraction over all lookups (0.0 when idle).

        The service's ``/v1/metrics`` endpoint surfaces this per open
        campaign, so operators see cache effectiveness without scraping
        raw counters.
        """
        hits = self.registry.value("engine.hits")
        total = hits + self.registry.value("engine.misses")
        return hits / total if total else 0.0

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter (thread-safe)."""
        out: dict = {name: self.registry.value(f"engine.{name}")
                     for name in self._SCALARS}
        for name in self._BY_TIER:
            out[name] = self.registry.label_values(f"engine.{name}", "tier")
        out["hit_ratio"] = self.hit_ratio
        return out

    def as_dict(self) -> dict:
        return self.snapshot()

    def reset(self) -> None:
        """Zero all counters (for per-phase measurement windows)."""
        self.registry.reset()

    def __repr__(self) -> str:
        return (
            f"EngineStats(hits={self.hits}, misses={self.misses}, "
            f"prefetch={self.prefetch_useful}/{self.prefetch_issued})"
        )


@dataclass(frozen=True)
class _Span:
    """One coalesced byte range to fetch from a tier subfile."""

    tier: str
    subfile: str
    offset: int
    length: int
    records: tuple[VariableRecord, ...]


class RetrievalEngine:
    """Thread-pool-backed fetcher shared by one open dataset.

    Parameters
    ----------
    hierarchy / transports:
        Where the bytes live and how to reach them (the dataset's own).
    cache_bytes:
        Range-cache budget; ``0`` disables caching *and* prefetching
        (cold-read charges only — the benchmark opt-out).
    workers:
        Thread-pool width for concurrent span fetches.
    """

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        transports: dict[str, Transport],
        *,
        cache_bytes: int = 64 << 20,
        workers: int = 4,
    ) -> None:
        if workers < 1:
            raise StorageError("engine workers must be >= 1")
        self.hierarchy = hierarchy
        self.transports = transports
        self.cache = RangeCache(cache_bytes)
        self.stats = EngineStats()
        self._workers = workers
        self._pool: ThreadPoolExecutor | None = None
        #: (subfile, offset, length) of an individual record -> span future.
        self._inflight: dict[tuple[str, int, int], Future] = {}

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Thread-pool width (read-only; decoders inherit it by default)."""
        return self._workers

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-io"
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._inflight.clear()

    # ------------------------------------------------------------------
    def _locate(self, rec: VariableRecord) -> str:
        """Current tier of a record's subfile (migration-aware)."""
        if self.hierarchy.tier(rec.tier).exists(rec.subfile):
            return rec.tier
        current = self.hierarchy.locate(rec.subfile)
        if current is None:
            raise StorageError(f"subfile {rec.subfile!r} not found on any tier")
        return current.name

    def _peek_resilient(
        self, tier_name: str, subfile: str, offset: int, length: int
    ) -> tuple[bytes, str]:
        """Uncharged range read that survives re-placement and failures.

        Two failure shapes are retried, bounded at three attempts:

        * a migration executing between locate and fetch deletes the
          source copy after the destination copy is fully registered, so
          on a miss we re-locate and retry against the subfile's new
          tier;
        * a replicated backend may fail one read while a replica is
          dying under it, then serve the next from a surviving mirror
          (its own failover already retries per-replica; this loop adds
          one same-tier second chance on top).

        Restores stay bit-identical while placement moves data — or
        replicas fail — underneath them; only when no tier and no
        replica can serve the range does the error surface.
        """
        attempts = 3
        last: StorageError | None = None
        retried_same_tier = False
        for attempt in range(attempts):
            try:
                data = self.transports[tier_name].peek_range(
                    subfile, offset, length
                )
                if attempt:
                    self.stats.incr("failover_retries")
                return data, tier_name
            except StorageError as exc:
                last = exc
                current = self.hierarchy.locate(subfile)
                if current is not None and current.name != tier_name:
                    tier_name = current.name
                    continue
                if current is None or retried_same_tier:
                    raise
                retried_same_tier = True
        raise last if last is not None else StorageError(
            f"subfile {subfile!r} unreadable"
        )

    @staticmethod
    def _key(rec: VariableRecord) -> tuple[str, int, int]:
        return (rec.subfile, rec.offset, rec.length)

    @staticmethod
    def _verify(rec: VariableRecord, data: bytes) -> bytes:
        if rec.checksum:
            crc = zlib.crc32(data) & 0xFFFFFFFF
            if crc != rec.checksum:
                raise BPFormatError(
                    f"checksum mismatch for {rec.key!r}: stored "
                    f"{rec.checksum:08x}, read {crc:08x}"
                )
        return data

    # ------------------------------------------------------------------
    def read(self, rec: VariableRecord, *, verify: bool = True) -> bytes:
        """Fetch one record's bytes: cache → in-flight prefetch → tier.

        A cold read charges exactly the legacy per-request cost
        (``latency + length / bandwidth``), so serial retrieval through
        the engine is charge-identical to the pre-engine read path.
        """
        tracer = trace.get_tracer()
        if tracer is None:
            return self._read(rec, verify)
        with tracer.span("engine.read", "cache", {"key": rec.key}) as sp:
            hits_before = self.stats.hits
            data = self._read(rec, verify)
            sp.note(hit=self.stats.hits > hits_before, nbytes=rec.length)
            return data

    def _read(self, rec: VariableRecord, verify: bool) -> bytes:
        key = self._key(rec)
        entry = self.cache.get(key)
        if entry is None:
            future = self._inflight.get(key)
            if future is not None:
                future.result()  # wall-time wait; charge already issued
                entry = self.cache.get(key)
        if entry is not None:
            if entry.prefetched:
                entry.prefetched = False
                self.stats.incr("prefetch_useful")
            self.stats.record_hit(entry.tier, rec.length)
            return entry.data
        data, tier_name = self._peek_resilient(
            self._locate(rec), rec.subfile, rec.offset, rec.length
        )
        tier = self.hierarchy.tier(tier_name)
        tier.clock.charge(
            tier_name, "read", rec.length,
            tier.device.read_seconds(rec.length), rec.key,
        )
        if verify:
            self._verify(rec, data)
        self.stats.record_miss(tier_name, rec.length)
        self.cache.put(key, data, tier_name)
        return data

    # ------------------------------------------------------------------
    def _coalesce(self, records: list[VariableRecord]) -> list[_Span]:
        """Group uncached records into per-(tier, subfile) fetch spans."""
        by_file: dict[tuple[str, str], list[VariableRecord]] = {}
        for rec in records:
            by_file.setdefault((self._locate(rec), rec.subfile), []).append(rec)
        spans: list[_Span] = []
        for (tier, subfile), recs in sorted(by_file.items()):
            recs.sort(key=lambda r: (r.offset, r.length))
            group: list[VariableRecord] = []
            start = end = -1
            for rec in recs:
                if group and rec.offset - end <= _COALESCE_GAP:
                    end = max(end, rec.offset + rec.length)
                    group.append(rec)
                    continue
                if group:
                    spans.append(
                        _Span(tier, subfile, start, end - start, tuple(group))
                    )
                group = [rec]
                start, end = rec.offset, rec.offset + rec.length
            if group:
                spans.append(_Span(tier, subfile, start, end - start, tuple(group)))
        return spans

    def _charge_spans(self, spans: list[_Span], label: str) -> float:
        """Deterministic overlapped charge for one concurrent batch."""
        if not spans:
            return 0.0
        sizes_by_tier: dict[str, list[int]] = {}
        for span in spans:
            sizes_by_tier.setdefault(span.tier, []).append(span.length)
        clock = self.hierarchy.clock
        entries = []
        for tier_name in sorted(sizes_by_tier):
            sizes = sizes_by_tier[tier_name]
            device = self.hierarchy.tier(tier_name).device
            entries.append(
                (
                    tier_name,
                    "read",
                    sum(sizes),
                    device.concurrent_read_seconds(sizes),
                )
            )
        self.stats.incr("batches")
        self.stats.incr("coalesced_spans", len(spans))
        return clock.charge_concurrent(entries, label or "engine-batch")

    def _fetch_span(
        self, span: _Span, *, verify: bool, prefetched: bool
    ) -> dict[tuple[str, int, int], bytes]:
        """Move one span's real bytes and fan them out into the cache."""
        tracer = trace.get_tracer()
        if tracer is None:
            return self._fetch_span_inner(span, verify=verify, prefetched=prefetched)
        with tracer.span(
            "engine.fetch_span", "io",
            {
                "tier": span.tier, "subfile": span.subfile,
                "nbytes": span.length, "records": len(span.records),
                "prefetched": prefetched,
            },
        ):
            return self._fetch_span_inner(
                span, verify=verify, prefetched=prefetched
            )

    def _fetch_span_inner(
        self, span: _Span, *, verify: bool, prefetched: bool
    ) -> dict[tuple[str, int, int], bytes]:
        # Cache entries keep the planned tier label even if the retry
        # served the bytes from elsewhere; the charge was already issued
        # against the planned tier at batch time.
        blob, _ = self._peek_resilient(
            span.tier, span.subfile, span.offset, span.length
        )
        out: dict[tuple[str, int, int], bytes] = {}
        try:
            for rec in span.records:
                lo = rec.offset - span.offset
                data = blob[lo:lo + rec.length]
                if verify:
                    self._verify(rec, data)
                self.cache.put(
                    self._key(rec), data, span.tier, prefetched=prefetched
                )
                out[self._key(rec)] = data
        finally:
            for rec in span.records:
                self._inflight.pop(self._key(rec), None)
        return out

    def read_many(
        self,
        records: list[VariableRecord],
        *,
        verify: bool = True,
        label: str = "",
    ) -> dict[str, bytes]:
        """Fetch a batch of records, coalesced and issued concurrently.

        Returns ``{record.key: bytes}``. Cached and in-flight ranges are
        reused; the rest is charged as one overlapped batch.
        """
        tracer = trace.get_tracer()
        if tracer is None:
            return self._read_many(records, verify=verify, label=label)
        with tracer.span(
            "engine.read_many", "cache",
            {"requested": len(records), "label": label},
        ) as sp:
            hits_before = self.stats.hits
            misses_before = self.stats.misses
            out = self._read_many(records, verify=verify, label=label)
            sp.note(
                hits=self.stats.hits - hits_before,
                misses=self.stats.misses - misses_before,
            )
            return out

    def _read_many(
        self,
        records: list[VariableRecord],
        *,
        verify: bool,
        label: str,
    ) -> dict[str, bytes]:
        out: dict[str, bytes] = {}
        missing: list[VariableRecord] = []
        waiting: list[VariableRecord] = []
        seen: set[tuple[str, int, int]] = set()
        for rec in records:
            key = self._key(rec)
            if key in seen:
                continue
            seen.add(key)
            entry = self.cache.get(key)
            if entry is not None:
                if entry.prefetched:
                    entry.prefetched = False
                    self.stats.incr("prefetch_useful")
                self.stats.record_hit(entry.tier, rec.length)
                out[rec.key] = entry.data
            elif key in self._inflight:
                waiting.append(rec)
            else:
                missing.append(rec)

        spans = self._coalesce(missing)
        self._charge_spans(spans, label)
        for rec in missing:
            self.stats.record_miss(self._locate(rec), rec.length)
        if len(spans) > 1:
            # propagate: worker fetches inherit the submitting request's
            # trace context (no-op outside a request).
            fetched = self._executor().map(
                obs_context.propagate(
                    lambda s: self._fetch_span(
                        s, verify=verify, prefetched=False
                    )
                ),
                spans,
            )
        else:
            fetched = (
                self._fetch_span(s, verify=verify, prefetched=False)
                for s in spans
            )
        by_key = {}
        for chunk in fetched:
            by_key.update(chunk)
        for rec in missing:
            out[rec.key] = by_key[self._key(rec)]

        for rec in waiting:
            future = self._inflight.get(self._key(rec))
            if future is not None:
                future.result()
            entry = self.cache.get(self._key(rec))
            if entry is None:  # evicted between completion and consumption
                out[rec.key] = self.read(rec, verify=verify)
                continue
            if entry.prefetched:
                entry.prefetched = False
                self.stats.incr("prefetch_useful")
            self.stats.record_hit(entry.tier, rec.length)
            out[rec.key] = entry.data
        return out

    # ------------------------------------------------------------------
    def prefetch(
        self,
        records: list[VariableRecord],
        *,
        verify: bool = True,
        label: str = "",
    ) -> int:
        """Start fetching records in the background; returns spans issued.

        The simulated charge for the whole batch is issued *now* (at
        submit time, overlapped per the batch model); worker threads
        then move the real bytes into the cache while the caller
        decompresses/applies the current level. Already-cached and
        already-in-flight ranges are skipped, so repeated hints are
        free. A disabled cache (``cache_bytes=0``) turns prefetching
        into a no-op — there would be nowhere to land the bytes.
        """
        if self.cache.capacity_bytes == 0:
            return 0
        missing = []
        seen: set[tuple[str, int, int]] = set()
        for rec in records:
            key = self._key(rec)
            if key in seen or key in self.cache or key in self._inflight:
                continue
            seen.add(key)
            missing.append(rec)
        spans = self._coalesce(missing)
        if not spans:
            return 0
        self._charge_spans(spans, label or "prefetch")
        for rec in missing:
            self.stats.record_miss(self._locate(rec), rec.length)
        self.stats.incr("prefetch_issued", len(missing))
        pool = self._executor()
        fetch = obs_context.propagate(self._fetch_span)
        for span in spans:
            future = pool.submit(
                fetch, span, verify=verify, prefetched=True
            )
            for rec in span.records:
                self._inflight[self._key(rec)] = future
        return len(spans)

    def drain(self) -> None:
        """Block until every in-flight prefetch has landed."""
        for future in list(self._inflight.values()):
            future.result()

    def __repr__(self) -> str:
        return (
            f"RetrievalEngine(cache={self.cache!r}, "
            f"workers={self._workers}, inflight={len(self._inflight)})"
        )
