"""Retrieval engine: batched, cached, prefetching range reads.

The Canopus read side is where the paper's value lives — analytics
restore accuracy progressively from base + deltas spread across tiers —
but a naive reader fetches one product at a time and pays full per-op
latency for each. The engine front-ends the tiers with one fetch path,
claim → coalesce → charge → fetch, that every read takes:

* a byte-budgeted LRU **range cache** (:class:`~repro.lru.LRU`, keyed by
  ``(subfile, offset, length)``) so repeated progressive queries stop
  re-paying slow-tier reads;
* **batched reads** (:meth:`RetrievalEngine.read_many`): requests are
  coalesced per subfile and charged as one concurrent batch across
  tiers with the overlap model — per-tier batches use the device's
  stream concurrency
  (:meth:`~repro.storage.device.DeviceModel.concurrent_read_seconds`)
  and different tiers overlap entirely (max-per-tier, via
  :meth:`~repro.storage.simclock.SimClock.charge_concurrent`). A single
  :meth:`~RetrievalEngine.read` is a batch of one, which costs exactly
  :meth:`~repro.storage.device.DeviceModel.read_seconds`;
* **prefetch** (:meth:`RetrievalEngine.prefetch`): the decoder knows
  the next level's keys before it needs them, so their byte ranges are
  charged as one overlapped batch when the hint is issued and moved
  into the cache before the hint returns. The overlap of tier I/O with
  decode (paper Fig. 9) is what the simulated clock models; the engine
  owns no threads, so the accounting never depends on scheduling.

Every fetch runs on the calling thread. Concurrent callers asking for
the same range share one fetch: the first claims the range, fetches it
and charges it; the others wait on that claim, then claim again and
find the bytes cached.

Real bytes always move through the tier's uncharged
:meth:`~repro.storage.tier.StorageTier.peek_range`; the engine owns
every simulated charge it causes. CRC-32 checksums from the catalog are
verified on every fetch unless the caller opts out.
"""

from __future__ import annotations

import threading
import zlib
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import BPFormatError, ReproError, StorageError
from repro.io.metadata import VariableRecord
from repro.lru import LRU
from repro.obs import trace
from repro.obs.metrics import Counter, MetricsRegistry
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["EngineStats", "RetrievalEngine"]

#: Coalesce ranges in the same subfile when the gap between them is at
#: most this many bytes — reading the gap is cheaper than a second op.
_COALESCE_GAP = 4096


class EngineStats:
    """Cache/prefetch counters, as a view over a metrics registry.

    Every counter lives in a thread-safe
    :class:`~repro.obs.metrics.MetricsRegistry` (the data node's
    executor threads restore through one engine concurrently); the
    attributes (``stats.hits``, ``stats.hits_by_tier``, ...) read it.
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


#: A record and the claim of the caller fetching it.
_Wait = tuple[VariableRecord, Future]


class RetrievalEngine:
    """Cached, batched fetcher shared by one open dataset.

    Parameters
    ----------
    hierarchy:
        Where the bytes live (the dataset's own).
    cache_bytes:
        Range-cache budget; ``0`` disables caching *and* prefetching
        (cold-read charges only — the benchmark opt-out). A range
        larger than the budget is fetched but never cached.
    """

    def __init__(
        self, hierarchy: StorageHierarchy, *, cache_bytes: int = 64 << 20
    ) -> None:
        if cache_bytes < 0:
            raise ValueError("cache_bytes must be >= 0")
        self.hierarchy = hierarchy
        #: ``(subfile, offset, length)`` -> ``[data, tier, prefetched]``:
        #: the bytes, the tier they were charged to, and whether a
        #: prefetch landed them and no read has used them yet.
        self.cache = LRU(int(cache_bytes), weigh=lambda entry: len(entry[0]))
        self.stats = EngineStats()
        #: Guards claiming: a range is looked up in the cache and, on a
        #: miss, claimed in ``_inflight`` in one step.
        self._lock = threading.Lock()
        #: (subfile, offset, length) of a record being fetched -> the
        #: claim its waiters block on; resolved when the fetch ends.
        self._inflight: dict[tuple[str, int, int], Future] = {}

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
    ) -> bytes:
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
                data = self.hierarchy.tier(tier_name).peek_range(
                    subfile, offset, length
                )
                if attempt:
                    self.stats.incr("failover_retries")
                return data
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
    def _verify(rec: VariableRecord, data: bytes) -> None:
        if rec.checksum:
            crc = zlib.crc32(data) & 0xFFFFFFFF
            if crc != rec.checksum:
                raise BPFormatError(
                    f"checksum mismatch for {rec.key!r}: stored "
                    f"{rec.checksum:08x}, read {crc:08x}"
                )

    # -- single-flight claims -------------------------------------------
    def _claim(
        self, records: list[VariableRecord], *, prefetch: bool = False
    ) -> tuple[dict[str, bytes], list[VariableRecord], list[_Wait]]:
        """Sort ``records`` into cache hits, ranges this caller now owns,
        and ranges another caller is fetching — in one step, under the
        lock, so no range is ever fetched by two callers at once.

        Returns ``(hits, owned, waits)``: ``hits`` maps record key to
        bytes (counted as hits), ``owned`` must be fetched by the caller
        inside :meth:`_owning`, and each ``waits`` entry pairs a record
        with the claim to block on before claiming it again. A
        ``prefetch`` claims only ranges nobody holds or fetches: it
        skips the rest, counting no hit and waiting on nothing.
        """
        hits: dict[str, bytes] = {}
        owned: list[VariableRecord] = []
        waits: list[_Wait] = []
        seen: set[tuple[str, int, int]] = set()
        with self._lock:
            for rec in records:
                key = self._key(rec)
                if key in seen:
                    continue
                seen.add(key)
                if prefetch:
                    if key in self._inflight or key in self.cache:
                        continue
                else:
                    entry = self.cache.get(key)
                    if entry is not None:
                        data, tier, prefetched = entry
                        if prefetched:
                            entry[2] = False
                            self.stats.incr("prefetch_useful")
                        self.stats.record_hit(tier, rec.length)
                        hits[rec.key] = data
                        continue
                    if key in self._inflight:
                        waits.append((rec, self._inflight[key]))
                        continue
                self._inflight[key] = Future()
                owned.append(rec)
        return hits, owned, waits

    @contextmanager
    def _owning(self, owned: list[VariableRecord]):
        """Release the caller's claims when its fetch ends; an error in
        the fetch is raised in every waiter too."""
        error: BaseException | None = None
        try:
            yield
        except BaseException as exc:
            error = exc
            raise
        finally:
            with self._lock:
                claims = [self._inflight.pop(self._key(rec)) for rec in owned]
            for claim in claims:
                if error is None:
                    claim.set_result(None)
                else:
                    claim.set_exception(error)

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
        """Deterministic overlapped charge for one concurrent batch.

        A batch of one range charges ``latency + length / bandwidth``,
        bit for bit :meth:`~repro.storage.device.DeviceModel.read_seconds`.
        """
        if not spans:
            return 0.0
        sizes_by_tier: dict[str, list[int]] = {}
        for span in spans:
            sizes_by_tier.setdefault(span.tier, []).append(span.length)
        entries = [
            (tier, "read", sum(sizes),
             self.hierarchy.tier(tier).device.concurrent_read_seconds(sizes))
            for tier, sizes in sorted(sizes_by_tier.items())
        ]
        self.stats.incr("batches")
        self.stats.incr("coalesced_spans", len(spans))
        return self.hierarchy.clock.charge_concurrent(
            entries, label or "engine-batch"
        )

    def _fetch(
        self, spans: list[_Span], *, verify: bool, prefetched: bool,
        label: str,
    ) -> dict[str, bytes]:
        """Charge the spans as one overlapped batch, then move their
        bytes into the cache, span by span, on the calling thread."""
        self._charge_spans(spans, label)
        for span in spans:
            for rec in span.records:
                self.stats.record_miss(span.tier, rec.length)
            if prefetched:
                self.stats.incr("prefetch_issued", len(span.records))
        out: dict[str, bytes] = {}
        for span in spans:
            out.update(self._fetch_span(span, verify=verify, prefetched=prefetched))
        return out

    def _fetch_span(
        self, span: _Span, *, verify: bool, prefetched: bool
    ) -> dict[str, bytes]:
        """Move one span's real bytes and fan them out into the cache.

        Cache entries keep the planned tier label even if a retry served
        the bytes from elsewhere; the charge was already issued against
        the planned tier at batch time.
        """
        with trace.span(
            "engine.fetch_span", "io",
            {
                "tier": span.tier, "subfile": span.subfile,
                "nbytes": span.length, "records": len(span.records),
                "prefetched": prefetched,
            },
        ):
            blob = self._peek_resilient(
                span.tier, span.subfile, span.offset, span.length
            )
            out: dict[str, bytes] = {}
            for rec in span.records:
                lo = rec.offset - span.offset
                data = blob[lo:lo + rec.length]
                if verify:
                    self._verify(rec, data)
                # A range larger than the whole budget would evict
                # everything for one entry that cannot recur cheaply.
                if len(data) <= self.cache.budget:
                    self.cache.put(
                        self._key(rec), [data, span.tier, prefetched]
                    )
                out[rec.key] = data
        return out

    # ------------------------------------------------------------------
    def read(self, rec: VariableRecord, *, verify: bool = True) -> bytes:
        """Fetch one record's bytes: a batch of one (:meth:`read_many`).

        A cold read charges ``latency + length / bandwidth`` — exactly
        :meth:`~repro.storage.device.DeviceModel.read_seconds` — in one
        event labelled with the record's key.
        """
        return self.read_many([rec], verify=verify, label=rec.key)[rec.key]

    def read_many(
        self,
        records: list[VariableRecord],
        *,
        verify: bool = True,
        label: str = "",
    ) -> dict[str, bytes]:
        """Fetch a batch of records, coalesced and charged as one
        concurrent batch.

        Returns ``{record.key: bytes}``. Cached ranges and ranges another
        caller is fetching are reused; the rest is charged as one
        overlapped batch and fetched on the calling thread.
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
        while records:
            hits, owned, waits = self._claim(records)
            out.update(hits)
            if owned:
                with self._owning(owned):
                    out.update(self._fetch(
                        self._coalesce(owned), verify=verify,
                        prefetched=False, label=label,
                    ))
            # Wall-time wait on the other callers' fetches (their charges
            # are issued), then claim those ranges again: hits, or fresh
            # claims where an eviction came first.
            for _, claim in waits:
                claim.result()
            records = [rec for rec, _ in waits]
        return out

    # ------------------------------------------------------------------
    def prefetch(
        self,
        records: list[VariableRecord],
        *,
        verify: bool = True,
        label: str = "",
    ) -> int:
        """Move records into the cache ahead of their reads; returns
        the number of spans fetched.

        The simulated charge for the whole batch is issued *now*,
        overlapped per the batch model — this is the overlap of tier
        I/O with decode that ``pipeline`` stands for — and the bytes
        land in the cache before the call returns. Already-cached and
        already-claimed ranges are skipped, so repeated hints are free.
        A disabled cache (``cache_bytes=0``) turns prefetching into a
        no-op — there would be nowhere to land the bytes. Prefetching is
        best-effort: a failed fetch is raised in any caller waiting on
        it and again by the read that needs the bytes, not here.
        """
        if self.cache.budget == 0:
            return 0
        _, owned, _ = self._claim(records, prefetch=True)
        spans: list[_Span] = []
        try:
            with self._owning(owned):
                spans = self._coalesce(owned)
                self._fetch(
                    spans, verify=verify, prefetched=True,
                    label=label or "prefetch",
                )
        except ReproError:
            pass  # the read that needs these bytes raises it again
        return len(spans)

    def __repr__(self) -> str:
        return (
            f"RetrievalEngine(cached={len(self.cache)} ranges, "
            f"{self.cache.weight}/{self.cache.budget} B, "
            f"inflight={len(self._inflight)})"
        )
