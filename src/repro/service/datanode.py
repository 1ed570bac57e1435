"""Data node: runs the decode engine near the bytes, off the event loop.

The HSDS-style split puts everything that touches storage on this side:
one process-wide :class:`~repro.session.Session` owns the open datasets
(and therefore each dataset's retrieval engine + prefetch pipeline),
and every blocking restore/stat/raw-read runs on a **bounded**
``ThreadPoolExecutor`` so the asyncio service node above never blocks.
That executor is the read side's only thread pool: a restore fetches,
verifies and decodes on the executor thread that runs it.
Admission beyond the executor's queue bound is awaited, not rejected —
backpressure, with the event loop free to keep serving cheap requests.
The one request answered without the executor is a restore of a product
resident in the restored-level cache, on an open campaign, at a level
given or already resolved from its tolerance (:meth:`DataNode.restore`):
it reads no storage and runs no codec, so it costs less than a thread hop.

Multi-tenant sharing happens here by construction:

* all tenants' restores go through the same
  :class:`~repro.core.decode_engine.DecodeEngine` per campaign, so the
  process-wide restored-level/geometry caches and the engine's range
  cache/prefetch are shared — a second tenant asking for the same
  ``(fingerprint, var, level)`` under a filter that keeps the same
  chunks is a cache hit, because cache keys carry content identity +
  the filter signature only;
* *accounting* stays per tenant: a listener on the hierarchy's
  :class:`~repro.storage.simclock.SimClock` attributes every simulated
  read to the tenant carried by the active
  :class:`~repro.obs.context.TraceContext` — each executor job runs
  inside a copy of the submitting request's context
  (:func:`contextvars.copy_context` at submit time), so attribution is
  keyed by *request*, never by whatever the worker thread ran last.

Delta cursors: every restore result carries an ETag-like cursor
``<fp12>.<var>.L<level>.<filter digest>``. A client resuming with the
cursor of a level it already holds gets 304 (nothing to send) when it
re-requests that level, a warm-started refinement when it asks for a
finer one, and a 409 conflict if the campaign's content fingerprint no
longer matches (the store was rewritten under the cursor).
"""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.restored_cache import get_restored_cache
from repro.errors import (
    ConflictError,
    RestorationError,
    StorageError,
    VariableNotFoundError,
)
from repro.obs import context as obs_context
from repro.obs import trace
from repro.query import normalize_region
from repro.service.tenants import TenantConfig, TenantRegistry
from repro.session import CampaignHandle, Session
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.policy import AccessTracker

__all__ = ["DataNode", "RestoreResult"]

#: Executor jobs admitted per executor thread; a request past
#: ``executor_workers * QUEUE_FACTOR`` waits on the event loop.
QUEUE_FACTOR = 4


def _region_json(region) -> list | None:
    """JSON-ready ``[[lo...], [hi...]]`` form of a region window."""
    if region is None:
        return None
    lo, hi = region
    return [
        [float(v) for v in np.asarray(lo, dtype=np.float64).ravel()],
        [float(v) for v in np.asarray(hi, dtype=np.float64).ravel()],
    ]


def _filter_digest(region, min_significance: float) -> str:
    """Stable 8-hex digest of the tenant-visible filter state."""
    h = hashlib.blake2b(digest_size=4)
    if region is not None:
        lo, hi = region
        for arr in (lo, hi):
            for v in np.asarray(arr, dtype=np.float64).ravel():
                h.update(repr(float(v) + 0.0).encode())
    h.update(repr(float(min_significance) + 0.0).encode())
    return h.hexdigest()


class RestoreResult:
    """One finished restore plus its wire identity.

    ``field`` is ``None`` when the client's ``If-None-Match`` cursor
    already names the result (the 304 fast path). On a cache hit it is
    the cache's own read-only array, not a copy: the response is built
    from a view of it.
    """

    __slots__ = ("field", "level", "rms", "cursor", "cache_hit")

    def __init__(
        self,
        cursor: str,
        cache_hit: bool,
        field: np.ndarray | None = None,
        level: int | None = None,
        rms: float = float("nan"),
    ) -> None:
        self.field = field
        self.level = level
        self.rms = rms
        self.cursor = cursor
        self.cache_hit = cache_hit


class DataNode:
    """Near-data execution layer shared by every service-node handler.

    Parameters
    ----------
    hierarchy:
        The storage hierarchy to serve (owns backends + SimClock).
    tenants:
        The registry used for per-tenant sim-read attribution; the
        service node passes the same instance it authenticates with.
    executor_workers:
        Bounded executor size for blocking work: the read side's one
        thread pool. Queued jobs beyond
        ``executor_workers * QUEUE_FACTOR`` wait asynchronously.
    """

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        *,
        tenants: TenantRegistry | None = None,
        executor_workers: int = 8,
        cache_bytes: int = 64 << 20,
        verify_checksums: bool = True,
    ) -> None:
        if executor_workers < 1:
            raise RestorationError("executor_workers must be >= 1")
        self.hierarchy = hierarchy
        self.tenants = tenants
        self.session = Session(
            hierarchy,
            cache_bytes=cache_bytes,
            verify_checksums=verify_checksums,
        )
        self.executor_workers = int(executor_workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_workers,
            thread_name_prefix="repro-datanode",
        )
        self._slots = asyncio.Semaphore(self.executor_workers * QUEUE_FACTOR)
        self._open_lock = threading.Lock()
        #: Handles opened so far; the event loop reads it without the
        #: open lock, which an executor thread may hold across an open.
        self._handles: dict[str, CampaignHandle] = {}
        self._closed = False
        # Elastic feedback: every served read/query heats the subfiles
        # its retrieval plan touched, so PlacementEngine.plan_replacement
        # over this tracker promotes exactly the delta levels the query
        # workload reaches. The shape log keeps the recent query mix
        # (var, region, achieved level) inspectable via /v1/metrics.
        self.tracker = AccessTracker()
        self._query_log: deque = deque(maxlen=256)
        self._query_lock = threading.Lock()
        # Attribute simulated read seconds to the tenant carried by the
        # active trace context (see _run). Charges from contexts without
        # a tenant (e.g. in-process library use) are left unattributed.
        self._clock_listener = self._on_sim_charge
        hierarchy.clock.add_listener(self._clock_listener)

    # -- sim-read attribution ------------------------------------------
    def _on_sim_charge(self, events, advance: float, after: float) -> None:
        if advance <= 0 or self.tenants is None:
            return
        ctx = obs_context.current()
        if ctx is None or not ctx.tenant:
            return
        tenant = self.tenants.find(ctx.tenant)
        if tenant is None:
            return
        read_s = sum(e.seconds for e in events if e.op == "read")
        if read_s > 0:
            self.tenants.charge_sim_read(tenant, min(advance, read_s))

    # -- bounded offload ------------------------------------------------
    async def _run(self, fn, *args, tenant: TenantConfig | None = None):
        """Run blocking ``fn`` on the bounded executor.

        The job runs inside a copy of the submitting request's context
        (so the request's trace context — and span stack — follow it
        across the thread hop), with the tenant bound on that copy for
        SimClock attribution; the semaphore bounds queued work without
        ever blocking the event loop.
        """
        if self._closed:
            raise RestorationError("data node is closed")

        def _bound():
            if tenant is None:
                return fn(*args)
            token = obs_context.bind_tenant(tenant.name)
            try:
                return fn(*args)
            finally:
                obs_context.deactivate(token)

        ctx = contextvars.copy_context()
        loop = asyncio.get_running_loop()
        async with self._slots:
            return await loop.run_in_executor(self._executor, ctx.run, _bound)

    # -- campaign lifecycle --------------------------------------------
    def _handle(self, name: str) -> CampaignHandle:
        # Session.open caches handles; serialize so concurrent first
        # opens of one campaign create a single handle. A missing
        # catalog surfaces as StorageError (503); to a service client
        # an unknown campaign is a 404, so narrow it here.
        handle = self._handles.get(name)
        if handle is not None:
            return handle
        with self._open_lock:
            try:
                handle = self.session.open(name)
            except StorageError as exc:
                raise VariableNotFoundError(
                    f"campaign {name!r} not found: {exc}"
                ) from exc
            self._handles[name] = handle
            return handle

    async def open_campaign(
        self, name: str, *, tenant: TenantConfig | None = None
    ) -> dict:
        """Open (idempotent) and describe one campaign."""
        def _open() -> dict:
            return self._handle(name).describe()

        return await self._run(_open, tenant=tenant)

    # -- cursors --------------------------------------------------------
    @staticmethod
    def check_cursor(handle: CampaignHandle, cursor: str | None) -> None:
        """409 when a client cursor references different dataset bytes."""
        if not cursor:
            return
        fp = cursor.split(".", 1)[0]
        if fp != handle.fingerprint[: len(fp)] or not fp:
            raise ConflictError(
                f"cursor {cursor!r} does not match campaign content "
                f"{handle.fingerprint[:12]!r}; re-open the campaign"
            )

    # -- elastic feedback ----------------------------------------------
    def _note_query(
        self,
        handle: CampaignHandle,
        chain: str,
        *,
        level: int,
        region=None,
        min_significance: float = 0.0,
        shape: dict | None = None,
    ) -> None:
        """Record one served query shape and heat its plan's subfiles.

        The subfiles come from the planner's memo (planned once per
        filter signature). Feedback must never fail a read: planning here
        is metadata-only and advisory, so any error is swallowed (the
        response the tenant paid for has already been computed).
        """
        try:
            subfiles = handle.planner.resolved(
                chain, level=level, region=region,
                min_significance=min_significance, plan=True,
            ).subfiles
        except Exception:  # noqa: BLE001 — advisory path only
            return
        entry = {
            "campaign": handle.name,
            "var": chain,
            "level": int(level),
            "region": _region_json(region),
            "subfiles_noted": len(subfiles),
        }
        if shape:
            entry.update(shape)
        now = self.hierarchy.clock.elapsed
        # The loop thread and the executor threads all land here.
        with self._query_lock:
            for path in subfiles:
                self.tracker.note(path, now)
            self._query_log.append(entry)

    # -- reads ----------------------------------------------------------
    async def restore(
        self,
        name: str,
        var: str,
        *,
        step: int | None = None,
        level: int | None = None,
        tolerance: float | None = None,
        region=None,
        min_significance: float = 0.0,
        cursor: str | None = None,
        if_none_match: str | None = None,
        tenant: TenantConfig | None = None,
    ) -> RestoreResult:
        """Restore near the bytes; returns field + cursor + hit flag.

        ``if_none_match`` short-circuits a request whose target level is
        known: when the client already holds the cursor of the exact
        result, no field is restored or shipped (the service node
        answers 304 with ``field=None``).

        The target is ``level`` (neither ``level`` nor ``tolerance``
        means 0), or the level the planner's memo resolved ``tolerance``
        to under the same filter signature. A request whose target is
        resident in the restored-level cache, on a campaign that is
        already open, is answered right here on the calling (event-loop)
        thread: no storage read, no decode, no tolerance walk. That
        includes a region request whose surviving chunks were restored
        before under another box. Every other request runs on the executor.
        """
        if tolerance is None:
            level = 0 if level is None else int(level)
        elif level is not None:
            raise RestorationError("restore takes level or tolerance, not both")
        mode = {
            "mode": "level" if tolerance is None else "tolerance",
            "tolerance": tolerance,
        }

        def _restore(handle: CampaignHandle, resident_only: bool):
            self.check_cursor(handle, cursor)
            self.check_cursor(handle, if_none_match)
            # Cursors, cache keys and the query log name the chain.
            chain = handle.chain(var, step=step)
            window = normalize_region(region)
            stem = f"{handle.fingerprint[:12]}.{chain}.L"
            digest = _filter_digest(window, min_significance)
            target = level
            if tolerance is not None:  # None until a plan resolved it
                target = getattr(handle.planner.resolved(
                    chain, tolerance=tolerance,
                    region=window, min_significance=min_significance,
                ), "level", None)
            state = None  # a CachedLevel or a LevelData: same three fields
            if target is not None:
                if if_none_match == f"{stem}{target}.{digest}":
                    return RestoreResult(if_none_match, True)
                state = get_restored_cache().resident(
                    handle.engine.decoder.cache_key(
                        chain, target,
                        region=window, min_significance=min_significance,
                    )
                )
            hit = state is not None
            if not hit and resident_only:
                return None
            with trace.span(
                "service.restore", "restore",
                {"campaign": name, "var": var,
                 "tenant": tenant.name if tenant else "", "resident": hit},
            ):
                if not hit:
                    state = handle.restore(
                        var,
                        step=step,
                        level=level,
                        tolerance=tolerance,
                        region=window,
                        min_significance=min_significance,
                    )
            self._note_query(
                handle, chain,
                level=state.level,
                region=window,
                min_significance=min_significance,
                shape=mode,
            )
            out_cursor = f"{stem}{state.level}.{digest}"
            if if_none_match == out_cursor:
                return RestoreResult(out_cursor, hit)
            return RestoreResult(
                out_cursor, hit, state.field, state.level,
                state.last_delta_rms,
            )

        if self._closed:
            raise RestorationError("data node is closed")
        handle = self._handles.get(name)
        if handle is not None:
            result = _restore(handle, True)
            if result is not None:
                return result
        return await self._run(
            lambda: _restore(self._handle(name), False), tenant=tenant
        )

    async def stats(
        self,
        name: str,
        var: str | None = None,
        *,
        level: int | None = None,
        tenant: TenantConfig | None = None,
    ) -> list[dict]:
        def _stats() -> list[dict]:
            return self._handle(name).stats(var, level=level)

        return await self._run(_stats, tenant=tenant)

    # -- pushdown queries ----------------------------------------------
    async def plan(
        self,
        name: str,
        var: str,
        *,
        step: int | None = None,
        level: int | None = None,
        tolerance: float | None = None,
        region=None,
        min_significance: float = 0.0,
        tenant: TenantConfig | None = None,
    ) -> dict:
        """Explain (without executing) one retrieval — plan as JSON."""

        def _plan() -> dict:
            return self._handle(name).plan(
                var,
                step=step,
                level=level,
                tolerance=tolerance,
                region=region,
                min_significance=min_significance,
            ).to_dict()

        return await self._run(_plan, tenant=tenant)

    async def query_stats(
        self,
        name: str,
        var: str,
        *,
        step: int | None = None,
        region=None,
        tenant: TenantConfig | None = None,
    ) -> dict:
        """Pushdown aggregate statistics, executed near the bytes."""

        def _query() -> dict:
            handle = self._handle(name)
            result = handle.query_stats(var, step=step, region=region)
            self._note_query(
                handle, result["var"], level=0, region=region,
                shape={"mode": "stats"},
            )
            return result

        return await self._run(_query, tenant=tenant)

    async def query_blobs(
        self,
        name: str,
        var: str,
        *,
        threshold: float,
        step: int | None = None,
        region=None,
        shape: tuple[int, int] = (128, 128),
        tenant: TenantConfig | None = None,
    ) -> dict:
        """Pushdown blob detection, executed near the bytes."""

        def _query() -> dict:
            handle = self._handle(name)
            result = handle.query_blobs(
                var, threshold=threshold, step=step, region=region,
                shape=shape,
            )
            self._note_query(
                handle, result["var"], level=0, region=region,
                shape={"mode": "blobs", "threshold": float(threshold)},
            )
            return result

        return await self._run(_query, tenant=tenant)

    async def read_raw(
        self,
        name: str,
        key: str,
        *,
        start: int = 0,
        length: int | None = None,
        tenant: TenantConfig | None = None,
    ) -> tuple[bytes, dict]:
        """Range-read one stored product; returns (bytes, record meta)."""

        def _read() -> tuple[bytes, dict]:
            handle = self._handle(name)
            rec = handle.inq(key)
            blob = handle.read_raw(key, start=start, length=length)
            meta = {
                "key": rec.key,
                "kind": rec.kind,
                "level": rec.level,
                "codec": rec.codec,
                "tier": rec.tier,
                "total_bytes": rec.length,
                "start": start,
                "bytes": len(blob),
            }
            return blob, meta

        return await self._run(_read, tenant=tenant)

    # -- reporting ------------------------------------------------------
    def metrics(self) -> dict:
        """Aggregate data-node view for the /v1/metrics endpoint."""
        cache = get_restored_cache()
        with self._query_lock:
            query_log = list(self._query_log)
        # The planners' resolution memos, summed over open campaigns.
        memos = [h.planner.resolutions for h in list(self._handles.values())]
        return {
            "campaigns": self.session.campaigns,
            "engine": self.session.stats(),
            "restored_cache": cache.stats(),
            "query": {
                "log": query_log,
                "tracked_subfiles": len(self.tracker.records),
                "tracked_reads": sum(
                    info.reads for info in self.tracker.records.values()
                ),
                "feedback_plans": sum(len(m) for m in memos),
                "feedback_evictions": sum(m.evictions for m in memos),
                "resolve_hits": sum(m.hits for m in memos),
                "resolve_misses": sum(m.misses for m in memos),
            },
            "executor": {
                "workers": self.executor_workers,
                "queued_slots_free": getattr(self._slots, "_value", None),
            },
            "storage": {
                # Degraded-mode visibility: a tier goes degraded when its
                # backend routes a read or write around a failed replica
                # and stays so until a repair sweep completes. Reads keep
                # serving from surviving replicas (503 only when none
                # survives); operators watch this plus the process-wide
                # storage.degraded / repair.* counters.
                "degraded_tiers": [
                    t.name for t in self.hierarchy.tiers if t.degraded
                ],
                "replication": {
                    t.name: t.replication_factor
                    for t in self.hierarchy.tiers
                },
                "adoption_problems": {
                    t.name: len(t.adoption_problems)
                    for t in self.hierarchy.tiers
                    if t.adoption_problems
                },
            },
            "sim_clock_elapsed": self.hierarchy.clock.elapsed,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._handles.clear()
        self.hierarchy.clock.remove_listener(self._clock_listener)
        self._executor.shutdown(wait=True)
        self.session.close()
