"""Data node: runs the decoder near the bytes, off the event loop.

The HSDS-style split puts everything that touches storage on this side:
one process-wide :class:`~repro.session.Session` owns the open datasets
(and therefore each dataset's retrieval engine + prefetch pipeline),
and every blocking job — a :class:`~repro.session.CampaignHandle` call
a handler hands to :meth:`DataNode.call`, or a restore — runs on a
**bounded** ``ThreadPoolExecutor`` so the asyncio service node above
never blocks. Open handles live in the session's one map.
That executor is the read side's only thread pool: a restore fetches,
verifies and decodes on the executor thread that runs it.
Admission beyond the executor's queue bound is awaited, not rejected —
backpressure, with the event loop free to keep serving cheap requests.
The one request answered without the executor is a restore of a product
resident in the restored-level cache, on an open campaign, at a level
given or already resolved from its tolerance (:meth:`DataNode.restore`):
it reads no storage and runs no codec, so it costs less than a thread hop.
Serving records no access history: a product's tier is chosen per level
when it is written (:class:`~repro.storage.placement.PlacementEngine`),
and :meth:`~repro.storage.policy.TierManager.replan` is the library's
re-tiering path.

Multi-tenant sharing happens here by construction:

* all tenants' restores go through the same
  :class:`~repro.session.CampaignHandle` per campaign, so the
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
from repro.query import check_selection, normalize_region
from repro.service.tenants import TenantConfig, TenantRegistry
from repro.session import CampaignHandle, Session
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["DataNode", "RestoreResult"]

#: Executor jobs admitted per executor thread; a request past
#: ``executor_workers * QUEUE_FACTOR`` waits on the event loop.
QUEUE_FACTOR = 4


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
        self._closed = False
        # Attribute simulated read seconds to the tenant carried by the
        # active trace context (see call). Charges from contexts without
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

    # -- the one way onto the executor ---------------------------------
    async def call(self, name: str, fn, *, tenant: TenantConfig | None = None):
        """Run blocking ``fn(handle)`` on the bounded executor.

        ``handle`` is campaign ``name``'s :class:`CampaignHandle`, opened
        (idempotently) by the job itself; an unknown campaign is a 404.
        The job runs inside a copy of the submitting request's context
        (so the request's trace context — and span stack — follow it
        across the thread hop), with the tenant bound on that copy for
        SimClock attribution; the semaphore bounds queued work without
        ever blocking the event loop.
        """
        if self._closed:
            raise RestorationError("data node is closed")

        def job():
            token = obs_context.bind_tenant(tenant.name) if tenant else None
            try:
                return fn(self._handle(name))
            finally:
                if token is not None:
                    obs_context.deactivate(token)

        ctx = contextvars.copy_context()
        loop = asyncio.get_running_loop()
        async with self._slots:
            return await loop.run_in_executor(self._executor, ctx.run, job)

    def _handle(self, name: str) -> CampaignHandle:
        # A missing catalog surfaces as StorageError (503); to a service
        # client an unknown campaign is a 404, so narrow it here.
        try:
            return self.session.open(name)
        except StorageError as exc:
            raise VariableNotFoundError(
                f"campaign {name!r} not found: {exc}"
            ) from exc

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
        A target or filter no restore can honour is refused first
        (:func:`~repro.query.check_selection`).
        """
        check_selection(level, tolerance, min_significance)
        if tolerance is None:
            level = 0 if level is None else int(level)

        def _restore(handle: CampaignHandle, resident_only: bool):
            self.check_cursor(handle, cursor)
            self.check_cursor(handle, if_none_match)
            # Cursors and cache keys name the chain.
            chain = handle.chain(var, step=step)
            window = normalize_region(region)
            stem = f"{handle.fingerprint[:12]}.{chain}.L"
            digest = _filter_digest(window, min_significance)
            target = level
            if tolerance is not None:  # None until a plan resolved it
                target = handle.planner.resolved(
                    chain, tolerance=tolerance,
                    region=window, min_significance=min_significance,
                )
            state = None  # a CachedLevel or a LevelData: same three fields
            if target is not None:
                if if_none_match == f"{stem}{target}.{digest}":
                    return RestoreResult(if_none_match, True)
                state = get_restored_cache().resident(
                    handle.decoder.cache_key(
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
            out_cursor = f"{stem}{state.level}.{digest}"
            if if_none_match == out_cursor:
                return RestoreResult(out_cursor, hit)
            return RestoreResult(
                out_cursor, hit, state.field, state.level,
                state.last_delta_rms,
            )

        if self._closed:
            raise RestorationError("data node is closed")
        # A lock-free peek: an executor thread may be opening the campaign.
        handle = self.session._handles.get(name)
        if handle is not None:
            result = _restore(handle, True)
            if result is not None:
                return result
        return await self.call(
            name, lambda handle: _restore(handle, False), tenant=tenant
        )

    # -- reporting ------------------------------------------------------
    def metrics(self) -> dict:
        """Aggregate data-node view for the /v1/metrics endpoint."""
        cache = get_restored_cache()
        # The planners' resolution memos, summed over open campaigns.
        handles = list(self.session._handles.values())
        memos = [h.planner.resolutions for h in handles]
        return {
            "campaigns": self.session.campaigns,
            "engine": self.session.stats(),
            "restored_cache": cache.stats(),
            "query": {
                "resolutions": sum(len(m) for m in memos),
                "resolution_evictions": sum(m.evictions for m in memos),
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
        self.hierarchy.clock.remove_listener(self._clock_listener)
        self._executor.shutdown(wait=True)
        self.session.close()
