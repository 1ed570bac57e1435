"""Accuracy-aware retrieval planning from per-chunk summaries.

``Session.restore(tolerance=τ)`` historically *measured* its way down
the level chain: apply a delta, compute its RMS, stop when it drops
below τ — paying full I/O for every level it inspected. The encoder now
persists each product's value summary (:class:`~repro.io.query.ChunkStats`)
in the catalog, and the first two moments aggregate exactly across
chunks, so the RMS the progressive loop would measure after each level
is *computable from metadata alone*:

    rms(level) = sqrt( Σ vsumsq / Σ count )  over surviving chunks

:class:`QueryPlanner` walks the level chain on summaries only (the
progressive-retrieval framework of arXiv:2308.11759 — fetch exactly the
components the requested accuracy needs), emits an explainable
:class:`~repro.query.plan.RetrievalPlan`, then executes it as one chain
restore (:meth:`~repro.session.CampaignHandle.restore_chains`), which
fetches every surviving product as one batch. The
chunk-survival rule (region bounding box, ``min_significance``) is
:meth:`repro.core.layout.Chain.chunk_verdicts`, the same call the
decoder reads by, so the executed restore reads exactly the planned set
and the result is bit-identical to the measure-as-you-go loop.

Plans whose surviving products lack summaries come back with
``complete=False`` — the caller falls back to measuring each state of
:meth:`~repro.core.decoder.CanopusDecoder.walk` (datasets written before summaries existed stay fully supported).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.decoder import LevelData
from repro.core.layout import Chain
from repro.errors import QueryError
from repro.io.query import ChunkStats
from repro.lru import LRU
from repro.obs import trace
from repro.query.plan import FETCH, SKIP, PlanDecision, RetrievalPlan

__all__ = ["QueryPlanner", "parse_region", "parse_shape"]


#: Count in the global registry and the active tracer's registry.
_bump = functools.partial(trace.count, everywhere=True)

#: Resolutions memoised per planner (least recently used dropped first).
_RESOLUTIONS = 1024


def check_selection(level=None, tolerance=None, min_significance=0.0) -> None:
    """Raise :class:`QueryError` (HTTP 400) unless at most one of
    ``level``/``tolerance`` is given, ``tolerance`` > 0 (``inf`` allowed)
    and ``min_significance`` >= 0. A NaN compares false to everything, so
    it fails either bound instead of silently restoring full accuracy."""
    if level is not None and tolerance is not None:
        raise QueryError("restore takes level or tolerance, not both")
    if tolerance is not None and not tolerance > 0:
        raise QueryError("tolerance must be > 0 (use level=0 for full accuracy)")
    if not min_significance >= 0:
        raise QueryError("min_significance must be >= 0")


def normalize_region(region) -> tuple[np.ndarray, np.ndarray] | None:
    """Validate and canonicalize a ``(lo_xy, hi_xy)`` window.

    Raises :class:`QueryError` (a ``ValueError`` carrying the
    ``bad-request`` wire code) when the window is empty — a query over
    nothing would otherwise silently degrade to a base-only restore.
    """
    if region is None:
        return None
    lo, hi = (np.asarray(b, dtype=np.float64).ravel() for b in region)
    if lo.shape != (2,) or hi.shape != (2,):
        raise QueryError(
            f"region must be ((x0, y0), (x1, y1)); got {region!r}"
        )
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise QueryError(f"region bounds must be finite; got {region!r}")
    if np.any(lo > hi):
        raise QueryError(
            f"empty region: lo {lo.tolist()} exceeds hi {hi.tolist()}"
        )
    return lo, hi


def parse_region(raw: str | None) -> tuple[np.ndarray, np.ndarray] | None:
    """The text window ``"x0,y0:x1,y1"`` (CLI ``--region``, service
    ``region=``) as a :func:`normalize_region` window; empty is none."""
    if not raw:
        return None
    lo, sep, hi = raw.partition(":")
    if not sep:
        raise QueryError(f"region must be 'x0,y0:x1,y1'; got {raw!r}")
    try:
        window = [[float(v) for v in side.split(",")] for side in (lo, hi)]
    except ValueError:
        raise QueryError(f"region coordinates must be numbers; got {raw!r}") from None
    return normalize_region(window)


def parse_shape(raw: str | None) -> tuple[int, int]:
    """The text raster grid ``"ny,nx"`` of a blob query (CLI ``--shape``,
    service ``shape=``), at most 2**20 pixels; empty is ``(128, 128)``."""
    if not raw:
        return (128, 128)
    try:
        dims = tuple(int(v) for v in raw.split(","))
    except ValueError:
        dims = ()
    if len(dims) != 2 or min(dims) < 1:
        raise QueryError(f"shape must be two positive integers 'ny,nx'; got {raw!r}")
    if dims[0] * dims[1] > 1 << 20:  # every grid point is held at once
        raise QueryError(f"shape {raw!r} exceeds 1024 x 1024 pixels")
    return dims


class QueryPlanner:
    """Plans and executes accuracy-aware restores over one campaign handle."""

    def __init__(self, handle) -> None:
        self.handle = handle
        self.dataset = handle.dataset
        self.decoder = handle.decoder
        self.resolutions = LRU(_RESOLUTIONS)  # tolerance key -> target level

    # ------------------------------------------------------------------
    def plan_restore(
        self,
        var: str,
        *,
        tolerance: float | None = None,
        level: int | None = None,
        region: tuple | None = None,
        min_significance: float = 0.0,
    ) -> RetrievalPlan:
        """Plan one restore without touching payload bytes.

        Exactly one of ``tolerance``/``level`` chooses the target (like
        :meth:`Session.restore`; neither means full accuracy). The
        returned plan lists every product with a fetch/skip decision;
        ``plan.complete`` is False when summaries were missing and the
        tolerance target could not be certified. A complete tolerance
        plan's target level is memoised on the way out (:meth:`resolved`).
        """
        check_selection(level, tolerance, min_significance)
        window = normalize_region(region)
        chain = self.decoder.chain(var)
        with trace.span(
            "query.plan", "query",
            {"var": var,
             "mode": "tolerance" if tolerance is not None else "level",
             "tolerance": tolerance},
        ):
            plan = self._plan(
                chain, tolerance, level, window, min_significance
            )
        _bump("query.plan.calls")
        # A level is its own target: only a tolerance's is worth keeping,
        # and an uncertified one is measured, not replayed.
        if tolerance is not None and plan.complete:
            key = self._memo_key(chain, tolerance, window, min_significance)
            self.resolutions.put(key, plan.target_level)
        return plan

    def resolved(
        self, var: str, *, tolerance: float, region=None,
        min_significance: float = 0.0,
    ) -> int | None:
        """The target level :meth:`plan_restore` memoised for the same
        tolerance selection, or ``None``.

        Never plans, so it is cheap enough for the service's event loop.
        Each call counts one memo hit or miss."""
        return self.resolutions.get(self._memo_key(
            self.decoder.chain(var), tolerance, region, min_significance
        ))

    def _memo_key(
        self, chain, tolerance, region=None, min_significance=0.0
    ) -> tuple:
        """``(chain, "tolerance", tolerance, min_significance, signature)``."""
        signature = chain.filter_signature(
            self.dataset.catalog, 0, normalize_region(region), min_significance
        )
        return (
            chain.name, "tolerance", tolerance, float(min_significance),
            signature,
        )

    def _plan(
        self, chain: Chain, tolerance, level, window, min_significance
    ) -> RetrievalPlan:
        var, scheme = chain.name, chain.scheme
        base_level = scheme.base_level
        if level is not None:
            scheme.validate_level(int(level))
        mode = "tolerance" if tolerance is not None else "level"
        plan = RetrievalPlan(
            var=var,
            mode=mode,
            target_level=0 if level is None else int(level),
            tolerance=tolerance,
            region=None if window is None else (
                [float(v) for v in window[0]],
                [float(v) for v in window[1]],
            ),
            min_significance=float(min_significance),
        )

        # Base estimate: always read (both modes start from it).
        for key, kind in (
            (chain.base_key, "base"),
            (chain.mesh_key(base_level), "geometry"),
        ):
            self._decide(
                plan, key, kind, base_level, FETCH, "base estimate"
            )

        explicit_target = plan.target_level
        stopped_at: int | None = None
        for lvl in range(base_level - 1, -1, -1):
            if mode == "level" and lvl < explicit_target:
                stopped_at = explicit_target
                break
            if stopped_at is not None:
                break
            self._decide_geometry(plan, chain, lvl, FETCH, "restore chain")
            rms = self._survey_level(
                plan, chain, lvl, window, min_significance
            )
            if rms is not None and not np.isnan(rms):
                plan.level_rms[lvl] = float(rms)
            if mode != "tolerance":
                continue
            if rms is None:
                # A surviving product without a summary: the stopping
                # rule cannot be evaluated from metadata. Plan the rest
                # of the chain conservatively and flag the plan.
                plan.complete = False
                continue
            # Mirror the measured walk: stop after the first applied delta
            # whose RMS ≤ τ; NaN (nothing survived the filter) never
            # stops — "nothing read" must not look like convergence.
            if not np.isnan(rms) and rms <= tolerance:
                stopped_at = lvl
        if mode == "tolerance":
            plan.target_level = (
                stopped_at if stopped_at is not None else 0
            )
        # Everything finer than the target is provably unnecessary.
        reason = (
            f"tolerance {tolerance:g} met at level {plan.target_level}"
            if mode == "tolerance" and stopped_at is not None
            else f"below target level {plan.target_level}"
        )
        for lvl in range(plan.target_level - 1, -1, -1):
            self._decide_geometry(plan, chain, lvl, SKIP, reason)
            self._survey_level(plan, chain, lvl, None, 0.0, skip=reason)
        return plan

    # ------------------------------------------------------------------
    def _decide(
        self, plan, key, kind, level, action, reason
    ) -> None:
        if key not in self.dataset.catalog:
            return
        rec = self.dataset.inq(key)
        plan.decisions.append(
            PlanDecision(
                key=key, kind=kind, level=level,
                nbytes=rec.length, action=action, reason=reason,
            )
        )

    def _decide_geometry(self, plan, chain, lvl, action, reason) -> None:
        for key in chain.geometry_keys(lvl):
            self._decide(plan, key, "geometry", lvl, action, reason)

    def _survey_level(
        self, plan, chain, lvl, window, min_significance, skip=None
    ):
        """Fetch/skip every product of one delta level; predicted RMS.

        Chunks survive by :meth:`Chain.chunk_verdicts` — the call the
        decoder reads by — so execution reads exactly this set. Returns
        the count-weighted RMS over surviving summaries, NaN when
        nothing survives, or ``None`` when a surviving product has no
        summary. ``skip`` is the reason the whole level is unnecessary
        (it lies below the plan's target): every product is then
        recorded as skipped.
        """
        survivors: list = []
        if not chain.chunked:
            key = chain.delta_key(lvl)
            if skip is not None:
                self._decide(plan, key, "delta", lvl, SKIP, skip)
            elif key in self.dataset.catalog:
                # Unchunked deltas cannot be pruned: the decoder always
                # applies the whole level (region/significance only gate
                # spatial chunks), so the RMS covers every vertex.
                self._decide(
                    plan, key, "delta", lvl, FETCH, "whole-level delta"
                )
                survivors.append(self.dataset.inq(key))
            else:
                plan.complete = False
                return None
        else:
            for c, rec, verdict in chain.chunk_verdicts(
                self.dataset.catalog, lvl, window, min_significance
            ):
                reason = skip or verdict
                action = SKIP if reason else FETCH
                reason = reason or "chunk survives filters"
                self._decide(plan, rec.key, "chunk", lvl, action, reason)
                self._decide(
                    plan, chain.idx_key(lvl, c), "index", lvl, action, reason
                )
                if action == FETCH:
                    survivors.append(rec)
        if not survivors:
            return float("nan")
        parts = []
        for rec in survivors:
            raw = rec.attrs.get("stats")
            if raw is None:
                return None
            parts.append(ChunkStats(**raw))
        merged = ChunkStats.merge(parts)
        return merged.rms if merged.count else float("nan")

    # ------------------------------------------------------------------
    def execute(self, plan: RetrievalPlan) -> LevelData:
        """Run a plan: one chain restore through
        :meth:`~repro.session.CampaignHandle.restore_chains`.

        That restore fetches every key from the base down to the plan's
        target as one overlapped batch (the decoder's
        :meth:`~repro.core.decoder.CanopusDecoder.chain_keys`, chunks
        kept by :meth:`Chain.chunk_verdicts`, the rule this plan was
        built by), so it reads exactly the planned set and the batch's
        charge lands in the returned timings. Results are bit-identical
        to the progressive loop with the same arguments.
        """
        with trace.span(
            "query.execute", "query",
            {"var": plan.var, "target": plan.target_level,
             "planned_bytes": plan.planned_bytes,
             "pruned_chunks": plan.pruned_chunks},
        ):
            state = self.handle.restore_chains(
                [plan.var], plan.target_level,
                region=plan.region, min_significance=plan.min_significance,
            )[plan.var]
        _bump("query.plan.executed")
        _bump("query.plan.planned_bytes", plan.planned_bytes)
        _bump("query.plan.skipped_bytes", plan.skipped_bytes)
        _bump("query.pruned_chunks", plan.pruned_chunks)
        _bump("query.plan.levels_skipped", len(plan.skipped_levels))
        return state

    def restore(
        self,
        var: str,
        *,
        tolerance: float | None = None,
        level: int | None = None,
        region: tuple | None = None,
        min_significance: float = 0.0,
    ) -> tuple[LevelData, RetrievalPlan]:
        """Plan + execute in one call; returns ``(state, plan)``."""
        plan = self.plan_restore(
            var,
            tolerance=tolerance,
            level=level,
            region=region,
            min_significance=min_significance,
        )
        return self.execute(plan), plan
