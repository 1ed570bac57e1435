"""Explainable retrieval plans (the read-side `PlacementPlan`).

A :class:`RetrievalPlan` records, product by product, what one
accuracy-aware query will fetch and what it proved it can skip — the
explainability surface of the planner, mirroring
:class:`~repro.storage.placement.PlacementPlan` on the write/placement
side. Plans are pure data: building one touches only catalog metadata
(per-chunk summaries, bounding boxes, byte lengths), never payload
bytes, so ``plan → inspect → execute`` is the intended workflow and an
unexecuted plan costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PlanDecision", "RetrievalPlan"]

#: Decision actions.
FETCH = "fetch"
SKIP = "skip"


@dataclass(frozen=True)
class PlanDecision:
    """One stored product's fate under the plan, and why.

    ``kind`` distinguishes the base estimate, delta payloads (whole or
    spatially chunked), and geometry (mesh/mapping) products; ``reason``
    is the one-line justification (``"bbox outside region"``,
    ``"tolerance met at level 1"``, ...).
    """

    key: str
    kind: str
    level: int
    nbytes: int
    action: str
    reason: str

    @property
    def fetched(self) -> bool:
        return self.action == FETCH


@dataclass
class RetrievalPlan:
    """Explainable outcome of planning one accuracy-aware retrieval.

    Attributes
    ----------
    var / mode:
        The variable and how the target was chosen: ``"tolerance"``
        (accuracy-driven, from per-level delta summaries) or
        ``"level"`` (explicit level request).
    target_level:
        The level the executed restore will stop at.
    tolerance / region / min_significance:
        The query shape. ``region`` is stored as plain ``(lo, hi)``
        coordinate lists so the plan serializes.
    complete:
        True when every surviving product carried a summary, i.e. the
        planner could *certify* the target level from metadata alone.
        Incomplete plans are advisory — callers fall back to measuring
        each state of :meth:`~repro.core.decoder.CanopusDecoder.walk`.
    level_rms:
        Planner-predicted applied-delta RMS per delta level (from the
        count-weighted merge of surviving chunk summaries) — exactly
        the ``last_delta_rms`` the walk measures after applying that
        level.
    """

    var: str
    mode: str
    target_level: int
    tolerance: float | None = None
    region: tuple | None = None
    min_significance: float = 0.0
    complete: bool = True
    decisions: list[PlanDecision] = field(default_factory=list)
    level_rms: dict[int, float] = field(default_factory=dict)

    # -- derived accounting --------------------------------------------
    @property
    def planned_bytes(self) -> int:
        return sum(d.nbytes for d in self.decisions if d.fetched)

    @property
    def skipped_bytes(self) -> int:
        return sum(d.nbytes for d in self.decisions if not d.fetched)

    @property
    def pruned_chunks(self) -> int:
        return sum(
            1
            for d in self.decisions
            if not d.fetched and d.kind == "chunk"
        )

    @property
    def skipped_levels(self) -> list[int]:
        """Delta levels the plan proved it never needs to read."""
        fetched = {d.level for d in self.decisions if d.fetched}
        return sorted(
            {
                d.level
                for d in self.decisions
                if not d.fetched and d.kind in ("delta", "chunk")
            }
            - fetched
        )

    def fetch_keys(self) -> list[str]:
        """Catalog keys to batch through one prefetch, in plan order."""
        return [d.key for d in self.decisions if d.fetched]

    # -- presentation ---------------------------------------------------
    def explain(self) -> str:
        """Human-readable plan dump (one line per product)."""
        shape = [f"target level {self.target_level} ({self.mode})"]
        if self.tolerance is not None:
            shape.append(f"tolerance {self.tolerance:g}")
        if self.region is not None:
            shape.append(f"region {self.region}")
        if self.min_significance:
            shape.append(f"min_significance {self.min_significance:g}")
        lines = [
            f"retrieval plan for {self.var!r}: " + ", ".join(shape),
            f"  fetch {self.planned_bytes} B, skip {self.skipped_bytes} B "
            f"({self.pruned_chunks} chunk(s) pruned; "
            f"certified={self.complete})",
        ]
        for lvl in sorted(self.level_rms, reverse=True):
            lines.append(
                f"  level {lvl}: predicted delta rms "
                f"{self.level_rms[lvl]:.3e}"
            )
        for d in self.decisions:
            lines.append(
                f"  [{d.action}] {d.key}: {d.kind} L{d.level}, "
                f"{d.nbytes} B ({d.reason})"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "var": self.var,
            "mode": self.mode,
            "target_level": self.target_level,
            "tolerance": self.tolerance,
            "region": self.region,
            "min_significance": self.min_significance,
            "complete": self.complete,
            "planned_bytes": self.planned_bytes,
            "skipped_bytes": self.skipped_bytes,
            "pruned_chunks": self.pruned_chunks,
            "level_rms": {str(k): v for k, v in self.level_rms.items()},
            "decisions": [
                {
                    "key": d.key,
                    "kind": d.kind,
                    "level": d.level,
                    "nbytes": d.nbytes,
                    "action": d.action,
                    "reason": d.reason,
                }
                for d in self.decisions
            ],
        }
