"""Tier management policy: plan-driven eviction, promotion, re-placement.

Paper §IV-B: "All runs assume that the base dataset can always fit in
tmpfs. However, in a production environment, this may not be true and we
believe data migration and eviction will play an integral part, which
needs to be developed in Canopus." This module develops it:

* every tier gets a **high-water mark**; when usage crosses it, the
  coldest files (least recently / least frequently accessed, by
  simulated-clock timestamps) are demoted one tier down until usage
  falls below the **low-water mark**;
* files that are read often on a slow tier can be **promoted** to the
  fastest tier with room, keeping hot bases fast even under pressure;
* :meth:`TierManager.replan` goes further: it hands the whole inventory
  to the cost-based :class:`~repro.storage.placement.PlacementEngine`
  and executes the resulting :class:`PlacementPlan` — elastic
  re-tiering that migrates deltas up and down as observed read patterns
  shift, instead of reacting to watermarks alone.

Every policy action is expressed as a plan first (``plan_rebalance`` /
``plan_promotions`` return explainable :class:`PlacementPlan` objects
without touching storage) and executed second, so callers can inspect
or veto migrations before bytes move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.obs import trace
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.placement import (
    PlacementDecision,
    PlacementEngine,
    PlacementPlan,
)

__all__ = ["AccessTracker", "TierManager"]


@dataclass
class _AccessInfo:
    reads: int = 0
    last_access: float = 0.0


@dataclass
class AccessTracker:
    """Read statistics per relpath, stamped with the simulated clock."""

    records: dict[str, _AccessInfo] = field(default_factory=dict)

    def note(self, relpath: str, now: float) -> None:
        info = self.records.setdefault(relpath, _AccessInfo())
        info.reads += 1
        info.last_access = now

    def temperature(self, relpath: str) -> tuple[float, int]:
        """Sort key: (last_access, reads); lowest = coldest."""
        info = self.records.get(relpath, _AccessInfo())
        return (info.last_access, info.reads)

    def reads(self, relpath: str) -> int:
        info = self.records.get(relpath)
        return info.reads if info is not None else 0


class TierManager:
    """Plan-driven migration policy over a :class:`StorageHierarchy`."""

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        *,
        high_water: float = 0.9,
        low_water: float = 0.7,
        promote_after_reads: int = 3,
    ) -> None:
        if not 0 < low_water < high_water <= 1.0:
            raise StorageError("need 0 < low_water < high_water <= 1")
        self.hierarchy = hierarchy
        self.high_water = high_water
        self.low_water = low_water
        self.promote_after_reads = promote_after_reads
        self.tracker = AccessTracker()
        self.engine = PlacementEngine(hierarchy)

    # ------------------------------------------------------------------
    def read(self, relpath: str, label: str = "") -> bytes:
        """Tracked read: feeds the policy's access statistics."""
        data = self.hierarchy.read(relpath, label)
        self.tracker.note(relpath, self.hierarchy.clock.elapsed)
        return data

    # ------------------------------------------------------------------
    def plan_rebalance(self) -> PlacementPlan:
        """Plan demotions of cold files from over-watermark tiers.

        Pure planning — storage is untouched. The simulation walks tiers
        fastest-first so demotions planned out of tier *i* count against
        tier *i+1*'s budget before that tier is itself examined, exactly
        as eager execution would. Files on the slowest tier have nowhere
        to go and are left alone.
        """
        tiers = self.hierarchy.tiers
        sim_used = {t.name: t.used_bytes for t in tiers}
        sim_files = {
            t.name: {f: t.file_size(f) for f in t.list_files()} for t in tiers
        }
        decisions: list[PlacementDecision] = []
        for idx, tier in enumerate(tiers[:-1]):
            if sim_used[tier.name] <= self.high_water * tier.capacity_bytes:
                continue
            target = self.low_water * tier.capacity_bytes
            victims = sorted(sim_files[tier.name], key=self.tracker.temperature)
            for relpath in victims:
                if sim_used[tier.name] <= target:
                    break
                size = sim_files[tier.name][relpath]
                dest = None
                for cand in tiers[idx + 1:]:
                    if cand.capacity_bytes - sim_used[cand.name] >= size:
                        dest = cand
                        break
                if dest is None:
                    break  # nothing downstream can hold it
                sim_used[tier.name] -= size
                del sim_files[tier.name][relpath]
                sim_used[dest.name] += size
                sim_files[dest.name][relpath] = size
                weight = float(self.tracker.reads(relpath))
                decisions.append(
                    PlacementDecision(
                        key=relpath,
                        nbytes=size,
                        weight=weight,
                        tier=dest.name,
                        est_seconds=weight * dest.device.read_seconds(size),
                        reason=(
                            f"demote coldest: {tier.name} over high-water "
                            f"{self.high_water:g}"
                        ),
                        current_tier=tier.name,
                    )
                )
        return PlacementPlan(decisions)

    def rebalance(self) -> list[tuple[str, str, str]]:
        """Demote cold files from over-watermark tiers.

        Returns the migrations performed as ``(relpath, from, to)``.
        """
        return self._execute(self.plan_rebalance())

    # ------------------------------------------------------------------
    def plan_promotions(self) -> PlacementPlan:
        """Plan pulls of frequently-read files up to the fastest tier.

        Promotion respects the fastest tier's high-water mark so a
        promotion never triggers the very eviction that would undo it
        (watermark thrash).
        """
        fastest = self.hierarchy.fastest
        sim_used = fastest.used_bytes
        decisions: list[PlacementDecision] = []
        for relpath, info in sorted(
            self.tracker.records.items(),
            key=lambda kv: -kv[1].reads,
        ):
            if info.reads < self.promote_after_reads:
                continue
            src = self.hierarchy.locate(relpath)
            if src is None or src is fastest:
                continue
            size = src.file_size(relpath)
            if size <= fastest.capacity_bytes - sim_used and (
                sim_used + size
                <= self.high_water * fastest.capacity_bytes
            ):
                sim_used += size
                weight = float(info.reads)
                decisions.append(
                    PlacementDecision(
                        key=relpath,
                        nbytes=size,
                        weight=weight,
                        tier=fastest.name,
                        est_seconds=weight * fastest.device.read_seconds(size),
                        reason=(
                            f"hot: {info.reads} reads >= "
                            f"{self.promote_after_reads}"
                        ),
                        current_tier=src.name,
                    )
                )
        return PlacementPlan(decisions)

    def promote_hot(self) -> list[tuple[str, str, str]]:
        """Pull frequently-read files up to the fastest tier with room."""
        return self._execute(self.plan_promotions())

    # ------------------------------------------------------------------
    def replan(
        self,
        *,
        headroom: float | None = None,
        replicas: int = 1,
        durability_weight: float = 0.0,
    ) -> list[tuple[str, str, str]]:
        """Cost-based elastic re-tiering of the whole inventory.

        Asks the :class:`PlacementEngine` for a globally cost-optimal
        re-placement weighted by live read statistics, then executes the
        implied migrations (demotions before promotions, so fast-tier
        capacity is freed before it is claimed). Returns the migrations
        performed. A no-op when placement already matches demand — the
        migration penalty in the cost model keeps cold data where it is.
        ``replicas``/``durability_weight`` pass through to
        :meth:`PlacementEngine.plan_replacement`, letting re-tiering
        trade redundancy against tier budget.
        """
        plan = self.engine.plan_replacement(
            self.tracker,
            headroom=self.high_water if headroom is None else headroom,
            replicas=replicas,
            durability_weight=durability_weight,
        )
        return self._execute(plan, demote_first=True)

    # ------------------------------------------------------------------
    def _execute(
        self, plan: PlacementPlan, *, demote_first: bool = False
    ) -> list[tuple[str, str, str]]:
        """Apply a plan's migrations; returns ``(relpath, from, to)``.

        With ``demote_first`` the moves are reordered so migrations
        toward slower tiers run before promotions (relative order
        otherwise preserved) — required for plans produced globally,
        where promotions assume demotions have freed capacity.
        """
        index = {t.name: i for i, t in enumerate(self.hierarchy.tiers)}
        moving = [d for d in plan.decisions if d.is_move]
        if demote_first:
            moving = (
                [d for d in moving if index[d.tier] > index[d.current_tier]]
                + [d for d in moving if index[d.tier] < index[d.current_tier]]
            )
        moves: list[tuple[str, str, str]] = []
        for d in moving:
            self.hierarchy.migrate(d.key, d.tier)
            moves.append((d.key, d.current_tier, d.tier))
            trace.count("placement.migrations", src=d.current_tier, dst=d.tier)
            trace.count("placement.bytes_moved", d.nbytes)
        return moves
