"""Cost-based placement engine over the storage hierarchy.

The seed placed products with a fastest-first capacity walk (paper
§III-D): try the fastest tier, bypass when full. That walk is myopic —
it spends scarce fast-tier bytes on whatever arrives first, not on what
readers will actually fetch. This module replaces it with a planner:

* every product is a :class:`ProductSpec` — size plus a *read weight*
  (expected relative read frequency, seeded from the refinement level
  heuristic at write time and from live
  :class:`~repro.storage.policy.AccessTracker` statistics afterwards);
* the expected cost of serving a product from a tier is
  ``weight * device.read_seconds(nbytes)``, plus a one-off migration
  penalty (``read(src) + write(dst)`` seconds) when the product already
  lives somewhere else;
* the engine assigns products to tiers greedily by *benefit density* —
  how many expected seconds per byte a product saves by sitting on fast
  storage — under per-tier capacity budgets, and emits an explainable
  :class:`PlacementPlan` recording, per product, every tier considered,
  its cost, and why it was chosen or skipped.

Re-running the planner as access statistics shift (see
``TierManager.replan``) is the elastic re-tiering the paper defers to
future work ("we believe data migration and eviction will play an
integral part").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CapacityError
from repro.obs import trace
from repro.storage.hierarchy import StorageHierarchy

__all__ = [
    "ProductSpec",
    "PlacementDecision",
    "PlacementPlan",
    "PlacementEngine",
    "default_weight",
]


def default_weight(kind: str, level: int = 0) -> float:
    """Write-time read-weight heuristic for a refactored product.

    Progressive readers touch the base on *every* restore and coarser
    deltas far more often than the finest ones (arXiv:2308.11759's
    observation that retrieval favours low-accuracy prefixes), so the
    base gets the highest weight and delta weight grows with the level
    index (level L-1 is the coarsest refinement step).
    """
    if kind == "base":
        return 4.0
    if kind in ("delta", "mesh", "mapping"):
        return 1.0 + max(0, level)
    return 1.0


@dataclass(frozen=True)
class ProductSpec:
    """A placeable product: size, read weight, optional current home.

    ``replicas`` is the durability the product *wants* — how many
    independent copies of its bytes should exist. Tiers advertise what
    they provide via :attr:`StorageTier.replication_factor`; the planner
    charges a redundancy-risk penalty for placing a product on a tier
    that under-replicates it (see ``durability_weight``).
    """

    key: str
    nbytes: int
    weight: float = 1.0
    current_tier: str | None = None
    replicas: int = 1


@dataclass
class PlacementDecision:
    """Where one product goes, and why.

    ``considered`` holds ``(tier, expected_seconds, note)`` for every
    tier the planner looked at, in hierarchy order; ``reason`` is the
    one-line explanation for the chosen tier.
    """

    key: str
    nbytes: int
    weight: float
    tier: str
    est_seconds: float
    reason: str
    considered: list[tuple[str, float, str]] = field(default_factory=list)
    current_tier: str | None = None

    @property
    def is_move(self) -> bool:
        return self.current_tier is not None and self.current_tier != self.tier


@dataclass
class PlacementPlan:
    """Explainable outcome of one planning pass."""

    decisions: list[PlacementDecision]

    @property
    def est_read_seconds(self) -> float:
        """Expected weighted read time if the plan is applied."""
        return sum(d.est_seconds for d in self.decisions)

    def tier_of(self, key: str) -> str:
        for d in self.decisions:
            if d.key == key:
                return d.tier
        raise KeyError(key)

    def moves(self) -> list[tuple[str, str, str]]:
        """Migrations implied by the plan, as ``(key, from, to)``."""
        return [
            (d.key, d.current_tier, d.tier)
            for d in self.decisions
            if d.is_move
        ]

    def by_tier(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for d in self.decisions:
            out.setdefault(d.tier, []).append(d.key)
        return out

    def explain(self) -> str:
        """Human-readable plan dump (one block per product)."""
        lines = [
            f"placement plan: {len(self.decisions)} product(s), "
            f"expected weighted read time {self.est_read_seconds * 1e3:.3f} ms"
        ]
        for d in self.decisions:
            arrow = (
                f"{d.current_tier} -> {d.tier}" if d.is_move
                else d.tier
            )
            lines.append(
                f"  {d.key}: {d.nbytes} B, weight {d.weight:g} -> {arrow} "
                f"({d.reason})"
            )
            for tier, cost, note in d.considered:
                lines.append(f"    {tier}: {cost * 1e3:.3f} ms {note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "est_read_seconds": self.est_read_seconds,
            "decisions": [
                {
                    "key": d.key,
                    "nbytes": d.nbytes,
                    "weight": d.weight,
                    "tier": d.tier,
                    "current_tier": d.current_tier,
                    "est_seconds": d.est_seconds,
                    "reason": d.reason,
                }
                for d in self.decisions
            ],
        }


class PlacementEngine:
    """Cost-based planner over a :class:`StorageHierarchy`.

    Stateless between calls: every ``plan*`` method reads the current
    tier capacities (or explicit budgets) and returns a fresh
    :class:`PlacementPlan` without touching storage — execution is the
    caller's job (``BPDataset.close`` for initial placement,
    ``TierManager`` for re-placement).
    """

    def __init__(self, hierarchy: StorageHierarchy) -> None:
        self.hierarchy = hierarchy

    # ------------------------------------------------------------------
    def _benefit_density(self, p: ProductSpec) -> float:
        """Expected seconds saved per byte by fast placement."""
        slow = self.hierarchy.slowest.device.read_seconds(p.nbytes)
        fast = self.hierarchy.fastest.device.read_seconds(p.nbytes)
        return p.weight * (slow - fast) / max(1, p.nbytes)

    def _migration_seconds(self, src_name: str, dst_name: str, nbytes: int) -> float:
        src = self.hierarchy.tier(src_name)
        dst = self.hierarchy.tier(dst_name)
        return src.device.read_seconds(nbytes) + dst.device.write_seconds(nbytes)

    def plan(
        self,
        products: list[ProductSpec],
        *,
        capacities: dict[str, int] | None = None,
        durability_weight: float = 0.0,
    ) -> PlacementPlan:
        """Assign every product to a tier under capacity budgets.

        ``capacities`` maps tier name to available bytes; by default each
        tier offers its current free space plus the sizes of any products
        already on it (they are being re-placed, so their bytes are up
        for grabs). Raises :class:`CapacityError` when a product fits on
        no tier at all.

        ``durability_weight`` trades redundancy against tier budget: a
        product asking for N replicas pays, on a tier whose backend keeps
        fewer copies, an extra ``durability_weight × shortfall`` times
        the slowest tier's read time for its bytes — the expected cost of
        re-reading the product from cold storage after a copy is lost.
        At 0 (default) durability plays no role; large values pin
        replica-hungry products onto replicated tiers even when they are
        slower.
        """
        remaining: dict[str, int] = (
            dict(capacities)
            if capacities is not None
            else {t.name: t.free_bytes for t in self.hierarchy.tiers}
        )
        if capacities is None:
            for p in products:
                if p.current_tier is not None and p.current_tier in remaining:
                    remaining[p.current_tier] += p.nbytes

        ordered = sorted(
            products, key=lambda p: (-self._benefit_density(p), p.key)
        )
        decisions: dict[str, PlacementDecision] = {}
        for p in ordered:
            considered: list[tuple[str, float, str]] = []
            best: tuple[float, int, str] | None = None
            for idx, tier in enumerate(self.hierarchy.tiers):
                serve = p.weight * tier.device.read_seconds(p.nbytes)
                note = ""
                cost = serve
                if p.current_tier is not None and tier.name != p.current_tier:
                    move = self._migration_seconds(
                        p.current_tier, tier.name, p.nbytes
                    )
                    cost += move
                    note = f"(+{move * 1e3:.3f} ms migration)"
                shortfall = max(0, p.replicas - tier.replication_factor)
                if shortfall and durability_weight > 0:
                    risk = (
                        durability_weight
                        * shortfall
                        * self.hierarchy.slowest.device.read_seconds(p.nbytes)
                    )
                    cost += risk
                    note += (
                        f" [under-replicated {tier.replication_factor}"
                        f"<{p.replicas}: +{risk * 1e3:.3f} ms risk]"
                    )
                if remaining.get(tier.name, 0) < p.nbytes:
                    considered.append(
                        (tier.name, cost, note + " [skipped: insufficient capacity]")
                    )
                    continue
                considered.append((tier.name, cost, note))
                if best is None or cost < best[0]:
                    best = (cost, idx, tier.name)
            if best is None:
                raise CapacityError(
                    f"product {p.key!r} ({p.nbytes} bytes) fits on no tier"
                )
            cost, _, tier_name = best
            remaining[tier_name] -= p.nbytes
            if p.current_tier == tier_name:
                reason = f"stays: cheapest at {cost * 1e3:.3f} ms expected"
            elif p.current_tier is not None:
                reason = (
                    f"move pays for itself: {cost * 1e3:.3f} ms expected "
                    f"including migration"
                )
            else:
                reason = f"cheapest expected read time {cost * 1e3:.3f} ms"
            decisions[p.key] = PlacementDecision(
                key=p.key,
                nbytes=p.nbytes,
                weight=p.weight,
                tier=tier_name,
                est_seconds=cost,
                reason=reason,
                considered=considered,
                current_tier=p.current_tier,
            )
        plan = PlacementPlan([decisions[p.key] for p in products])
        trace.count("placement.plans")
        trace.count("placement.planned_bytes", sum(p.nbytes for p in products))
        tracer = trace.get_tracer()
        if tracer is not None:
            with tracer.span(
                "placement.plan", "placement",
                {
                    "products": len(products),
                    "moves": len(plan.moves()),
                    "est_read_ms": plan.est_read_seconds * 1e3,
                },
            ):
                pass
        return plan

    # ------------------------------------------------------------------
    def plan_replacement(
        self,
        tracker,
        *,
        headroom: float = 1.0,
        min_weight: float = 0.0,
        replicas: int = 1,
        durability_weight: float = 0.0,
    ) -> PlacementPlan:
        """Re-place everything currently stored, weighted by live reads.

        Builds one :class:`ProductSpec` per stored object with
        ``weight = observed reads`` (``min_weight`` for never-read
        objects), gives each tier a budget of ``headroom`` × capacity,
        and plans. The migration penalty keeps cold data in place unless
        hot data genuinely needs its bytes — the plan is a no-op when
        access patterns already match placement.

        ``replicas``/``durability_weight`` make redundancy a cost
        dimension: with a non-zero weight the plan trades replica
        shortfall against tier budget, steering products that want N
        copies onto tiers whose backends actually mirror N ways (see
        :meth:`plan`).
        """
        products = []
        for tier in self.hierarchy.tiers:
            for relpath in tier.list_files():
                info = tracker.records.get(relpath)
                weight = float(info.reads) if info is not None else min_weight
                products.append(
                    ProductSpec(
                        key=relpath,
                        nbytes=tier.file_size(relpath),
                        weight=weight,
                        current_tier=tier.name,
                        replicas=replicas,
                    )
                )
        budgets = {
            t.name: int(headroom * t.capacity_bytes)
            for t in self.hierarchy.tiers
        }
        return self.plan(
            products, capacities=budgets, durability_weight=durability_weight
        )
