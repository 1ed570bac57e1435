"""Placement planning: mapping refactored products onto storage tiers.

Paper Fig. 1 / §III-D: the base goes to the fastest tier (ST2), the
coarsest delta to the next (ST1), the finest delta to the slowest (ST0).
"Note that the adjacent levels are not necessarily mapped to adjacent
physical levels due to the fact that some physical tiers may not have
the sufficient capacity" — the *preferred* tier computed here is a hint;
the dataset layer applies the bypass rule against actual capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.notation import LevelScheme

__all__ = ["TierPreference", "plan_placement"]


@dataclass(frozen=True)
class TierPreference:
    """Preferred tier index (0 = fastest) for each product."""

    base_tier: int
    delta_tiers: dict[int, int]  # delta level l -> preferred tier index

    def preferred_tier_for_delta(self, level: int) -> int:
        return self.delta_tiers[level]


def plan_placement(scheme: LevelScheme, num_tiers: int) -> TierPreference:
    """Compute preferred tiers for a base + delta chain.

    The base prefers tier 0. Delta level ``l`` (which lifts ``l+1 → l``)
    prefers tier ``N−1−l`` clamped to the slowest tier: coarser deltas
    (read more often, smaller) sit on faster tiers than finer ones.

    With the paper's 3 levels and 3 tiers: base → ST2 (fastest),
    delta^{1-2} → ST1, delta^{0-1} → ST0 (slowest).
    """
    delta_tiers = {
        lvl: min(num_tiers - 1, scheme.num_levels - 1 - lvl)
        for lvl in scheme.delta_levels()
    }
    return TierPreference(base_tier=0, delta_tiers=delta_tiers)
