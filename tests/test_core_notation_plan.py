"""Tests for level notation, schemes, and placement planning."""

import pytest

from repro.core import LevelScheme, plan_placement
from repro.core.notation import (
    chunk_key,
    delta_key,
    level_key,
    mapping_key,
    mesh_key,
)
from repro.errors import CanopusError


class TestKeys:
    def test_key_formats(self):
        assert level_key("dpot", 2) == "dpot/L2"
        assert delta_key("dpot", 1) == "dpot/delta1-2"
        assert delta_key("dpot", 0) == "dpot/delta0-1"
        assert mapping_key("dpot", 0) == "dpot/mapping0"
        assert mesh_key("dpot", 2) == "dpot/mesh2"
        assert chunk_key("dpot", 0, 3) == "dpot/delta0-1/chunk3"


class TestLevelScheme:
    def test_basic(self):
        s = LevelScheme(3)
        assert s.base_level == 2
        assert list(s.levels()) == [0, 1, 2]
        assert list(s.delta_levels()) == [0, 1]

    def test_decimation_ratios(self):
        s = LevelScheme(4, step_ratio=2.0)
        assert s.decimation_ratio(0) == 1.0
        assert s.decimation_ratio(3) == 8.0

    def test_restore_path(self):
        s = LevelScheme(3)
        assert s.restore_path(0) == [1, 0]
        assert s.restore_path(1) == [1]
        assert s.restore_path(2) == []

    def test_single_level(self):
        s = LevelScheme(1)
        assert s.base_level == 0
        assert list(s.delta_levels()) == []
        assert s.restore_path(0) == []

    def test_validation(self):
        with pytest.raises(CanopusError):
            LevelScheme(0)
        with pytest.raises(CanopusError):
            LevelScheme(3, step_ratio=1.0)
        with pytest.raises(CanopusError):
            LevelScheme(3).validate_level(3)
        with pytest.raises(CanopusError):
            LevelScheme(3).validate_level(-1)

    @pytest.mark.parametrize("step_ratio", [float("nan"), float("inf")])
    def test_non_finite_step_ratio_rejected(self, step_ratio):
        with pytest.raises(CanopusError, match="finite"):
            LevelScheme(3, step_ratio=step_ratio)


class TestTierPreference:
    def test_paper_example_three_levels_three_tiers(self):
        """Fig. 1: base → ST2 (fastest), delta1-2 → ST1, delta0-1 → ST0."""
        plan = plan_placement(LevelScheme(3), num_tiers=3)
        assert plan.base_tier == 0
        assert plan.preferred_tier_for_delta(1) == 1
        assert plan.preferred_tier_for_delta(0) == 2

    def test_more_levels_than_tiers_clamps(self):
        plan = plan_placement(LevelScheme(5), num_tiers=2)
        assert plan.base_tier == 0
        # All deltas clamp to the slowest tier.
        for lvl in range(4):
            assert plan.preferred_tier_for_delta(lvl) == 1

    def test_single_tier(self):
        plan = plan_placement(LevelScheme(3), num_tiers=1)
        assert plan.base_tier == 0
        assert plan.preferred_tier_for_delta(0) == 0
        assert plan.preferred_tier_for_delta(1) == 0

    def test_coarser_deltas_on_faster_tiers(self):
        plan = plan_placement(LevelScheme(4), num_tiers=4)
        tiers = [plan.preferred_tier_for_delta(lvl) for lvl in range(3)]
        # Finer level (smaller l) → slower tier (larger index).
        assert tiers == sorted(tiers, reverse=True)
