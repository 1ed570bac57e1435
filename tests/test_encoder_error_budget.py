"""Tests for the encoder's total-error-budget guarantee."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.errors import CanopusError, CompressionError
from repro.io import BPDataset
from repro.mesh.generators import disk
from repro.storage import two_tier_titan


def roundtrip(tmp_path, budget, levels, mode="absolute", codec="zfp"):
    mesh = disk(400, seed=0)
    v = mesh.vertices
    field = np.sin(4 * v[:, 0]) * np.cos(3 * v[:, 1])
    h = two_tier_titan(tmp_path, fast_capacity=8 << 20, slow_capacity=1 << 33)
    enc = CanopusEncoder(
        h, codec=codec, codec_params={"mode": mode} if codec == "zfp" else {},
        total_error_budget=budget,
    )
    enc.encode("b", "f", mesh, field, LevelScheme(levels))
    dec = CanopusDecoder(BPDataset.open("b", h))
    out = dec.restore_to("f", 0)
    return field, out.field


class TestErrorBudget:
    @pytest.mark.parametrize("levels", [2, 3, 4])
    def test_absolute_budget_met(self, tmp_path, levels):
        budget = 1e-3
        field, restored = roundtrip(tmp_path, budget, levels)
        assert np.abs(restored - field).max() <= budget + 1e-14

    def test_relative_budget_met(self, tmp_path):
        budget = 1e-3  # fraction of the range
        field, restored = roundtrip(tmp_path, budget, 3, mode="relative")
        assert np.abs(restored - field).max() <= budget * np.ptp(field) + 1e-14

    def test_sz_codec_budget(self, tmp_path):
        budget = 1e-4
        field, restored = roundtrip(tmp_path, budget, 3, codec="sz")
        assert np.abs(restored - field).max() <= budget + 1e-14

    def test_budget_overrides_tolerance(self, tmp_path):
        mesh = disk(200, seed=1)
        field = mesh.vertices[:, 0]
        h = two_tier_titan(tmp_path, fast_capacity=8 << 20, slow_capacity=1 << 33)
        enc = CanopusEncoder(
            h, codec="zfp",
            codec_params={"tolerance": 10.0},  # hopelessly loose
            total_error_budget=1e-5,
        )
        enc.encode("o", "f", mesh, field, LevelScheme(2))
        dec = CanopusDecoder(BPDataset.open("o", h))
        out = dec.restore_to("f", 0)
        assert np.abs(out.field - field).max() <= 1e-5 + 1e-14

    def test_invalid_budget(self, tmp_path):
        h = two_tier_titan(tmp_path, fast_capacity=1 << 20, slow_capacity=1 << 30)
        with pytest.raises(CanopusError):
            CanopusEncoder(h, total_error_budget=0.0)
        with pytest.raises(CanopusError):
            CanopusEncoder(h, total_error_budget=-1.0)

    @pytest.mark.parametrize("budget", [np.nan, np.inf])
    def test_non_finite_budget_rejected(self, tmp_path, budget):
        h = two_tier_titan(tmp_path, fast_capacity=1 << 20, slow_capacity=1 << 30)
        with pytest.raises(CanopusError, match="finite"):
            CanopusEncoder(h, total_error_budget=budget)

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf])
    @pytest.mark.parametrize("codec", ["zfp", "sz"])
    def test_non_finite_codec_tolerance_rejected(self, tmp_path, codec, tolerance):
        """A NaN or infinite tolerance used to write a dataset that
        restored every value as NaN; the encoder's codec check stops it."""
        h = two_tier_titan(tmp_path, fast_capacity=1 << 20, slow_capacity=1 << 30)
        with pytest.raises(CompressionError, match="finite"):
            CanopusEncoder(h, codec=codec, codec_params={"tolerance": tolerance})

    @settings(
        max_examples=5, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        budget_exp=st.integers(-6, -2),
        levels=st.integers(2, 4),
    )
    def test_budget_property(self, budget_exp, levels, tmp_path_factory):
        budget = 10.0**budget_exp
        field, restored = roundtrip(
            tmp_path_factory.mktemp("eb"), budget, levels
        )
        assert np.abs(restored - field).max() <= budget + 1e-14
