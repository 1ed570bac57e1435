"""Tests for error metrics and the timed analysis pipeline."""

import numpy as np
import pytest

from repro.analytics import (
    baseline_full_read,
    cross_level_errors,
    field_errors,
    restore_full_accuracy,
    run_analysis_at_level,
)
from repro.errors import AnalyticsError, CanopusError
from repro.harness import setup_experiment
from repro.io import BPDataset
from repro.mesh import decimate
from repro.mesh.generators import disk
from repro.storage import two_tier_titan


class TestFieldErrors:
    def test_identical_fields(self):
        a = np.linspace(0, 1, 100)
        e = field_errors(a, a)
        assert e.rmse == 0.0
        assert e.max_error == 0.0
        assert e.psnr_db == float("inf")

    def test_known_offset(self):
        ref = np.zeros(50)
        test = np.full(50, 0.5)
        e = field_errors(test, ref)
        assert e.rmse == pytest.approx(0.5)
        assert e.max_error == pytest.approx(0.5)
        assert e.nrmse == 0.0  # zero-range reference

    def test_nrmse_normalization(self):
        ref = np.linspace(0, 10, 100)
        e = field_errors(ref + 1.0, ref)
        assert e.nrmse == pytest.approx(0.1)
        assert e.psnr_db == pytest.approx(20.0)

    def test_shape_mismatch(self):
        with pytest.raises(AnalyticsError):
            field_errors(np.zeros(3), np.zeros(4))

    def test_empty(self):
        with pytest.raises(AnalyticsError):
            field_errors(np.zeros(0), np.zeros(0))

    def test_as_dict(self):
        d = field_errors(np.ones(5), np.zeros(5)).as_dict()
        assert set(d) == {"rmse", "nrmse", "max_error", "psnr_db"}


class TestCrossLevelErrors:
    def test_decimated_field_close_on_smooth_data(self):
        mesh = disk(2000, seed=0)
        field = np.sin(mesh.vertices[:, 0] * 2)
        res = decimate(mesh, field, ratio=4)
        e = cross_level_errors(res.mesh, res.fields["data"], mesh, field)
        assert e.nrmse < 0.05

    def test_error_grows_with_decimation(self):
        mesh = disk(2000, seed=1)
        field = np.sin(mesh.vertices[:, 0] * 6) * np.cos(
            mesh.vertices[:, 1] * 6
        )
        errors = []
        current_mesh, current_field = mesh, field
        for _ in range(3):
            res = decimate(current_mesh, current_field, ratio=2)
            current_mesh, current_field = res.mesh, res.fields["data"]
            errors.append(
                cross_level_errors(current_mesh, current_field, mesh, field).rmse
            )
        assert errors[0] < errors[1] < errors[2]


class TestPipeline:
    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        return setup_experiment(
            "xgc1", tmp_path_factory.mktemp("pipe"), scale=0.15
        )

    def test_run_at_base_level(self, setup):
        dec = setup.decoder()
        res = run_analysis_at_level(dec, "dpot", setup.scheme.base_level)
        assert res.level == setup.scheme.base_level
        assert res.decimation_ratio == 4.0
        assert res.io_seconds > 0
        assert res.analysis_seconds >= 0
        assert res.total_seconds == pytest.approx(sum(res.phases().values()))

    def test_analysis_callback_invoked(self, setup):
        dec = setup.decoder()
        res = run_analysis_at_level(
            dec, "dpot", 1, analysis=lambda s: len(s.field)
        )
        assert res.output == len(
            setup.refactored.levels[1]
        )

    def test_full_restore(self, setup):
        dec = setup.decoder()
        res = restore_full_accuracy(dec, "dpot")
        assert res.level == 0
        assert res.decimation_ratio == 1.0
        assert res.restore_seconds > 0

    def test_invalid_level(self, setup):
        dec = setup.decoder()
        with pytest.raises(CanopusError):
            run_analysis_at_level(dec, "dpot", 99)

    def test_baseline_full_read(self, setup):
        res = baseline_full_read(
            setup.hierarchy, setup.baseline_name, "dpot",
            analysis=lambda s: float(s.field.max()),
        )
        assert res.level == 0
        assert res.restore_seconds == 0.0
        assert res.output == pytest.approx(float(setup.dataset.field.max()))

    def test_baseline_missing_mesh(self, tmp_path):
        h = two_tier_titan(tmp_path, fast_capacity=1 << 20, slow_capacity=1 << 32)
        ds = BPDataset.create("nomesh", h)
        from repro.compress import get_codec

        ds.write("v/L0", get_codec("raw").encode(np.ones(5)), kind="base", level=0)
        ds.close()
        with pytest.raises(AnalyticsError):
            baseline_full_read(h, "nomesh", "v")

    def test_canopus_beats_baseline_at_reduced_accuracy(self, setup):
        """The headline claim: reduced-accuracy analytics is much faster."""
        dec = setup.decoder()
        canopus = run_analysis_at_level(dec, "dpot", setup.scheme.base_level)
        baseline = baseline_full_read(
            setup.hierarchy, setup.baseline_name, "dpot"
        )
        assert canopus.io_seconds < baseline.io_seconds / 2

    def test_canopus_full_restore_cheaper_io_than_baseline(self, tmp_path):
        """Fig. 9b: restoring L0 from base+deltas beats the raw L0 read.

        Holds in the bandwidth-dominated regime of the paper's data
        volumes (dpot is a multi-plane 3-D variable); tiny single-plane
        payloads are latency-bound and do not show it, so this test uses
        a plane stack.
        """
        setup = setup_experiment(
            "xgc1", tmp_path, scale=0.3, planes=64, fast_capacity=64 << 20
        )
        dec = setup.decoder()
        full = restore_full_accuracy(
            dec, "dpot", analysis=lambda s: s.field.shape
        )
        baseline = baseline_full_read(
            setup.hierarchy, setup.baseline_name, "dpot"
        )
        assert full.output == (64, setup.dataset.mesh.num_vertices)
        assert full.io_seconds < baseline.io_seconds
