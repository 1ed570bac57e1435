"""Tests for the experiment harness and report formatting."""

import numpy as np

from repro.harness import (
    format_fraction_bar,
    format_table,
    setup_experiment,
    write_baseline_dataset,
)
from repro.io import BPDataset
from repro.simulations import make_cfd
from repro.storage import two_tier_titan


class TestFormatTable:
    def test_basic(self):
        out = format_table(
            [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.333333}], title="T"
        )
        assert "T" in out
        assert "a" in out and "b" in out
        assert "10" in out
        assert "0.3333" in out

    def test_empty(self):
        assert "(no rows)" in format_table([])

    def test_column_selection(self):
        out = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "b" in out and "a" not in out.splitlines()[0]

    def test_large_and_small_floats(self):
        out = format_table([{"x": 123456.0, "y": 1e-9}])
        assert "1.235e+05" in out or "123456" in out
        assert "1e-09" in out

    def test_fraction_bar(self):
        bar = format_fraction_bar({"io": 0.5, "compute": 0.5}, width=10)
        assert bar.count("#") == 5
        assert "io=50%" in bar


class TestSetupExperiment:
    def test_full_setup(self, tmp_path):
        setup = setup_experiment("cfd", tmp_path, scale=0.1, num_levels=2)
        assert setup.dataset.name == "cfd"
        assert setup.scheme.num_levels == 2
        assert setup.report.total_compressed_bytes > 0
        dec = setup.decoder()
        base = dec.read_base("pressure")
        assert base.level == 1

    def test_baseline_written_to_slow_tier(self, tmp_path):
        setup = setup_experiment("cfd", tmp_path, scale=0.1, num_levels=2)
        ds = BPDataset.open(setup.baseline_name, setup.hierarchy)
        assert ds.inq("pressure/L0").tier == "lustre"

    def test_relative_tolerance_respected(self, tmp_path):
        setup = setup_experiment(
            "cfd", tmp_path, scale=0.1, num_levels=2, tolerance=1e-5
        )
        dec = setup.decoder()
        full = dec.restore_to("pressure", 0)
        rng = setup.dataset.field.max() - setup.dataset.field.min()
        err = np.abs(full.field - setup.dataset.field).max()
        # One delta stage + base stage, each bounded by rel tol × its range.
        assert err <= 4e-5 * rng


class TestWriteBaseline:
    def test_roundtrip(self, tmp_path):
        ds = make_cfd(scale=0.05)
        h = two_tier_titan(tmp_path, fast_capacity=1 << 20, slow_capacity=1 << 32)
        write_baseline_dataset("b", h, ds)
        from repro.analytics import baseline_full_read

        res = baseline_full_read(h, "b", "pressure")
        assert res.level == 0
