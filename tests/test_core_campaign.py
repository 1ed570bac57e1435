"""Tests for timestep campaigns (shared geometry, per-step payloads)."""

import numpy as np
import pytest

from repro.core import CampaignWriter, LevelScheme
from repro.errors import CanopusError, VariableNotFoundError
from repro.session import Session
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

TOL = 1e-4


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    ds = make_xgc1(scale=0.15)
    hierarchy = two_tier_titan(
        tmp_path_factory.mktemp("campaign"), fast_capacity=16 << 20,
        slow_capacity=1 << 34,
    )
    rng = np.random.default_rng(0)
    steps = {}
    writer = CampaignWriter(
        hierarchy, "run", "dpot", ds.mesh, LevelScheme(3),
        codec="zfp", codec_params={"tolerance": TOL},
    )
    reports = []
    with writer:
        for step in range(4):
            drift = 0.05 * step * np.sin(ds.mesh.vertices[:, 0] * 2 + step)
            field = ds.field + drift + rng.normal(0, 1e-3, ds.mesh.num_vertices)
            steps[step] = field
            reports.append(writer.write_step(step, field))
    return ds, hierarchy, steps, reports, writer


class TestCampaignWriter:
    def test_step_reports(self, campaign):
        _, _, _, reports, _ = campaign
        assert len(reports) == 4
        for rep in reports:
            assert rep.compressed_bytes > 0
            assert rep.reduction > 1.5
            assert rep.refactor_seconds > 0

    def test_geometry_written_once(self, campaign):
        ds, hierarchy, _, _, writer = campaign
        from repro.io import BPDataset

        handle = BPDataset.open("run", hierarchy)
        mesh_keys = [k for k in handle.keys() if "/mesh" in k]
        # One mesh per level, regardless of the number of steps.
        assert len(mesh_keys) == 3
        mapping_keys = [k for k in handle.keys() if "/mapping" in k]
        assert len(mapping_keys) == 2

    def test_duplicate_step_rejected(self, campaign):
        ds, hierarchy, *_ = campaign
        writer = CampaignWriter(
            hierarchy, "dup", "v", ds.mesh, LevelScheme(2),
            codec_params={"tolerance": TOL},
        )
        writer.write_step(0, ds.field)
        with pytest.raises(CanopusError):
            writer.write_step(0, ds.field)
        writer.close()

    def test_write_after_close_rejected(self, campaign):
        ds, hierarchy, *_ = campaign
        writer = CampaignWriter(
            hierarchy, "closed", "v", ds.mesh, LevelScheme(2),
            codec_params={"tolerance": TOL},
        )
        writer.close()
        with pytest.raises(CanopusError):
            writer.write_step(0, ds.field)

    def test_field_shape_validated(self, campaign):
        ds, hierarchy, *_ = campaign
        writer = CampaignWriter(
            hierarchy, "shape", "v", ds.mesh, LevelScheme(2),
            codec_params={"tolerance": TOL},
        )
        with pytest.raises(CanopusError):
            writer.write_step(0, np.zeros(7))
        writer.close()

    def test_close_returns_io_time(self, campaign):
        ds, hierarchy, *_ = campaign
        writer = CampaignWriter(
            hierarchy, "iotime", "v", ds.mesh, LevelScheme(2),
            codec_params={"tolerance": TOL},
        )
        writer.write_step(0, ds.field)
        io = writer.close()
        assert io > 0
        assert writer.close() == 0.0  # idempotent


def _open(hierarchy, name="run"):
    """A handle that skips the restored cache: every restore charges
    its own payload reads."""
    return Session(hierarchy, use_restored_cache=False).open(name)


class TestCampaignRestore:
    def test_restore_each_step_full_accuracy(self, campaign):
        ds, hierarchy, steps, _, _ = campaign
        handle = _open(hierarchy)
        assert handle.describe()["variables"]["dpot"]["steps"] == [0, 1, 2, 3]
        for step, field in steps.items():
            restored = handle.restore("dpot", step=step, level=0)
            # Base + 2 deltas, each within TOL.
            assert np.max(np.abs(restored.field - field)) <= 3 * TOL + 1e-12

    def test_restore_base_level(self, campaign):
        _, hierarchy, _, _, writer = campaign
        base = _open(hierarchy).restore("dpot", step=2, level=2)
        assert base.level == 2
        assert len(base.field) == writer.meshes[2].num_vertices

    def test_unknown_step(self, campaign):
        _, hierarchy, *_ = campaign
        with pytest.raises(VariableNotFoundError):
            _open(hierarchy).restore("dpot", step=99)

    def test_not_a_campaign(self, campaign, tmp_path):
        ds, hierarchy, *_ = campaign
        from repro.io import BPDataset

        BPDataset.create("plain", hierarchy).close()
        with pytest.raises(VariableNotFoundError):
            _open(hierarchy, "plain").restore("dpot", step=0)

    def test_geometry_amortized_across_steps(self, campaign):
        """Geometry I/O happens once; per-step retrievals touch only
        field payloads."""
        _, hierarchy, steps, _, _ = campaign
        handle = _open(hierarchy)
        first = handle.chain("dpot", step=0)
        geom_io = handle.decoder.prefetch_geometry(first).io_seconds
        assert geom_io > 0
        io_per_step = []
        for step in steps:
            res = handle.restore("dpot", step=step, level=0)
            io_per_step.append(res.timings.io_seconds)
        # No step re-reads geometry: step I/O stays flat, and reading
        # the geometry again costs nothing.
        assert handle.decoder.prefetch_geometry(first).io_seconds == 0.0
        assert max(io_per_step) < 2 * min(io_per_step)

    def test_restore_chains_batch(self, campaign):
        _, hierarchy, steps, _, _ = campaign
        handle = _open(hierarchy)
        chains = [handle.chain("dpot", step=step) for step in (1, 3)]
        restored = handle.restore_chains(chains, 1)
        assert list(restored) == chains
        for chain, data in restored.items():
            assert data.var == chain
            assert data.level == 1

    def test_trajectory_statistic(self, campaign):
        """A cross-step analysis: the field drifts monotonically by
        construction; the restored series must reflect it."""
        _, hierarchy, steps, _, _ = campaign
        handle = _open(hierarchy)
        restored = handle.restore_chains(
            [handle.chain("dpot", step=step) for step in steps], 0
        )
        means = [
            float(np.mean(np.abs(data.field - steps[0])))
            for data in restored.values()
        ]
        assert means[0] < means[1] < means[2] < means[3]


def test_relative_tolerance_on_workers_restores_within_bound(tmp_path):
    """A campaign encoded on worker threads with a relative tolerance
    restores every step through a session within the stage bounds:
    base plus two deltas, each within ``REL_TOL`` of the first step's
    range."""
    rel_tol, levels = 1e-4, 3
    ds = make_xgc1(scale=0.15, seed=7)
    x, y = ds.mesh.vertices[:, 0], ds.mesh.vertices[:, 1]
    steps = [
        ds.field * (1.0 + 0.05 * t) + 0.1 * np.sin(3 * x + 0.4 * t) * y
        for t in range(3)
    ]
    hierarchy = two_tier_titan(
        tmp_path, fast_capacity=16 << 20, slow_capacity=1 << 34
    )
    with CampaignWriter(
        hierarchy, "rel", "dpot", ds.mesh, LevelScheme(levels),
        codec="zfp", codec_params={"tolerance": rel_tol, "mode": "relative"},
        workers=2,
    ) as writer:
        for step, field in enumerate(steps):
            writer.write_step(step, field)
    bound = levels * rel_tol * float(np.ptp(steps[0])) + 1e-12
    with Session(hierarchy) as session:
        handle = session.open("rel")
        for step, field in enumerate(steps):
            state = handle.restore("dpot", step=step, level=0)
            assert float(np.abs(state.field - field).max()) <= bound
