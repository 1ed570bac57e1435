"""Unit tests for multi-plane (stacked 3-D variable) support."""

import numpy as np
import pytest

from repro.api import Session
from repro.core import (
    CampaignWriter,
    CanopusDecoder,
    CanopusEncoder,
    LevelScheme,
    apply_delta,
    build_mapping,
    compute_delta,
    refactor,
)
from repro.errors import RefactoringError
from repro.harness.experiment import stack_planes
from repro.io import BPDataset
from repro.mesh import decimate
from repro.mesh.generators import disk
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

P = 4


@pytest.fixture(scope="module")
def stacked():
    mesh = disk(600, seed=0)
    v = mesh.vertices
    planes = np.stack(
        [np.sin(3 * v[:, 0] + p) * np.cos(2 * v[:, 1]) for p in range(P)]
    )
    return mesh, planes


class TestMappingBroadcast:
    def test_estimate_planes(self, stacked):
        mesh, planes = stacked
        res = decimate(mesh, None, ratio=2)
        mapping = build_mapping(mesh, res.mesh)
        coarse = np.stack([res.mesh.vertices[:, 0] * (p + 1) for p in range(P)])
        est = mapping.estimate(coarse)
        assert est.shape == (P, mesh.num_vertices)
        # Each plane's estimate equals the 1-D estimate of that plane.
        for p in range(P):
            assert np.allclose(est[p], mapping.estimate(coarse[p]))

    def test_delta_roundtrip_planes(self, stacked):
        mesh, planes = stacked
        res = decimate(mesh, {str(p): planes[p] for p in range(P)}, ratio=2)
        coarse = np.stack([res.fields[str(p)] for p in range(P)])
        mapping = build_mapping(mesh, res.mesh)
        delta = compute_delta(planes, coarse, mapping)
        assert delta.shape == planes.shape
        restored = apply_delta(coarse, delta, mapping)
        assert np.allclose(restored, planes, atol=1e-12)


class TestRefactorPlanes:
    def test_levels_keep_plane_axis(self, stacked):
        mesh, planes = stacked
        result = refactor(mesh, planes, LevelScheme(3))
        for lvl, level in enumerate(result.levels):
            assert level.shape == (P, result.meshes[lvl].num_vertices)
        for lvl, delta in enumerate(result.deltas):
            assert delta.shape == (P, result.meshes[lvl].num_vertices)

    def test_exact_chain_planes(self, stacked):
        mesh, planes = stacked
        result = refactor(mesh, planes, LevelScheme(3))
        state = result.base_field
        for lvl in (1, 0):
            state = apply_delta(state, result.deltas[lvl], result.mappings[lvl])
        assert np.allclose(state, planes, atol=1e-12)

    def test_bad_shapes(self, stacked):
        mesh, planes = stacked
        with pytest.raises(RefactoringError):
            refactor(mesh, planes[:, :-1], LevelScheme(2))
        with pytest.raises(RefactoringError):
            refactor(mesh, planes[None], LevelScheme(2))  # 3-D array


class TestEncoderDecoderPlanes:
    def test_roundtrip(self, stacked, tmp_path):
        mesh, planes = stacked
        h = two_tier_titan(tmp_path, fast_capacity=8 << 20, slow_capacity=1 << 33)
        enc = CanopusEncoder(
            h, codec="zfp", codec_params={"tolerance": 1e-4, "mode": "relative"}
        )
        enc.encode("pl", "v", mesh, planes, LevelScheme(3))
        dec = CanopusDecoder(BPDataset.open("pl", h))
        base = dec.read_base("v")
        assert base.field.shape == (P, base.mesh.num_vertices)
        full = dec.restore_to("v", 0)
        assert full.field.shape == planes.shape
        rng = np.ptp(planes)
        assert np.abs(full.field - planes).max() <= 3e-4 * rng + 1e-12

    def test_plane_accessor(self, stacked, tmp_path):
        mesh, planes = stacked
        h = two_tier_titan(tmp_path, fast_capacity=8 << 20, slow_capacity=1 << 33)
        enc = CanopusEncoder(h, codec_params={"tolerance": 1e-4, "mode": "relative"})
        enc.encode("pl", "v", mesh, planes, LevelScheme(2))
        dec = CanopusDecoder(BPDataset.open("pl", h))
        full = dec.restore_to("v", 0)
        p1 = full.plane(1)
        assert p1.shape == (mesh.num_vertices,)
        assert np.allclose(p1, full.field[1])

    def test_chunked_planes_roundtrip(self, stacked, tmp_path):
        mesh, planes = stacked
        h = two_tier_titan(tmp_path, fast_capacity=8 << 20, slow_capacity=1 << 33)
        enc = CanopusEncoder(
            h, codec_params={"tolerance": 1e-4, "mode": "relative"}, chunks=6
        )
        enc.encode("plc", "v", mesh, planes, LevelScheme(2))
        dec = CanopusDecoder(BPDataset.open("plc", h))
        full = dec.restore_to("v", 0)
        rng = np.ptp(planes)
        assert np.abs(full.field - planes).max() <= 2e-4 * rng + 1e-12


class TestCampaignWithoutPlanes:
    """An entry that does not record ``planes`` (written before it was)
    restores as one that does: the reader counts the base's planes."""

    @pytest.fixture(scope="class")
    def store(self, stacked, tmp_path_factory):
        mesh, planes = stacked
        h = two_tier_titan(tmp_path_factory.mktemp("planes"))
        for name in ("recorded", "unrecorded"):
            writer = CampaignWriter(
                h, name, "v", mesh, LevelScheme(3),
                codec_params={"tolerance": 1e-4},
            )
            for step in range(2):
                writer.write_step(step, planes[:3] * (1.0 + step))
            if name == "unrecorded":
                writer._entry.pop("planes")
            writer.close()
        return h

    @pytest.mark.parametrize("level", [2, 1, 0])
    def test_restores_equal(self, store, level):
        with Session(store, use_restored_cache=False) as session:
            assert "planes" not in BPDataset.open(
                "unrecorded", store
            ).catalog.attrs["variables"]["v"]
            want, got = (
                session.open(name).restore("v", step=1, level=level)
                for name in ("recorded", "unrecorded")
            )
        assert got.field.shape == (3, got.mesh.num_vertices)
        assert got.field.shape == want.field.shape
        assert got.field.tobytes() == want.field.tobytes()


class TestStackPlanes:
    def test_identity_for_single_plane(self):
        ds = make_xgc1(scale=0.05)
        assert stack_planes(ds, 1) is ds.field

    def test_stack_shape_and_correlation(self):
        ds = make_xgc1(scale=0.05)
        stacked = stack_planes(ds, 8)
        assert stacked.shape == (8, ds.mesh.num_vertices)
        # Planes differ, but stay strongly correlated with the reference.
        for p in range(8):
            assert not np.array_equal(stacked[p], ds.field)
            corr = np.corrcoef(stacked[p], ds.field)[0, 1]
            assert corr > 0.95
