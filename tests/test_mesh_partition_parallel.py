"""Tests for mesh partitioning and partitioned (parallel) encoding."""

import numpy as np
import pytest

from repro.core import LevelScheme
from repro.core.parallel import encode_partitioned
from repro.errors import CanopusError, MeshError, VariableNotFoundError
from repro.mesh.generators import disk, structured_rectangle
from repro.mesh.partition import gather_field, partition_mesh
from repro.session import Session
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

TOL = 1e-4


def _open(hierarchy, name):
    """A handle that skips the restored cache: every restore charges
    its own reads."""
    return Session(hierarchy, use_restored_cache=False).open(name)


class TestPartitionMesh:
    def test_triangles_tile_disjointly(self):
        mesh = disk(800, seed=0)
        parts = partition_mesh(mesh, 4)
        total = sum(p.mesh.num_triangles for p in parts)
        assert total == mesh.num_triangles

    def test_every_vertex_owned_once(self):
        mesh = disk(800, seed=1)
        parts = partition_mesh(mesh, 6)
        owners = np.zeros(mesh.num_vertices, dtype=int)
        for p in parts:
            owners[p.global_vertices[p.owned]] += 1
        assert (owners == 1).all()

    def test_local_meshes_valid(self):
        mesh = structured_rectangle(20, 20, jitter=0.2, seed=2)
        for p in partition_mesh(mesh, 4):
            assert (p.mesh.triangle_areas() > 0).all()
            assert p.mesh.num_vertices == len(p.global_vertices)

    def test_geometry_preserved(self):
        mesh = disk(500, seed=3)
        parts = partition_mesh(mesh, 4)
        for p in parts:
            assert np.allclose(
                p.mesh.vertices, mesh.vertices[p.global_vertices]
            )

    def test_restrict(self):
        mesh = disk(300, seed=4)
        field = np.arange(mesh.num_vertices, dtype=float)
        p = partition_mesh(mesh, 4)[0]
        assert np.array_equal(p.restrict(field), field[p.global_vertices])

    def test_restrict_planes(self):
        mesh = disk(300, seed=4)
        field = np.tile(np.arange(mesh.num_vertices, dtype=float), (3, 1))
        p = partition_mesh(mesh, 4)[0]
        assert p.restrict(field).shape == (3, p.mesh.num_vertices)

    def test_single_partition(self):
        mesh = disk(200, seed=5)
        parts = partition_mesh(mesh, 1)
        assert len(parts) == 1
        assert parts[0].num_owned == mesh.num_vertices

    def test_validation(self):
        mesh = disk(100, seed=6)
        with pytest.raises(MeshError):
            partition_mesh(mesh, 0)

    def test_gather_roundtrip(self):
        mesh = disk(700, seed=7)
        field = np.sin(mesh.vertices[:, 0] * 3)
        parts = partition_mesh(mesh, 5)
        locals_ = [p.restrict(field) for p in parts]
        out = gather_field(parts, locals_, mesh.num_vertices)
        assert np.array_equal(out, field)

    def test_gather_validation(self):
        mesh = disk(200, seed=8)
        parts = partition_mesh(mesh, 2)
        with pytest.raises(MeshError):
            gather_field(parts, [np.zeros(3)] * len(parts), mesh.num_vertices)
        with pytest.raises(MeshError):
            gather_field(parts, [], mesh.num_vertices)


class TestPartitionedEncoding:
    @pytest.fixture(scope="class")
    def encoded(self, tmp_path_factory):
        ds = make_xgc1(scale=0.2)
        h = two_tier_titan(
            tmp_path_factory.mktemp("part"), fast_capacity=16 << 20,
            slow_capacity=1 << 34,
        )
        report, partitions = encode_partitioned(
            h, "prun", "dpot", ds.mesh, ds.field, LevelScheme(3),
            parts=4, codec="zfp",
            codec_params={"tolerance": TOL, "mode": "relative"},
        )
        return ds, h, report, partitions

    def test_report(self, encoded):
        ds, _, report, partitions = encoded
        assert report.parts == len(partitions)
        assert report.compressed_bytes > 0
        assert len(report.per_part_seconds) == report.parts
        assert report.refactor_seconds > 0

    def test_gather_full_accuracy_bounded(self, encoded):
        ds, h, _, _ = encoded
        out = _open(h, "prun").gather("dpot")
        rng = np.ptp(ds.field)
        assert np.abs(out - ds.field).max() <= 3 * TOL * rng + 1e-12

    def test_restore_partition_levels(self, encoded):
        ds, h, _, _ = encoded
        handle = _open(h, "prun")
        coarse = handle.restore("dpot", part=0, level=2)
        fine = handle.restore("dpot", part=0, level=0)
        assert len(coarse.field) == coarse.mesh.num_vertices
        assert fine.mesh.num_vertices == pytest.approx(
            4 * coarse.mesh.num_vertices, rel=0.1
        )

    def test_restore_levels_union(self, encoded):
        ds, h, _, _ = encoded
        handle = _open(h, "prun")
        parts = handle.describe()["variables"]["dpot"]["parts"]
        union = handle.restore_chains(
            [handle.chain("dpot", part=p) for p in range(parts)], 1
        )
        assert len(union) == parts
        total = sum(state.mesh.num_vertices for state in union.values())
        # Level-1 union has about half the global vertices (plus halos).
        assert total == pytest.approx(ds.mesh.num_vertices / 2, rel=0.25)

    def test_not_partitioned_dataset(self, encoded, tmp_path):
        _, h, _, _ = encoded
        from repro.io import BPDataset

        BPDataset.create("plain", h).close()
        with pytest.raises(VariableNotFoundError):
            _open(h, "plain").gather("dpot")

    def test_shape_validation(self, encoded):
        ds, h, _, _ = encoded
        with pytest.raises(CanopusError):
            encode_partitioned(
                h, "bad", "v", ds.mesh, np.zeros(5), LevelScheme(2)
            )

    def test_parallel_workers_match_serial(self, tmp_path):
        """Patches encoded on a thread pool restore to the same field."""
        ds = make_xgc1(scale=0.12)
        h = two_tier_titan(
            tmp_path, fast_capacity=16 << 20, slow_capacity=1 << 34
        )
        encode_partitioned(
            h, "serial", "dpot", ds.mesh, ds.field, LevelScheme(2),
            parts=4, codec_params={"tolerance": TOL, "mode": "relative"},
        )
        encode_partitioned(
            h, "parallel", "dpot", ds.mesh, ds.field, LevelScheme(2),
            parts=4, workers=2,
            codec_params={"tolerance": TOL, "mode": "relative"},
        )
        a = _open(h, "serial").gather("dpot")
        b = _open(h, "parallel").gather("dpot")
        assert np.array_equal(a, b)
