"""Tests for Algorithm 1 (edge-collapse decimation) and the priority queue."""

import numpy as np
import pytest

from repro.errors import DecimationError
from repro.mesh import TriangleMesh, decimate
from repro.mesh.generators import annulus, disk, structured_rectangle
from repro.mesh.metrics import decimation_ratio
from repro.mesh.priority_queue import EdgePriorityQueue, edge_key


class TestEdgePriorityQueue:
    def test_push_pop_order(self):
        q = EdgePriorityQueue()
        q.push(0, 1, 3.0)
        q.push(1, 2, 1.0)
        q.push(2, 3, 2.0)
        assert q.pop() == ((1, 2), 1.0)
        assert q.pop() == ((2, 3), 2.0)
        assert q.pop() == ((0, 1), 3.0)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EdgePriorityQueue().pop()

    def test_update_priority(self):
        q = EdgePriorityQueue()
        q.push(0, 1, 5.0)
        q.push(0, 1, 0.5)  # update
        key, prio = q.pop()
        assert key == (0, 1) and prio == 0.5
        with pytest.raises(IndexError):
            q.pop()

    def test_discard(self):
        q = EdgePriorityQueue()
        q.push(0, 1, 1.0)
        q.push(1, 2, 2.0)
        q.discard(1, 0)  # order-insensitive
        assert q.pop() == ((1, 2), 2.0)

    def test_len_and_contains(self):
        q = EdgePriorityQueue()
        q.push(3, 1, 1.0)
        assert len(q) == 1
        assert (1, 3) in q
        assert (3, 1) in q
        assert (0, 1) not in q

    def test_edge_key_canonical(self):
        assert edge_key(5, 2) == (2, 5)
        assert edge_key(2, 5) == (2, 5)

    def test_peek_does_not_remove(self):
        q = EdgePriorityQueue()
        q.push(0, 1, 1.0)
        assert q.peek() == ((0, 1), 1.0)
        assert len(q) == 1

    def test_stats_track_stale(self):
        q = EdgePriorityQueue()
        q.push(0, 1, 5.0)
        q.push(0, 1, 1.0)
        q.pop()
        with pytest.raises(IndexError):
            q.pop()  # must skip the stale (0, 1, 5.0) entry
        assert q.stats["stale_pops"] >= 1

    def test_init_from_items(self):
        q = EdgePriorityQueue([((0, 1), 2.0), ((1, 2), 1.0)])
        assert q.pop()[0] == (1, 2)


class TestDecimation:
    def test_reaches_target_ratio(self):
        mesh = disk(1000, seed=0)
        res = decimate(mesh, ratio=2)
        assert res.mesh.num_vertices == 500
        assert res.achieved_ratio == pytest.approx(2.0)

    def test_ratio_four(self):
        mesh = disk(1000, seed=0)
        res = decimate(mesh, ratio=4)
        assert res.mesh.num_vertices == 250

    def test_collapses_equal_removed_vertices(self):
        mesh = disk(600, seed=1)
        res = decimate(mesh, ratio=2)
        assert res.collapses == mesh.num_vertices - res.mesh.num_vertices

    def test_field_decimated_alongside(self):
        mesh = disk(500, seed=2)
        field = mesh.vertices[:, 0] ** 2
        res = decimate(mesh, field, ratio=2)
        out = res.fields["data"]
        assert len(out) == res.mesh.num_vertices
        # Means preserved approximately: decimated values are local averages.
        assert abs(out.mean() - field.mean()) < 0.1 * max(1e-9, abs(field.mean()) + field.std())

    def test_field_range_never_expands(self):
        # NewData is a mean, so decimated values stay inside the original range.
        mesh = disk(800, seed=3)
        field = np.sin(mesh.vertices[:, 0] * 7)
        res = decimate(mesh, field, ratio=4)
        out = res.fields["data"]
        assert out.min() >= field.min() - 1e-12
        assert out.max() <= field.max() + 1e-12

    def test_multiple_fields(self):
        mesh = disk(300, seed=4)
        fields = {"a": mesh.vertices[:, 0], "b": mesh.vertices[:, 1]}
        res = decimate(mesh, fields, ratio=2)
        assert set(res.fields) == {"a", "b"}
        assert all(len(v) == res.mesh.num_vertices for v in res.fields.values())

    def test_field_length_mismatch_raises(self):
        mesh = disk(100, seed=5)
        with pytest.raises(DecimationError):
            decimate(mesh, np.zeros(7), ratio=2)

    def test_bad_ratio_raises(self):
        mesh = disk(100, seed=5)
        with pytest.raises(DecimationError):
            decimate(mesh, ratio=0.5)

    def test_ratio_one_is_identity_size(self):
        mesh = disk(100, seed=6)
        res = decimate(mesh, ratio=1.0)
        assert res.mesh.num_vertices == mesh.num_vertices
        assert res.collapses == 0

    def test_output_mesh_valid(self):
        mesh = annulus(20, 60)
        res = decimate(mesh, ratio=2)
        out = res.mesh
        # Re-validate topology through the strict constructor.
        TriangleMesh(out.vertices, out.triangles, validate=True)
        assert (out.triangle_areas() > 0).all()

    def test_no_dangling_vertices(self):
        mesh = disk(400, seed=7)
        res = decimate(mesh, ratio=2)
        used = np.unique(res.mesh.triangles.ravel())
        assert len(used) == res.mesh.num_vertices

    def test_area_roughly_preserved(self):
        mesh = disk(2000, seed=8)
        res = decimate(mesh, ratio=2)
        assert res.mesh.total_area() == pytest.approx(mesh.total_area(), rel=0.1)

    def test_progressive_chain(self):
        """Repeated 2x decimation matches a paper-style level progression."""
        mesh = disk(1600, seed=9)
        field = np.cos(mesh.vertices[:, 0] * 5)
        meshes = [mesh]
        for _ in range(3):
            res = decimate(meshes[-1], field, ratio=2)
            field = res.fields["data"]
            meshes.append(res.mesh)
        for lvl in range(1, 4):
            d = decimation_ratio(meshes[0], meshes[lvl])
            assert d == pytest.approx(2.0**lvl, rel=0.02)

    def test_data_aware_priority(self):
        mesh = disk(500, seed=10)
        # Sharp front at x=0.
        field = np.tanh(mesh.vertices[:, 0] * 50)
        res = decimate(mesh, field, ratio=2, priority="data_aware")
        assert res.mesh.num_vertices == 250

    def test_callable_priority(self):
        mesh = disk(300, seed=11)
        calls = []

        def prio(u, v):
            calls.append((u, v))
            return float(u + v)

        res = decimate(mesh, ratio=2, priority=prio)
        assert res.mesh.num_vertices == 150
        assert calls

    def test_unknown_priority_name(self):
        mesh = disk(50, seed=12)
        with pytest.raises(DecimationError):
            decimate(mesh, ratio=2, priority="nope")

    def test_structured_mesh_decimation(self):
        mesh = structured_rectangle(30, 30)
        res = decimate(mesh, ratio=2)
        assert res.mesh.num_vertices == 450

    def test_annulus_keeps_some_hole(self):
        """Decimating an annulus should not collapse its topology to a disk."""
        mesh = annulus(30, 90)
        res = decimate(mesh, ratio=2)
        assert res.mesh.euler_characteristic() <= 1

    def test_high_ratio(self):
        mesh = disk(4096, seed=13)
        res = decimate(mesh, ratio=32)
        assert res.mesh.num_vertices == 128

    def test_queue_stats_exposed(self):
        mesh = disk(200, seed=14)
        res = decimate(mesh, ratio=2, method="serial")  # the heap's counters
        assert res.queue_stats["pushes"] > 0

    def test_endpoint_placement_subsets_vertices(self):
        """Endpoint placement keeps coarse vertices at original sample
        positions with original values."""
        mesh = disk(400, seed=15)
        field = np.sin(5 * mesh.vertices[:, 0])
        res = decimate(mesh, field, ratio=2, placement="endpoint")
        # Every coarse vertex coincides with some fine vertex...
        from scipy.spatial import cKDTree

        d, idx = cKDTree(mesh.vertices).query(res.mesh.vertices)
        assert d.max() < 1e-12
        # ...and carries that vertex's exact value.
        assert np.allclose(res.fields["data"], field[idx], atol=1e-12)

    def test_unknown_placement(self):
        mesh = disk(50, seed=16)
        with pytest.raises(DecimationError):
            decimate(mesh, ratio=2, placement="centroid")
