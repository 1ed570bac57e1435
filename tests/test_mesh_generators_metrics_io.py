"""Tests for mesh generators, quality metrics, and (de)serialization."""

import numpy as np
import pytest

from repro.errors import MeshError
from repro.mesh import load_mesh, save_mesh
from repro.mesh.generators import (
    annulus,
    delaunay_from_points,
    disk,
    rectangle_with_cutout,
    structured_rectangle,
    sunflower_points,
)
from repro.mesh.io import load_off, mesh_from_bytes, mesh_to_bytes, save_off
from repro.mesh.metrics import (
    mesh_stats,
    triangle_aspect_ratios,
    triangle_min_angles,
)
from repro.mesh.triangle_mesh import TriangleMesh


class TestGenerators:
    def test_structured_rectangle_counts(self):
        mesh = structured_rectangle(5, 7)
        assert mesh.num_vertices == 35
        assert mesh.num_triangles == 2 * 4 * 6

    def test_structured_rectangle_area(self):
        mesh = structured_rectangle(9, 9, width=2.0, height=3.0)
        assert mesh.total_area() == pytest.approx(6.0)

    def test_structured_rectangle_jitter_valid(self):
        mesh = structured_rectangle(15, 15, jitter=0.4, seed=0)
        assert (mesh.triangle_areas() > 0).all()

    def test_structured_rectangle_too_small(self):
        with pytest.raises(MeshError):
            structured_rectangle(1, 5)

    def test_sunflower_points_on_disk(self):
        pts = sunflower_points(500, radius=2.0)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert (r <= 2.0 + 1e-9).all()
        assert len(pts) == 500

    def test_sunflower_needs_points(self):
        with pytest.raises(MeshError):
            sunflower_points(0)

    def test_disk_vertex_count(self):
        mesh = disk(1000, seed=0)
        assert mesh.num_vertices == 1000
        assert mesh.euler_characteristic() == 1

    def test_disk_area_close_to_circle(self):
        mesh = disk(5000, radius=1.0)
        assert mesh.total_area() == pytest.approx(np.pi, rel=0.01)

    def test_annulus_counts(self):
        mesh = annulus(6, 20)
        assert mesh.num_vertices == 120
        assert mesh.num_triangles == 2 * 5 * 20

    def test_annulus_hole(self):
        mesh = annulus(8, 30, r_inner=0.4, r_outer=1.0)
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        assert r.min() == pytest.approx(0.4, abs=1e-9)
        assert mesh.euler_characteristic() == 0

    def test_annulus_validation(self):
        with pytest.raises(MeshError):
            annulus(1, 20)
        with pytest.raises(MeshError):
            annulus(5, 2)

    def test_delaunay_too_few_points(self):
        with pytest.raises(MeshError):
            delaunay_from_points(np.zeros((2, 2)))

    def test_rectangle_with_cutout_has_hole(self):
        mesh = rectangle_with_cutout(3000, seed=1)
        # The body cutout removes area from the full rectangle.
        assert mesh.total_area() < 4.0 * 2.0 * 0.99
        # No triangle centroid falls inside the default elliptical body.
        c = mesh.triangle_centroids()
        x = (c[:, 0] - 4.0 * 0.3) / (4.0 * 0.12)
        y = (c[:, 1] - 2.0 * 0.5) / (2.0 * 0.18)
        assert ((x * x + y * y) >= 1.0).all()

    def test_generators_deterministic_with_seed(self):
        a = disk(200, seed=42, jitter=0.1)
        b = disk(200, seed=42, jitter=0.1)
        assert np.array_equal(a.vertices, b.vertices)


class TestMetrics:
    def test_equilateral_aspect_ratio(self):
        from repro.mesh import TriangleMesh

        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        assert triangle_aspect_ratios(mesh)[0] == pytest.approx(1.0)
        assert triangle_min_angles(mesh)[0] == pytest.approx(np.pi / 3)

    def test_sliver_has_high_aspect(self):
        from repro.mesh import TriangleMesh

        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.01]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        assert triangle_aspect_ratios(mesh)[0] > 5.0

    def test_mesh_stats_fields(self):
        mesh = disk(300, seed=3)
        stats = mesh_stats(mesh)
        assert stats.num_vertices == 300
        assert stats.total_area > 0
        assert 0 < stats.min_angle_deg < 60
        d = stats.as_dict()
        assert d["num_vertices"] == 300
        assert d["euler_characteristic"] == 1


class TestIO:
    def test_npz_roundtrip(self, tmp_path):
        mesh = disk(150, seed=4)
        fields = {"dpot": np.arange(150, dtype=float)}
        path = tmp_path / "mesh.npz"
        save_mesh(path, mesh, fields)
        mesh2, fields2 = load_mesh(path)
        assert mesh2 == mesh
        assert np.array_equal(fields2["dpot"], fields["dpot"])

    def test_npz_without_fields(self, tmp_path):
        mesh = disk(50, seed=5)
        path = tmp_path / "m.npz"
        save_mesh(path, mesh)
        mesh2, fields2 = load_mesh(path)
        assert mesh2 == mesh
        assert fields2 == {}

    def test_npz_field_length_check(self, tmp_path):
        mesh = disk(50, seed=5)
        with pytest.raises(MeshError):
            save_mesh(tmp_path / "bad.npz", mesh, {"f": np.zeros(3)})

    def test_npz_not_a_mesh(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(MeshError):
            load_mesh(path)

    def test_bytes_roundtrip_keeps_orientation_without_reorienting(self):
        # Built from clockwise input, so the constructor had to flip
        # triangles; the payload is read back through the trusted path,
        # which must find them already counter-clockwise.
        src = disk(300, seed=6)
        mesh = TriangleMesh(src.vertices, src.triangles[:, ::-1])
        back = mesh_from_bytes(mesh_to_bytes(mesh))
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert back == mesh
        p0, p1, p2 = (back.vertices[back.triangles[:, k]] for k in range(3))
        signed = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (
            p1[:, 1] - p0[:, 1]
        ) * (p2[:, 0] - p0[:, 0])
        assert (signed > 0).all()
        assert not back.triangles.flags.writeable
        assert not back.vertices.flags.writeable
        assert back.num_edges == mesh.num_edges  # derived caches start empty

    def test_off_roundtrip(self, tmp_path):
        mesh = structured_rectangle(4, 4)
        path = tmp_path / "mesh.off"
        save_off(path, mesh)
        mesh2 = load_off(path)
        assert mesh2 == mesh

    def test_off_bad_header(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("NOTOFF\n")
        with pytest.raises(MeshError):
            load_off(path)
