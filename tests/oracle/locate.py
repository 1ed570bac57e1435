"""Unblocked grid point location, the reference for ``TriangleLocator``.

This is the locator as it was before queries ran in point blocks behind
a bounding-box prefilter, and before its buckets came from one sort of
packed (cell, triangle) keys. The grid is built by expanding every
triangle into its covered cells at once and stable-sorting the entries
by cell; a query pairs every point with every triangle bucketed in its
cell, solves all pairs, and keeps the lowest-id containing triangle.
Points in no triangle fall back to the nearest triangle centroid. It
holds O(points × candidates) temporaries; it is here for its answers
only.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import PointLocationError
from repro.mesh.locate import barycentric_coordinates
from repro.mesh.triangle_mesh import TriangleMesh

__all__ = ["reference_buckets", "reference_locate"]

_INSIDE_EPS = 1e-9


def _grid(mesh: TriangleMesh, cells_per_triangle: float):
    """``(n_cells, cell_index)`` of the locator's uniform grid."""
    if mesh.num_triangles == 0:
        raise PointLocationError("cannot build a locator on an empty mesh")
    lo, hi = mesh.bounding_box()
    span = np.maximum(hi - lo, 1e-12)
    n_cells = max(1, int(np.sqrt(mesh.num_triangles * cells_per_triangle)))
    cell = span / n_cells

    def cell_index(p):
        idx = ((p - lo) / cell).astype(np.int64)
        return np.clip(idx, 0, n_cells - 1)

    return n_cells, cell_index


def reference_buckets(
    mesh: TriangleMesh, cells_per_triangle: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """``(bucket_tris, bucket_indptr)``: every triangle in every cell its
    bbox covers, at once, put in cell order by a stable ``argsort`` (ids
    are generated ascending, so they stay ascending within a cell)."""
    n_cells, cell_index = _grid(mesh, cells_per_triangle)
    tri_pts = mesh.vertices[mesh.triangles]
    ilo = cell_index(tri_pts.min(axis=1))
    ihi = cell_index(tri_pts.max(axis=1))
    wx = ihi[:, 0] - ilo[:, 0] + 1
    wy = ihi[:, 1] - ilo[:, 1] + 1
    counts = wx * wy
    tri_ids = np.repeat(np.arange(mesh.num_triangles, dtype=np.int64), counts)
    offsets = np.concatenate([[0], np.cumsum(counts[:-1])])
    local = np.arange(len(tri_ids), dtype=np.int64) - np.repeat(offsets, counts)
    cx = ilo[tri_ids, 0] + local // wy[tri_ids]
    cy = ilo[tri_ids, 1] + local % wy[tri_ids]
    flat = cx * n_cells + cy
    order = np.argsort(flat, kind="stable")
    bucket_indptr = np.searchsorted(
        flat[order], np.arange(n_cells * n_cells + 1, dtype=np.int64)
    )
    return tri_ids[order], bucket_indptr


def reference_locate(
    mesh: TriangleMesh,
    points: np.ndarray,
    *,
    cells_per_triangle: float = 1.0,
    allow_fallback: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """``TriangleLocator(mesh, cells_per_triangle).locate(points)``."""
    n_cells, cell_index = _grid(mesh, cells_per_triangle)
    bucket_tris, bucket_indptr = reference_buckets(mesh, cells_per_triangle)

    points = np.asarray(points, dtype=np.float64)
    single = points.ndim == 1
    if single:
        points = points[None, :]
    n = len(points)
    out_ids = np.full(n, -1, dtype=np.int64)
    bary = np.zeros((n, 3), dtype=np.float64)
    cells = cell_index(points)
    flat = cells[:, 0] * n_cells + cells[:, 1]
    verts, tris = mesh.vertices, mesh.triangles

    starts = bucket_indptr[flat]
    counts = bucket_indptr[flat + 1] - starts
    total = int(counts.sum())
    if total:
        pt = np.repeat(np.arange(n, dtype=np.int64), counts)
        offsets = np.concatenate([[0], np.cumsum(counts[:-1])])
        local = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        cand = bucket_tris[np.repeat(starts, counts) + local]
        w = barycentric_coordinates(points[pt], verts[tris[cand]])
        inside = np.flatnonzero(w.min(axis=1) >= -_INSIDE_EPS)
        hits, first = np.unique(pt[inside], return_index=True)
        sel = inside[first]
        out_ids[hits] = cand[sel]
        bary[hits] = w[sel]

    missing = np.flatnonzero(out_ids < 0)
    if len(missing):
        if not allow_fallback:
            raise PointLocationError(f"{len(missing)} point(s) outside the mesh")
        _, nearest = cKDTree(mesh.triangle_centroids()).query(points[missing])
        nearest = np.atleast_1d(nearest).astype(np.int64)
        out_ids[missing] = nearest
        bary[missing] = barycentric_coordinates(
            points[missing], verts[tris[nearest]]
        )

    if single:
        return out_ids[:1], bary[:1]
    return out_ids, bary
