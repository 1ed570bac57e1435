"""Point location in a triangular mesh.

Delta calculation (paper Alg. 2) and restoration (Alg. 3) both need, for
every fine-level vertex ``V^l_x``, the coarse-level triangle
``<V^{l+1}_i, V^{l+1}_j, V^{l+1}_k>`` it falls into. The paper notes that
brute force is too expensive and that Canopus stores the mapping in ADIOS
metadata; here a uniform-grid spatial index makes the *initial* location
pass near-linear, and :mod:`repro.core.mapping` persists the result.

Because edge collapse moves vertices to midpoints, the coarse mesh's hull
can shrink slightly, leaving some fine vertices outside every coarse
triangle. Those are assigned to the nearest-centroid triangle (via a
KD-tree) with *extrapolated* barycentric coordinates. Restoration is exact
regardless: the delta absorbs whatever the estimate misses, so triangle
assignment quality affects only delta smoothness, never correctness.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PointLocationError
from repro.mesh.triangle_mesh import TriangleMesh

__all__ = ["TriangleLocator", "barycentric_coordinates"]

_INSIDE_EPS = 1e-9

# Points per locate block: a block's (point, candidate) pairs are the
# only temporaries that grow with the query.
_BLOCK = 4096
# Triangles per build block (cell expansion and prefilter boxes).
_TRI_BLOCK = 8192

# Prefilter (docs/refactoring.md, "Point location"): a pair reaches the
# exact solve only if the point lies in the triangle's bbox widened by
# _BOX_SLACK × D (D = longest edge from corner 0). Outside that box the
# solve's rounded w provably fails the -_INSIDE_EPS test when
# D² / area ≤ _MAX_ASPECT and D is in range; other triangles bypass it.
_BOX_SLACK = 1e-3
_MAX_ASPECT = 1e3
_MIN_EDGE, _MAX_EDGE = 1e-60, 1e60
_MIN_REL_EDGE = 1e-9


def barycentric_coordinates(
    points: np.ndarray, tri_points: np.ndarray
) -> np.ndarray:
    """Barycentric coordinates of ``points`` w.r.t. paired triangles.

    Parameters
    ----------
    points:
        ``(n, 2)`` query points.
    tri_points:
        ``(n, 3, 2)`` triangle corner coordinates, one triangle per point.

    Returns
    -------
    ``(n, 3)`` coordinates ``(w_i, w_j, w_k)`` summing to 1. Values may lie
    outside [0, 1] for points outside their triangle (linear extrapolation).

    The locator's prefilter is exact only for this operation order; its
    rounding bound (docs/refactoring.md, "Point location") must be
    redone if the solve changes.
    """
    points = np.asarray(points, dtype=np.float64)
    tri_points = np.asarray(tri_points, dtype=np.float64)
    if points.ndim == 1:
        points = points[None, :]
        tri_points = tri_points[None, ...]
    a = tri_points[:, 0]
    b = tri_points[:, 1]
    c = tri_points[:, 2]
    v0 = b - a
    v1 = c - a
    v2 = points - a
    d00 = np.einsum("ij,ij->i", v0, v0)
    d01 = np.einsum("ij,ij->i", v0, v1)
    d11 = np.einsum("ij,ij->i", v1, v1)
    d20 = np.einsum("ij,ij->i", v2, v0)
    d21 = np.einsum("ij,ij->i", v2, v1)
    denom = d00 * d11 - d01 * d01
    degenerate = np.abs(denom) < 1e-300
    safe = np.where(degenerate, 1.0, denom)
    w1 = (d11 * d20 - d01 * d21) / safe
    w2 = (d00 * d21 - d01 * d20) / safe
    w1 = np.where(degenerate, 1.0 / 3.0, w1)
    w2 = np.where(degenerate, 1.0 / 3.0, w2)
    w0 = 1.0 - w1 - w2
    return np.stack([w0, w1, w2], axis=1)


class TriangleLocator:
    """Uniform-grid spatial index over a mesh's triangles.

    The grid resolution targets a handful of triangles per cell:
    ``cells ≈ n_triangles``, so build is O(m) and a point query inspects
    only the triangles whose bounding box overlaps its cell. Build and
    query both run in fixed-size blocks, so their temporaries are
    O(block), not O(triangles × cells) or O(points × candidates);
    docs/refactoring.md ("Point location") has the bounds and the
    prefilter's exactness argument.
    """

    def __init__(self, mesh: TriangleMesh, cells_per_triangle: float = 1.0):
        if mesh.num_triangles == 0:
            raise PointLocationError("cannot build a locator on an empty mesh")
        self.mesh = mesh
        lo, hi = mesh.bounding_box()
        span = np.maximum(hi - lo, 1e-12)
        n_cells = max(1, int(np.sqrt(mesh.num_triangles * cells_per_triangle)))
        self._lo = lo
        self._cell = span / n_cells
        self._n = n_cells
        m = mesh.num_triangles

        # Bucket triangle ids by every cell their bbox covers — CSR over
        # the dense cell grid, built by expanding each block of triangles
        # into its (bbox width × height) covered cells.
        self._corners = mesh.vertices[mesh.triangles]  # (m, 3, 2)
        self._box = np.empty((4, m), dtype=np.float64)  # x0, y0, x1, y1
        self._exact = np.empty(m, dtype=bool)
        shift = m.bit_length()
        key_parts = []
        for s in range(0, m, _TRI_BLOCK):
            p = self._corners[s:s + _TRI_BLOCK]  # (b, 3, 2)
            tlo = np.minimum(np.minimum(p[:, 0], p[:, 1]), p[:, 2])
            thi = np.maximum(np.maximum(p[:, 0], p[:, 1]), p[:, 2])
            self._fill_prefilter(s, p, tlo, thi)
            ilo, ihi = self._cell_index(tlo), self._cell_index(thi)
            wy = ihi[:, 1] - ilo[:, 1] + 1
            counts = (ihi[:, 0] - ilo[:, 0] + 1) * wy
            owner = np.repeat(np.arange(len(p)), counts)
            local = np.arange(len(owner)) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            flat = (ilo[owner, 0] + local // wy[owner]) * n_cells + (
                ilo[owner, 1] + local % wy[owner]
            )
            key_parts.append((flat << shift) | (owner + s))
        # One sort of packed (cell, triangle) keys: the pairs are unique,
        # so buckets come out in cell order with ids ascending within
        # each, and a query hitting several containing triangles picks
        # the lowest id.
        keys = np.concatenate(key_parts)
        del key_parts
        keys.sort()
        self._bucket_tris = (keys & ((1 << shift) - 1)).astype(_index_dtype(m))
        indptr = np.zeros(n_cells * n_cells + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(keys >> shift, minlength=n_cells * n_cells),
            out=indptr[1:],
        )
        self._bucket_indptr = indptr.astype(_index_dtype(len(keys)))
        # Built on the first point outside every triangle (see locate).
        self._centroid_tree = None

    def _fill_prefilter(self, s, p, tlo, thi) -> None:
        """Prefilter boxes and bypass flags for triangles ``s, s+1, …``.

        A triangle's box is its bbox widened by ``_BOX_SLACK`` × D, with
        D its longest edge from corner 0. Triangles outside the range
        where the slack argument holds — aspect D²/area above
        ``_MAX_ASPECT``, degenerate, extreme or non-finite D — are flagged
        ``_exact`` and bypass the prefilter.
        """
        v0, v1 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        d = np.maximum(np.hypot(v0[:, 0], v0[:, 1]), np.hypot(v1[:, 0], v1[:, 1]))
        area2 = np.abs(v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0])
        ok = (
            (d * d <= _MAX_ASPECT * area2)
            & (d >= _MIN_EDGE) & (d <= _MAX_EDGE)
            & (d >= _MIN_REL_EDGE * np.abs(p).max(axis=(1, 2)))
        )
        e = s + len(p)
        self._exact[s:e] = ~ok
        slack = (_BOX_SLACK * d)[:, None]
        self._box[:2, s:e] = (tlo - slack).T
        self._box[2:, s:e] = (thi + slack).T

    def _cell_index(self, points: np.ndarray) -> np.ndarray:
        idx = ((points - self._lo) / self._cell).astype(np.int64)
        return np.clip(idx, 0, self._n - 1)

    def locate(
        self, points: np.ndarray, *, allow_fallback: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Locate every point; return ``(triangle_ids, barycentric)``.

        ``triangle_ids`` is ``(n,)`` int64; ``barycentric`` is ``(n, 3)``.
        Points inside the mesh get their containing triangle (the lowest
        id when several contain it); points outside get the
        nearest-centroid triangle with extrapolated coordinates when
        ``allow_fallback`` (otherwise :class:`PointLocationError` is
        raised).
        """
        points = np.asarray(points, dtype=np.float64)
        single = points.ndim == 1
        if single:
            points = points[None, :]
        n = len(points)
        tri_ids = np.full(n, -1, dtype=np.int64)
        bary = np.zeros((n, 3), dtype=np.float64)
        for s in range(0, n, _BLOCK):
            self._locate_block(
                points[s:s + _BLOCK], tri_ids[s:s + _BLOCK], bary[s:s + _BLOCK]
            )

        missing = np.flatnonzero(tri_ids < 0)
        if len(missing):
            if not allow_fallback:
                raise PointLocationError(
                    f"{len(missing)} point(s) outside the mesh"
                )
            if self._centroid_tree is None:
                # Write-side only (a restore reads stored mappings).
                from scipy.spatial import cKDTree

                self._centroid_tree = cKDTree(self._corners.mean(axis=1))
            _, nearest = self._centroid_tree.query(points[missing])
            nearest = np.atleast_1d(nearest).astype(np.int64)
            tri_ids[missing] = nearest
            bary[missing] = barycentric_coordinates(
                points[missing], self._corners[nearest]
            )

        if single:
            return tri_ids[:1], bary[:1]
        return tri_ids, bary

    def _locate_block(self, points, tri_ids, bary) -> None:
        """Fill ``tri_ids``/``bary`` (views) for the points that a triangle
        contains; the rest stay ``-1``.

        Every point is paired with each triangle bucketed in its cell; the
        prefilter drops pairs that provably fail the containment test, the
        barycentric solve runs over the rest at once (it is row-wise, so
        its bits do not depend on which pairs share the call), and the
        first containing candidate per point (lowest triangle id) wins.
        """
        cells = self._cell_index(points)
        flat = cells[:, 0] * self._n + cells[:, 1]
        starts = self._bucket_indptr[flat].astype(np.int64)
        counts = self._bucket_indptr[flat + 1] - starts
        total = int(counts.sum())
        if not total:
            return
        pt = np.repeat(np.arange(len(points)), counts)
        cand = self._bucket_tris[
            np.arange(total) - np.repeat(np.cumsum(counts) - counts - starts, counts)
        ]
        x, y = points[:, 0][pt], points[:, 1][pt]
        x0, y0, x1, y1 = self._box
        keep = (x >= x0[cand]) & (y >= y0[cand]) & (x <= x1[cand]) & (y <= y1[cand])
        keep |= self._exact[cand]
        del x, y  # the solve below is the block's peak
        pt, cand = pt[keep], cand[keep]
        w = barycentric_coordinates(points[pt], self._corners[cand])
        inside = np.flatnonzero(
            np.minimum(np.minimum(w[:, 0], w[:, 1]), w[:, 2]) >= -_INSIDE_EPS
        )
        # pt is non-decreasing, so the first occurrence of each point
        # among the inside pairs is its lowest-id containing triangle.
        hit_pt = pt[inside]
        first = np.ones(len(hit_pt), dtype=bool)
        first[1:] = hit_pt[1:] != hit_pt[:-1]
        sel = inside[first]
        tri_ids[pt[sel]] = cand[sel]
        bary[pt[sel]] = w[sel]


def _index_dtype(limit: int):
    """int32 when every index below ``limit`` fits, else int64."""
    return np.int32 if limit < 2**31 else np.int64
