"""Immutable unstructured triangular mesh.

The mesh follows the paper's notation (§III-B): a mesh at level *l* is
``G^l(V^l, E^l)`` with vertices ``V^l`` and (bidirectional) edges ``E^l``.
Triangles are stored explicitly because delta calculation (Alg. 2) and
restoration (Alg. 3) iterate over coarse-level triangles.

Vertices are 2-D points (the paper's datasets are planar cross-sections:
an XGC1 poloidal plane, a GenASiS slice, a CFD surface slice). Per-vertex
field arrays are kept *outside* the mesh, aligned by vertex index, so one
mesh can carry many variables.

Derived connectivity (unique edges, vertex→vertex adjacency CSR,
vertex→triangle incidence, boundary edges) is computed lazily and cached;
the arrays themselves are set read-only so a cached mesh can be shared
freely between pipeline stages.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import MeshError

__all__ = ["TriangleMesh"]


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class TriangleMesh:
    """An unstructured 2-D triangular mesh.

    Parameters
    ----------
    vertices:
        ``(n_vertices, 2)`` float64 array of point coordinates.
    triangles:
        ``(n_triangles, 3)`` integer array of vertex indices. Triangle
        orientation is normalized to counter-clockwise on construction.
    validate:
        When true (default) the constructor rejects out-of-range indices,
        degenerate triangles (repeated vertices), and duplicated triangles.
    """

    __slots__ = (
        "vertices",
        "triangles",
        "_edges",
        "_adjacency",
        "_vertex_triangles",
        "_boundary_edges",
        "_triangle_areas",
        "_fingerprint",
    )

    def __init__(
        self,
        vertices: np.ndarray,
        triangles: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        vertices = np.asarray(vertices, dtype=np.float64)
        triangles = np.asarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError(f"vertices must be (n, 2); got {vertices.shape}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError(f"triangles must be (m, 3); got {triangles.shape}")

        if validate and triangles.size:
            if triangles.min() < 0 or triangles.max() >= len(vertices):
                raise MeshError("triangle index out of range")
            t = triangles
            if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])):
                raise MeshError("degenerate triangle (repeated vertex index)")
            canon = np.sort(t, axis=1)
            uniq = np.unique(canon, axis=0)
            if len(uniq) != len(canon):
                raise MeshError("duplicate triangles present")

        self._adopt(vertices, self._orient_ccw(vertices, triangles))

    def _adopt(self, vertices: np.ndarray, triangles: np.ndarray) -> None:
        """Take ownership of checked, CCW-oriented arrays."""
        self.vertices = _as_readonly(vertices)
        self.triangles = _as_readonly(triangles)
        self._edges: np.ndarray | None = None
        self._adjacency: tuple[np.ndarray, np.ndarray] | None = None
        self._vertex_triangles: tuple[np.ndarray, np.ndarray] | None = None
        self._boundary_edges: np.ndarray | None = None
        self._triangle_areas: np.ndarray | None = None
        #: Content hash, set by ``decimation_plan.mesh_fingerprint``.
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_own_arrays(
        cls, vertices: np.ndarray, triangles: np.ndarray
    ) -> "TriangleMesh":
        """Rebuild a mesh from arrays another ``TriangleMesh`` held.

        Those are float64 ``(n, 2)`` / int64 ``(m, 3)``, in range and
        already counter-clockwise, so neither the checks nor the
        orientation pass run again. Private to
        :func:`repro.mesh.io.mesh_from_bytes`, whose payloads
        ``mesh_to_bytes`` writes from a constructed mesh only.
        """
        mesh = cls.__new__(cls)
        mesh._adopt(vertices, triangles)
        return mesh

    @staticmethod
    def _orient_ccw(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
        """Flip clockwise triangles so all have positive signed area."""
        if not len(triangles):
            return triangles
        p0 = vertices[triangles[:, 0]]
        p1 = vertices[triangles[:, 1]]
        p2 = vertices[triangles[:, 2]]
        signed = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (
            p1[:, 1] - p0[:, 1]
        ) * (p2[:, 0] - p0[:, 0])
        flip = signed < 0
        if flip.any():
            triangles = triangles.copy()
            triangles[flip, 1], triangles[flip, 2] = (
                triangles[flip, 2].copy(),
                triangles[flip, 1].copy(),
            )
        return triangles

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """``|V|`` in the paper's notation."""
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        """``|E|``: count of unique undirected edges."""
        return len(self.edges)

    @property
    def edges(self) -> np.ndarray:
        """``(n_edges, 2)`` array of unique undirected edges, ``u < v``."""
        if self._edges is None:
            t = self.triangles
            raw = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
            raw = np.sort(raw, axis=1)
            self._edges = _as_readonly(np.unique(raw, axis=0))
        return self._edges

    @property
    def boundary_edges(self) -> np.ndarray:
        """Edges incident to exactly one triangle."""
        if self._boundary_edges is None:
            t = self.triangles
            raw = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
            raw = np.sort(raw, axis=1)
            uniq, counts = np.unique(raw, axis=0, return_counts=True)
            self._boundary_edges = _as_readonly(uniq[counts == 1])
        return self._boundary_edges

    @property
    def boundary_vertices(self) -> np.ndarray:
        """Sorted unique vertex indices lying on the boundary."""
        return np.unique(self.boundary_edges)

    # ------------------------------------------------------------------
    # adjacency (CSR layout for cache-friendly traversal)
    # ------------------------------------------------------------------
    def vertex_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex→vertex adjacency in CSR form ``(indptr, indices)``.

        Neighbors of vertex ``i`` are ``indices[indptr[i]:indptr[i+1]]``.
        """
        if self._adjacency is None:
            e = self.edges
            src = np.concatenate([e[:, 0], e[:, 1]])
            dst = np.concatenate([e[:, 1], e[:, 0]])
            order = np.argsort(src, kind="stable")
            src, dst = src[order], dst[order]
            indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.add.at(indptr, src + 1, 1)
            np.cumsum(indptr, out=indptr)
            self._adjacency = (_as_readonly(indptr), _as_readonly(dst))
        return self._adjacency

    def vertex_neighbors(self, i: int) -> np.ndarray:
        indptr, indices = self.vertex_adjacency()
        return indices[indptr[i] : indptr[i + 1]]

    def vertex_triangle_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex→triangle incidence in CSR form ``(indptr, tri_ids)``."""
        if self._vertex_triangles is None:
            t = self.triangles
            src = t.ravel()
            tri = np.repeat(np.arange(len(t), dtype=np.int64), 3)
            order = np.argsort(src, kind="stable")
            src, tri = src[order], tri[order]
            indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.add.at(indptr, src + 1, 1)
            np.cumsum(indptr, out=indptr)
            self._vertex_triangles = (_as_readonly(indptr), _as_readonly(tri))
        return self._vertex_triangles

    def triangles_of_vertex(self, i: int) -> np.ndarray:
        indptr, tri = self.vertex_triangle_incidence()
        return tri[indptr[i] : indptr[i + 1]]

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def edge_lengths(self) -> np.ndarray:
        """Length of each unique edge, aligned with :attr:`edges`."""
        e = self.edges
        d = self.vertices[e[:, 0]] - self.vertices[e[:, 1]]
        return np.hypot(d[:, 0], d[:, 1])

    def triangle_areas(self) -> np.ndarray:
        """Unsigned area of every triangle (CCW orientation ⇒ positive)."""
        if self._triangle_areas is None:
            p0 = self.vertices[self.triangles[:, 0]]
            p1 = self.vertices[self.triangles[:, 1]]
            p2 = self.vertices[self.triangles[:, 2]]
            signed = 0.5 * (
                (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0])
            )
            self._triangle_areas = _as_readonly(np.abs(signed))
        return self._triangle_areas

    def triangle_centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def total_area(self) -> float:
        return float(self.triangle_areas().sum())

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """``(min_xy, max_xy)`` of the vertex cloud."""
        if not self.num_vertices:
            raise MeshError("empty mesh has no bounding box")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    # ------------------------------------------------------------------
    # structural utilities
    # ------------------------------------------------------------------
    def compact(self, field: np.ndarray | None = None):
        """Drop vertices not referenced by any triangle.

        Returns ``(mesh, index_map)`` or ``(mesh, index_map, field)`` when a
        per-vertex field is supplied; ``index_map[old] == new`` with ``-1``
        for dropped vertices.
        """
        used = np.zeros(self.num_vertices, dtype=bool)
        used[self.triangles.ravel()] = True
        index_map = np.full(self.num_vertices, -1, dtype=np.int64)
        index_map[used] = np.arange(int(used.sum()), dtype=np.int64)
        mesh = TriangleMesh(
            self.vertices[used], index_map[self.triangles], validate=False
        )
        if field is None:
            return mesh, index_map
        field = np.asarray(field)
        if len(field) != self.num_vertices:
            raise MeshError("field length does not match vertex count")
        return mesh, index_map, field[used]

    def is_edge(self, u: int, v: int) -> bool:
        return v in self.vertex_neighbors(u)

    def euler_characteristic(self) -> int:
        """V − E + F; 1 for a disk-like mesh, 0 for an annulus."""
        return self.num_vertices - self.num_edges + self.num_triangles

    def copy(self) -> "TriangleMesh":
        return TriangleMesh(
            self.vertices.copy(), self.triangles.copy(), validate=False
        )

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriangleMesh):
            return NotImplemented
        return (
            self.vertices.shape == other.vertices.shape
            and self.triangles.shape == other.triangles.shape
            and np.array_equal(self.vertices, other.vertices)
            and np.array_equal(
                np.sort(np.sort(self.triangles, axis=1), axis=0),
                np.sort(np.sort(other.triangles, axis=1), axis=0),
            )
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash only
        return id(self)

    def __repr__(self) -> str:
        return (
            f"TriangleMesh(num_vertices={self.num_vertices}, "
            f"num_triangles={self.num_triangles})"
        )

    def __iter__(self) -> Iterator[np.ndarray]:
        """Iterate over triangles as index triples."""
        return iter(self.triangles)
