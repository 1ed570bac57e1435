"""Fine-vertex → coarse-triangle mapping metadata.

Restoration (paper Alg. 3) must know, for every vertex ``V^l_x``, which
coarse triangle ``<V^{l+1}_i, V^{l+1}_j, V^{l+1}_k>`` it falls into. The
paper: "the brute force approach … can be expensive … Canopus stores
the mapping between V^l_n and the triangle into ADIOS metadata during
the refactoring phase". :class:`LevelMapping` is that metadata: the
coarse vertex-index triple per fine vertex, plus the estimator weights.

For the paper-default mean estimator (α=β=γ=1/3) the weights are
implicit and not serialized; the barycentric estimator (our ablation of
the "optimal form of Estimate() is left for future study" remark)
serializes its per-vertex weights.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import RefactoringError
from repro.mesh.io import (
    GEOMETRY_DEFLATE,
    index_from_planes,
    index_planes,
    inflate_exact,
)
from repro.mesh.locate import TriangleLocator
from repro.mesh.triangle_mesh import TriangleMesh

__all__ = ["LevelMapping", "build_mapping"]

_MAGIC = b"CMP2"
_MEAN_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass
class LevelMapping:
    """Mapping used to lift level ``l+1`` data to level ``l``.

    Attributes
    ----------
    tri_vertices:
        ``(n_fine, 3)`` int64 — for each fine vertex, the coarse vertex
        indices ``(i, j, k)`` of its containing triangle.
    weights:
        ``(n_fine, 3)`` float64 estimator coefficients ``(α, β, γ)``
        summing to 1 per row, or ``None`` for the implicit mean
        estimator.
    """

    tri_vertices: np.ndarray
    weights: np.ndarray | None = None
    #: The three columns of ``tri_vertices``, each contiguous (lazy).
    _columns: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.tri_vertices = np.ascontiguousarray(self.tri_vertices, dtype=np.int64)
        if self.tri_vertices.ndim != 2 or self.tri_vertices.shape[1] != 3:
            raise RefactoringError("tri_vertices must be (n, 3)")
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
            if self.weights.shape != self.tri_vertices.shape:
                raise RefactoringError("weights shape must match tri_vertices")

    @property
    def n_fine(self) -> int:
        return len(self.tri_vertices)

    def estimate(self, coarse_field: np.ndarray) -> np.ndarray:
        """``Estimate(L^{l+1}_i, L^{l+1}_j, L^{l+1}_k)`` per fine vertex.

        ``coarse_field`` may be ``(n_coarse,)`` or ``(planes, n_coarse)``
        (XGC1's dpot is a stack of poloidal planes sharing one mesh);
        the plane axis broadcasts.
        """
        if self.weights is not None:
            corners = coarse_field[..., self.tri_vertices]  # (..., n_fine, 3)
            return np.einsum("...ij,ij->...i", corners, self.weights)
        # The mean as three gathers, not a reduction over an inner axis
        # of 3. Bit-identical to ``corners.mean(axis=-1)``, which sums
        # ((0 + i) + j) + k: the leading zero turns an all ``-0.0``
        # triple into ``+0.0``, and no other association matches.
        coarse_field = np.asarray(coarse_field, dtype=np.float64)
        if self._columns is None:
            self._columns = tuple(
                np.ascontiguousarray(self.tri_vertices[:, k]) for k in range(3)
            )
        i, j, k = self._columns
        out = np.take(coarse_field, i, axis=-1)
        out += 0.0
        out += np.take(coarse_field, j, axis=-1)
        out += np.take(coarse_field, k, axis=-1)
        out /= 3.0
        return out

    # -- serialization ----------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize (deflated — indices are highly repetitive)."""
        has_w = self.weights is not None
        header = _MAGIC + struct.pack("<QB", self.n_fine, int(has_w))
        body = index_planes(self.tri_vertices, RefactoringError)
        if has_w:
            body += self.weights.astype("<f8").tobytes()
        return header + zlib.compress(body, GEOMETRY_DEFLATE)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "LevelMapping":
        if len(blob) < 13 or blob[:4] != _MAGIC or blob[12] > 1:
            raise RefactoringError("not a mapping payload")
        n, has_w = struct.unpack_from("<QB", blob, 4)
        size = n * (36 if has_w else 12)
        body = inflate_exact(blob[13:], size, RefactoringError, "mapping")
        tri = index_from_planes(body, n * 3).reshape(n, 3)
        if not has_w:
            return cls(tri_vertices=tri)
        weights = np.frombuffer(body, "<f8", offset=n * 12).reshape(n, 3)
        return cls(tri_vertices=tri, weights=weights.copy())


def build_mapping(
    fine_mesh: TriangleMesh,
    coarse_mesh: TriangleMesh,
    *,
    estimator: str = "mean",
    locator: TriangleLocator | None = None,
) -> LevelMapping:
    """Locate every fine vertex in the coarse mesh and build the mapping.

    Parameters
    ----------
    estimator:
        ``"mean"`` — the paper's α=β=γ=1/3 (weights implicit);
        ``"barycentric"`` — linear-exact weights from point location.
    """
    if estimator not in ("mean", "barycentric"):
        raise RefactoringError(f"unknown estimator {estimator!r}")
    if locator is None:
        locator = TriangleLocator(coarse_mesh)
    tri_ids, bary = locator.locate(fine_mesh.vertices)
    tri_vertices = coarse_mesh.triangles[tri_ids]
    if estimator == "mean":
        return LevelMapping(tri_vertices=tri_vertices)
    return LevelMapping(tri_vertices=tri_vertices, weights=bary)
