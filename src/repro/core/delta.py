"""Delta calculation (paper Algorithm 2) and its inverse.

For each fine-level vertex ``x`` inside coarse triangle ``<i, j, k>``::

    delta^{l-(l+1)}_x = L^l_x − Estimate(L^{l+1}_i, L^{l+1}_j, L^{l+1}_k)
    Estimate(·) = α·L^{l+1}_i + β·L^{l+1}_j + γ·L^{l+1}_k,  α+β+γ = 1

The estimate exploits the correlation between adjacent levels: the delta
is near zero and much smoother than ``L^l`` itself, so it compresses far
better (the paper's Fig. 4/Fig. 5 observation). Restoration
(Algorithm 3) is the exact inverse, so with a lossless compressor the
round trip is bit-exact; with a lossy compressor the error is exactly
the compressor's bound on the delta payload.
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping import LevelMapping
from repro.errors import RefactoringError, RestorationError

__all__ = ["compute_delta", "apply_delta"]


def compute_delta(
    fine_field: np.ndarray,
    coarse_field: np.ndarray,
    mapping: LevelMapping,
) -> np.ndarray:
    """``delta = L^l − Estimate(L^{l+1})`` (Algorithm 2, vectorized).

    Fields may be ``(n,)`` or ``(planes, n)``; the plane axis broadcasts.
    """
    fine_field = np.asarray(fine_field, dtype=np.float64)
    coarse_field = np.asarray(coarse_field, dtype=np.float64)
    if fine_field.shape[-1] != mapping.n_fine:
        raise RefactoringError(
            f"fine field has {fine_field.shape[-1]} values; mapping expects "
            f"{mapping.n_fine}"
        )
    if mapping.tri_vertices.max(initial=-1) >= coarse_field.shape[-1]:
        raise RefactoringError("mapping references vertices beyond coarse field")
    return fine_field - mapping.estimate(coarse_field)


def apply_delta(
    coarse_field: np.ndarray,
    delta: np.ndarray,
    mapping: LevelMapping,
) -> np.ndarray:
    """``L^l = delta + Estimate(L^{l+1})`` (Algorithm 3, vectorized)."""
    coarse_field = np.asarray(coarse_field, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape[-1] != mapping.n_fine:
        raise RestorationError(
            f"delta has {delta.shape[-1]} values; mapping expects {mapping.n_fine}"
        )
    if mapping.tri_vertices.max(initial=-1) >= coarse_field.shape[-1]:
        raise RestorationError("mapping references vertices beyond coarse field")
    return delta + mapping.estimate(coarse_field)
