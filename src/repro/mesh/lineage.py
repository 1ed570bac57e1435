"""Collapse lineage: the reusable record of one decimation pass.

Algorithm 1's output is fully determined by the *collapse sequence* —
which vertex pairs merged, in what order, and which vertices survived.
Once that sequence is known for a mesh, coarsening any per-vertex field
on the same mesh needs no priority queue and no connectivity at all:
every ``NewData(L_i, L_j) = (L_i + L_j)/2`` mean is a gather/compute/
scatter over three index arrays. :class:`CollapseLineage` stores exactly
that, grouped into *generations* of mutually independent merges so the
replay is a handful of vectorized statements per generation rather than
one Python iteration per collapse.

Replay is bit-identical to re-running the collapse sequence: each merge
evaluates the same IEEE-754 expression on the same operands, and merges
within a generation touch disjoint ids, so vectorized evaluation order
cannot change any result. This is what lets
:class:`~repro.core.decimation_plan.DecimationPlan` decimate a campaign's
geometry once and replay it per timestep/variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecimationError

__all__ = ["CollapseLineage"]

_PLACEMENTS = ("midpoint", "endpoint")


@dataclass
class CollapseLineage:
    """Replayable record of one decimation pass (level l → l+1).

    Ids live in an *extended* space: fine vertices keep their indices
    ``0 .. n_fine−1``; the k-th merge creates id ``n_fine + k``.

    Attributes
    ----------
    n_fine:
        Vertex count of the input (fine) mesh.
    src_u / src_v / dst:
        ``(k,)`` int64 arrays: merge ``i`` replaced ``src_u[i]`` and
        ``src_v[i]`` with ``dst[i]``.
    group_offsets:
        ``(g+1,)`` int64 CSR offsets splitting the merges into
        dependency-free groups: every source id of group ``j`` was
        produced before group ``j`` started, and no id appears twice
        within a group.
    alive_ids:
        ``(n_coarse,)`` extended ids of the surviving vertices, in the
        coarse mesh's output order.
    placement:
        ``"midpoint"`` (merged value is the endpoint mean) or
        ``"endpoint"`` (keeps ``src_u``'s value).
    """

    n_fine: int
    src_u: np.ndarray
    src_v: np.ndarray
    dst: np.ndarray
    group_offsets: np.ndarray
    alive_ids: np.ndarray
    placement: str = "midpoint"

    def __post_init__(self) -> None:
        self.src_u = np.ascontiguousarray(self.src_u, dtype=np.int64)
        self.src_v = np.ascontiguousarray(self.src_v, dtype=np.int64)
        self.dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        self.group_offsets = np.ascontiguousarray(
            self.group_offsets, dtype=np.int64
        )
        self.alive_ids = np.ascontiguousarray(self.alive_ids, dtype=np.int64)
        if not (len(self.src_u) == len(self.src_v) == len(self.dst)):
            raise DecimationError("merge arrays must share one length")
        if self.placement not in _PLACEMENTS:
            raise DecimationError(f"unknown placement {self.placement!r}")
        if len(self.group_offsets) < 1 or self.group_offsets[0] != 0 or (
            self.group_offsets[-1] != len(self.dst)
        ):
            raise DecimationError("group_offsets must span all merges")

    # ------------------------------------------------------------------
    @property
    def num_merges(self) -> int:
        return len(self.dst)

    @property
    def n_coarse(self) -> int:
        return len(self.alive_ids)

    @property
    def num_groups(self) -> int:
        return len(self.group_offsets) - 1

    # ------------------------------------------------------------------
    @classmethod
    def from_sequence(
        cls,
        n_fine: int,
        merges: list[tuple[int, int, int]],
        alive_ids: np.ndarray,
        *,
        placement: str = "midpoint",
    ) -> "CollapseLineage":
        """Build a lineage from an ordered ``(u, v, dst)`` sequence.

        Used by the serial kernel: the heap loop emits one merge per
        collapse; here they are re-grouped by *generation* (a merge's
        generation is one past its deepest source) so the replay can go
        wide. Regrouping is sound because every id is merged away at most
        once — dependencies only flow through ``dst`` chains, which the
        generation order respects.
        """
        k = len(merges)
        if k == 0:
            return cls(
                n_fine=n_fine,
                src_u=np.empty(0, np.int64),
                src_v=np.empty(0, np.int64),
                dst=np.empty(0, np.int64),
                group_offsets=np.zeros(1, np.int64),
                alive_ids=alive_ids,
                placement=placement,
            )
        src_u = np.fromiter((m[0] for m in merges), np.int64, k)
        src_v = np.fromiter((m[1] for m in merges), np.int64, k)
        dst = np.fromiter((m[2] for m in merges), np.int64, k)
        gen = np.zeros(int(dst.max()) + 1, dtype=np.int64)
        merge_gen = np.empty(k, dtype=np.int64)
        for i in range(k):
            g = max(gen[src_u[i]], gen[src_v[i]]) + 1
            gen[dst[i]] = g
            merge_gen[i] = g
        order = np.argsort(merge_gen, kind="stable")
        counts = np.bincount(merge_gen[order] - 1)
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            n_fine=n_fine,
            src_u=src_u[order],
            src_v=src_v[order],
            dst=dst[order],
            group_offsets=offsets,
            alive_ids=alive_ids,
            placement=placement,
        )

    # ------------------------------------------------------------------
    def replay(self, field: np.ndarray) -> np.ndarray:
        """Coarsen ``field`` by replaying the collapse sequence.

        ``field`` is ``(n_fine,)`` or ``(planes, n_fine)``; the plane
        axis broadcasts. The result is aligned with the coarse mesh's
        vertex order and bit-identical to what the recording decimation
        pass produced for the same input values.
        """
        field = np.asarray(field, dtype=np.float64)
        if field.shape[-1] != self.n_fine:
            raise DecimationError(
                f"field has {field.shape[-1]} values; lineage expects "
                f"{self.n_fine}"
            )
        # Extended ids: the fine vertices, then one slot per merge.
        vals = np.empty(
            field.shape[:-1] + (self.n_fine + self.num_merges,),
            dtype=np.float64,
        )
        vals[..., : self.n_fine] = field
        midpoint = self.placement == "midpoint"
        for g in range(self.num_groups):
            sl = slice(self.group_offsets[g], self.group_offsets[g + 1])
            if midpoint:
                vals[..., self.dst[sl]] = (
                    vals[..., self.src_u[sl]] + vals[..., self.src_v[sl]]
                ) / 2.0
            else:
                vals[..., self.dst[sl]] = vals[..., self.src_u[sl]]
        return vals[..., self.alive_ids]
