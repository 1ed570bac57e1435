"""Round-based vectorized edge-collapse kernel (``method="batched"``).

The serial kernel (:mod:`repro.mesh.edge_collapse`) is a faithful
transcription of the paper's Algorithm 1: one heap pop, one collapse,
one neighborhood rewrite per iteration — all in Python. This module
trades the strict shortest-edge-first order for throughput: each *round*
selects a maximal set of short edges whose closed 1-rings are pairwise
disjoint and collapses them all at once with NumPy index remapping.

Selection is Luby-style with two twists that make it effective on
meshes. First, each round only admits *short* edges — those at or below
the round's median candidate priority — so the kernel still works
shortest-edges-first in aggregate. Second, ranks inside the pool come
from a deterministic integer hash of the edge's extended-id key, not
from the priority sort: edge lengths vary smoothly across a mesh, so
priority-ordered ranks have almost no local minima and would select
only a handful of edges per round, while hashed ranks are spatially
uncorrelated and select a constant fraction. An edge is selected iff
its rank is the minimum over the *closed* neighborhoods of both
endpoints; two selected edges therefore cannot share an endpoint or
even have adjacent endpoints — if a vertex ``a`` of one and ``b`` of
the other were adjacent, each edge's rank would have to be ≤ the
other's via ``m2[a] ≤ m1[b]``, forcing equal ranks and hence the same
edge. Selection is repeated within the round (blocking the closed
neighborhoods of already-selected endpoints) until the pool is
maximally consumed, so one expensive edge/link-condition rebuild is
amortized over many collapses. With 1-rings disjoint, no triangle is
touched by two collapses and untouched edges' link conditions stay
valid, so the whole round is a single gather/scatter.

The same robustness guards as the serial kernel apply, vectorized:

* *link condition* — per edge, ``#common neighbors`` (one sparse
  matrix product) must equal ``#shared triangles`` (edge multiplicity
  over the triangle soup). Failing edges sit out the round, accumulate
  a skip penalty, and are banned after ``_MAX_SKIPS`` failures.
* duplicate-triangle suppression after remapping.
* *flip/sliver guard* — a selected collapse that would flip a triangle
  of its 1-ring, or shrink one below ``_MIN_AREA_FRACTION`` of its area,
  is un-selected before the round commits and penalised like a link
  failure (the serial kernel has no such guard).

Collapse lineage is recorded natively: one round = one generation group
of :class:`~repro.mesh.lineage.CollapseLineage` (sources within a round
are disjoint by construction), so plan replay of the batched kernel is
bit-identical to the kernel's own field coarsening.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
from scipy import sparse

from repro.errors import DecimationError
from repro.mesh.edge_collapse import (
    _MAX_SKIPS,
    _SKIP_PENALTY,
    DecimationResult,
    check_pass,
)
from repro.mesh.lineage import CollapseLineage
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import trace

__all__ = ["decimate_batched"]

# A collapse may not shrink any triangle it moves a corner of below this
# fraction of the triangle's area before the round (negative = flipped).
_MIN_AREA_FRACTION = 1e-3


def _hash_ranks(gkey: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-random unique ranks from packed edge keys.

    Murmur3's 64-bit finalizer decorrelates the spatially-smooth id
    space; argsort then assigns unique integer ranks (hash collisions
    merely fall back to index order). Keys are extended ids, so ranks
    are stable across runs and processes — decimation stays
    reproducible.
    """
    h = gkey.astype(np.uint64)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    rank = np.empty(len(h), dtype=np.int64)
    rank[np.argsort(h, kind="stable")] = np.arange(len(h), dtype=np.int64)
    return rank


def _merge(arr: np.ndarray, u: np.ndarray, v: np.ndarray, placement: str):
    """``NewVertex`` / ``NewData`` for the collapses ``(u[i], v[i])``."""
    return (arr[u] + arr[v]) / 2.0 if placement == "midpoint" else arr[u]


def _area2(p: np.ndarray) -> np.ndarray:
    """Twice the signed area of each ``(3, 2)`` corner block of ``p``."""
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def _edges(tris: np.ndarray, n: int):
    """Unique edges ``(eu, ev)`` of ``tris`` (``eu < ev``, sorted) and the
    number of triangles sharing each."""
    a, b = tris[:, [0, 1, 0]].ravel(), tris[:, [1, 2, 2]].ravel()
    ekey = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
    del a, b
    ekey.sort()
    starts = np.flatnonzero(np.r_[True, ekey[1:] != ekey[:-1], True])
    ekey = ekey[starts[:-1]]
    return ekey // n, ekey % n, np.diff(starts)


def _link_ok(eu: np.ndarray, ev: np.ndarray, shared: np.ndarray, n: int):
    """Link condition per edge: #common neighbours == #shared triangles.

    Common neighbours come from one sparse product of the adjacency; it
    and the product are the round's largest temporaries, so they live
    only here.
    """
    adj = sparse.csr_matrix(
        (np.ones(2 * len(eu), dtype=np.int32), (np.r_[eu, ev], np.r_[ev, eu])),
        shape=(n, n),
    )
    return np.asarray((adj @ adj)[eu, ev]).ravel() == shared


def _dedupe_triangles(tris: np.ndarray, n: int) -> np.ndarray:
    """``tris`` without repeated vertex sets; first occurrences, in order.

    Vertex ids are in ``[0, n)``. The sorted corners are compared as a
    pair of keys, ``c0*n + c1`` and ``c2``, which fit int64 while
    ``n < 2**31``; one packed key ``(c0*n + c1)*n + c2`` would wrap once
    ``n > 2**21`` and merge distinct faces.
    """
    if not len(tris):
        return tris
    canon = np.sort(tris, axis=1).astype(np.int64)
    key = canon[:, 0] * n + canon[:, 1]
    order = np.lexsort((canon[:, 2], key))  # stable: ties by position
    key, c2 = key[order], canon[order, 2]
    first = order[np.r_[True, (key[1:] != key[:-1]) | (c2[1:] != c2[:-1])]]
    return tris[np.sort(first)]


def _flip_rejects(pos, tris, su, sv, merged_pos) -> np.ndarray:
    """Mask of the selected collapses that flip or squash a triangle.

    1-rings of the selection are disjoint, so a triangle with exactly
    one merged corner has one owner; it is measured with that corner at
    its old and at its merged position. Triangles with two merged
    corners die with the edge and are not looked at.
    """
    own = np.full(len(pos), -1, dtype=tris.dtype)
    own[su] = own[sv] = np.arange(len(su))
    owners = own[tris]
    moved = owners >= 0
    # Never three merged corners (1-rings are disjoint): odd means one.
    rows = np.flatnonzero(moved[:, 0] ^ moved[:, 1] ^ moved[:, 2])
    corner = moved[rows].argmax(axis=1)
    owner = owners[rows, corner]
    p = pos[tris[rows]]
    before = _area2(p)
    p[np.arange(len(rows)), corner] = merged_pos[owner]
    reject = np.zeros(len(su), dtype=bool)
    reject[owner[_area2(p) < _MIN_AREA_FRACTION * before]] = True
    return reject


def _select(eu, ev, pool, gkey, n, remaining, pos, tris, placement):
    """Sub-iterated Luby selection over one round's short-edge ``pool``.

    Returns the selected edges (closed 1-rings pairwise disjoint, at
    most ``remaining`` of them), the edges the flip/sliver guard
    rejected, and the mask of the ``n`` vertices the selection merges.
    """
    n_edges = len(eu)
    # Only ranks inside the pool are ever compared (avail ⊂ pool).
    big = np.int64(n_edges)
    rnk = np.full(n_edges, big)
    rnk[pool] = _hash_ranks(gkey[pool])
    merged_mask = np.zeros(n, dtype=bool)
    sel_parts: list[np.ndarray] = []
    rej_parts: list[np.ndarray] = []
    n_sel = 0
    avail = pool.copy()
    while avail.any() and n_sel < remaining:
        rank_eff = np.where(avail, rnk, big)
        m1 = np.full(n, big, dtype=np.int64)
        np.minimum.at(m1, eu, rank_eff)
        np.minimum.at(m1, ev, rank_eff)
        # Propagate over ALL mesh edges: conflicts come from mesh
        # adjacency, not just pool membership.
        m2 = m1.copy()
        np.minimum.at(m2, eu, m1[ev])
        np.minimum.at(m2, ev, m1[eu])
        selected = avail & (rank_eff == m2[eu]) & (rank_eff == m2[ev])
        sel = np.flatnonzero(selected)
        if len(sel) == 0:
            break  # unreachable while avail is non-empty; safety net
        if n_sel + len(sel) > remaining:
            sel = sel[np.argsort(rnk[sel])][: remaining - n_sel]
        # Flip/sliver guard: a rejected edge leaves the round without
        # blocking its neighbours, so the round keeps filling.
        su, sv_ = eu[sel], ev[sel]
        reject = _flip_rejects(
            pos, tris, su, sv_, _merge(pos, su, sv_, placement)
        )
        if reject.any():
            rej_parts.append(sel[reject])
            avail[sel[reject]] = False
            sel = sel[~reject]
        sel_parts.append(sel)
        n_sel += len(sel)
        # Block the closed neighborhoods of the merged endpoints so
        # later sub-iterations stay 1-ring disjoint from this one
        # (their link conditions are then also still valid). Blocking
        # radiates exactly one hop from merged vertices — recomputed
        # from merged_mask so it never compounds across sub-iterations.
        merged_mask[eu[sel]] = True
        merged_mask[ev[sel]] = True
        blocked = merged_mask.copy()
        blocked[ev[merged_mask[eu]]] = True
        blocked[eu[merged_mask[ev]]] = True
        avail &= ~blocked[eu] & ~blocked[ev]
    empty = np.empty(0, dtype=np.intp)
    return (
        np.concatenate([empty, *sel_parts]),
        np.concatenate([empty, *rej_parts]),
        merged_mask,
    )


def decimate_batched(
    mesh: TriangleMesh,
    fields: Mapping[str, np.ndarray] | np.ndarray | None = None,
    ratio: float = 2.0,
    *,
    priority="length",
    placement: str = "midpoint",
    strict: bool = False,
    record_lineage: bool = False,
):
    """Decimate ``mesh`` with the round-based vectorized kernel.

    Accepts the same arguments as :func:`repro.mesh.edge_collapse.decimate`
    and returns the same :class:`~repro.mesh.edge_collapse.DecimationResult`.
    Callable priorities are evaluated per edge on *extended* vertex ids
    (original indices, then ``n_fine + k`` for the k-th merge), one call
    per live edge per round — prefer the named strategies, which are
    fully vectorized.
    """
    field_map = check_pass(mesh, fields, ratio, placement)

    n0 = mesh.num_vertices
    target_vertices = max(3, int(np.ceil(n0 / ratio)))
    target_cuts = n0 - target_vertices

    pos = np.array(mesh.vertices, dtype=np.float64)
    # Triangles are stored as int32 while ids fit. Edge endpoints stay
    # intp: every gather and ufunc.at would cast int32 indices back, and
    # the Luby loop gathers through them many times per round.
    idx = np.int32 if n0 < 2**31 else np.int64
    tris = np.array(mesh.triangles, dtype=idx)
    vals = {
        name: np.asarray(arr, dtype=np.float64).copy()
        for name, arr in field_map.items()
    }
    # Extended-id of each current (local) vertex; the k-th merge overall
    # creates id n0 + k, matching CollapseLineage's convention.
    gid = np.arange(n0, dtype=np.int64)
    next_gid = n0
    # Smallest fine vertex each current vertex descends from: the output
    # order (hash-ordered merges would cost the geometry blobs locality).
    root = gid.copy()

    data_scale = 0.0
    for arr in vals.values():
        if arr.size:
            data_scale = max(data_scale, float(arr.max() - arr.min()))
    if data_scale <= 0.0:
        data_scale = 1.0

    # Lineage accumulators: one generation group per round, each a
    # (src_u, src_v, dst) block.
    merges = [np.empty((3, 0), dtype=np.int64)]
    group_sizes: list[int] = []

    # Link-condition and flip-guard failures per packed extended-id edge
    # key: sorted keys and their counts.
    skip_keys = skip_counts = np.empty(0, dtype=np.int64)

    cuts = 0
    skipped = 0
    flip_rejects = 0
    rounds = 0
    exhausted = False

    while cuts < target_cuts:
        n = len(pos)
        if len(tris) == 0:
            exhausted = True
            break

        # --- live edge set + shared-triangle multiplicity ----------------
        eu, ev, shared = _edges(tris, n)
        n_edges = len(eu)  # >= 3: tris is not empty

        # --- priorities ---------------------------------------------------
        if callable(priority):
            prio = np.fromiter(
                (priority(int(gid[a]), int(gid[b])) for a, b in zip(eu, ev)),
                np.float64,
                n_edges,
            )
        else:
            prio = np.hypot(*(pos[eu] - pos[ev]).T)
            if priority == "data_aware":
                jump = np.zeros(n_edges, dtype=np.float64)
                for arr in vals.values():
                    np.maximum(
                        jump, np.abs(arr[eu] - arr[ev]) / data_scale, out=jump
                    )
                prio = prio * (1.0 + jump)
            elif priority != "length":
                raise DecimationError(
                    f"unknown priority strategy: {priority!r}"
                )

        # --- skip penalties / bans (keyed on extended ids) ---------------
        gu, gv = gid[eu], gid[ev]
        gkey = (np.minimum(gu, gv) << 32) | np.maximum(gu, gv)
        del gu, gv
        banned = np.zeros(n_edges, dtype=bool)
        if len(skip_keys):
            loc = np.minimum(
                np.searchsorted(skip_keys, gkey), len(skip_keys) - 1
            )
            counts = np.where(skip_keys[loc] == gkey, skip_counts[loc], 0)
            banned = counts >= _MAX_SKIPS
            prio = prio * _SKIP_PENALTY ** counts

        # --- link condition, vectorized -----------------------------------
        link_ok = _link_ok(eu, ev, shared, n)
        fails = np.flatnonzero(~link_ok & ~banned)
        skipped += len(fails)

        # --- short-edge pool: at or below the median candidate priority ---
        pool = candidate = link_ok & ~banned
        if candidate.any():
            pool = candidate & (prio <= np.quantile(prio[candidate], 0.5))
            if not pool.any():  # degenerate priorities; fall back to all
                pool = candidate

        # --- sub-iterated Luby selection over the pool ---------------------
        sel, rejected, merged_mask = _select(
            eu, ev, pool, gkey, n, target_cuts - cuts, pos, tris, placement
        )
        n_sel = len(sel)
        # Link failures and guard rejections (distinct edges) each count
        # one more failure in the sorted key / count pair.
        failed = np.concatenate([fails, rejected])
        flip_rejects += len(rejected)
        if len(failed):
            keys, inv = np.unique(
                np.concatenate([skip_keys, gkey[failed]]), return_inverse=True
            )
            tally = np.zeros(len(keys), dtype=np.int64)
            tally[inv[: len(skip_keys)]] = skip_counts
            tally[inv[len(skip_keys):]] += 1
            skip_keys, skip_counts = keys, tally
        if n_sel == 0:
            if not len(failed):
                exhausted = True
                break
            rounds += 1
            continue
        su, sv_ = eu[sel], ev[sel]

        # --- collapse the whole round at once -----------------------------
        new_gids = next_gid + np.arange(n_sel, dtype=np.int64)
        next_gid += n_sel
        merges.append(np.stack([gid[su], gid[sv_], new_gids]))
        group_sizes.append(n_sel)

        survivors = np.flatnonzero(~merged_mask)
        ns = len(survivors)
        remap = np.empty(n, dtype=idx)
        remap[survivors] = np.arange(ns)
        remap[su] = remap[sv_] = ns + np.arange(n_sel)

        pos = np.concatenate([pos[survivors], _merge(pos, su, sv_, placement)])
        gid = np.concatenate([gid[survivors], new_gids])
        root = np.concatenate(
            [root[survivors], np.minimum(root[su], root[sv_])]
        )
        for name, arr in vals.items():
            vals[name] = np.concatenate(
                [arr[survivors], _merge(arr, su, sv_, placement)]
            )

        t2 = remap[tris]
        deg = (
            (t2[:, 0] == t2[:, 1])
            | (t2[:, 1] == t2[:, 2])
            | (t2[:, 0] == t2[:, 2])
        )
        tris = _dedupe_triangles(t2[~deg], len(pos))

        cuts += n_sel
        rounds += 1

    if exhausted and strict:
        raise DecimationError(
            f"batched kernel exhausted after {cuts}/{target_cuts} collapses"
        )

    order = np.argsort(root)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    pos, gid, tris = pos[order], gid[order], rank[tris]
    vals = {name: arr[order] for name, arr in vals.items()}
    out_mesh = TriangleMesh(pos, tris, validate=False)
    achieved = n0 / max(1, out_mesh.num_vertices)
    lineage = None
    if record_lineage:
        src_u, src_v, dst = np.concatenate(merges, axis=1)
        lineage = CollapseLineage(
            n_fine=n0, src_u=src_u, src_v=src_v, dst=dst,
            group_offsets=np.cumsum([0] + group_sizes),
            alive_ids=gid, placement=placement,
        )
    trace.count("decimate.batched.rounds", rounds)
    trace.count("decimate.batched.collapses", cuts)
    trace.count("decimate.queue.link_skips", skipped)
    trace.count("decimate.batched.flip_rejects", flip_rejects)
    return DecimationResult(
        mesh=out_mesh,
        fields=vals,
        achieved_ratio=achieved,
        collapses=cuts,
        skipped=skipped,
        exhausted=exhausted,
        queue_stats={
            "rounds": rounds, "link_skips": skipped,
            "flip_rejects": flip_rejects,
        },
        lineage=lineage,
    )
