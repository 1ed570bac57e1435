"""Mesh decimation by shortest-edge collapse (paper Algorithm 1).

The paper decimates level *l* into level *l+1* by repeatedly collapsing
the shortest edge: the edge's endpoints are removed, a new vertex is
placed at their midpoint (``NewVertex(Vi, Vj) = (Vi + Vj)/2``), the data
value at the new vertex is the mean of the endpoint values
(``NewData(Li, Lj)``), and new edges connecting the merged vertex to the
old neighborhoods are (re)inserted into the priority queue. Collapsing
stops once the requested decimation ratio ``d = |V^l| / |V^{l+1}|`` is
reached.

This implementation adds two standard robustness guards that the paper's
pseudocode leaves implicit:

* the *link condition* — an interior edge is collapsible only when its
  endpoints share exactly the two opposite vertices of its incident
  triangles (a boundary edge: exactly one). Violations would create
  non-manifold fins; such edges are retried later with an inflated
  priority rather than corrupting the mesh.
* duplicate-triangle suppression after index remapping.

Decimation is local (no cross-rank communication), matching the paper's
observation that refactoring is embarrassingly parallel; see
:mod:`repro.perfmodel` for how per-core cost is scaled to job sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.errors import DecimationError
from repro.mesh.lineage import CollapseLineage
from repro.mesh.priority_queue import EdgePriorityQueue, edge_key
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import trace

__all__ = ["decimate", "DecimationResult", "make_priority", "KERNELS", "DEFAULT_METHOD"]

#: Registered decimation kernels (see also :mod:`repro.mesh.batch_collapse`).
KERNELS = ("serial", "batched")
#: The kernel every writer uses unless told otherwise — spelled here and
#: nowhere else. ``"serial"`` is the reference Algorithm 1: ask for it by
#: name for paper figures and byte pins.
DEFAULT_METHOD = "batched"

# An edge skipped this many times for link-condition violations is dropped
# permanently; its neighborhood is evidently stuck non-manifold.
_MAX_SKIPS = 8
# Multiplier applied to a skipped edge's priority so it is retried after
# its neighborhood has had a chance to change.
_SKIP_PENALTY = 1.5

PriorityFn = Callable[[int, int], float]


@dataclass
class DecimationResult:
    """Outcome of one decimation pass (level l → level l+1).

    Attributes
    ----------
    mesh:
        The decimated, compacted mesh.
    fields:
        Decimated per-vertex fields, aligned with ``mesh.vertices``.
    achieved_ratio:
        ``|V^l| / |V^{l+1}|`` actually reached.
    collapses:
        Number of edge collapses performed (== vertices removed).
    skipped:
        Number of pops rejected by the link condition.
    exhausted:
        True when the queue ran dry before the target ratio was reached.
    lineage:
        The replayable collapse record (present when the pass ran with
        ``record_lineage=True``); see
        :class:`~repro.mesh.lineage.CollapseLineage`.
    """

    mesh: TriangleMesh
    fields: dict[str, np.ndarray]
    achieved_ratio: float
    collapses: int
    skipped: int
    exhausted: bool = False
    queue_stats: dict[str, int] = field(default_factory=dict)
    lineage: CollapseLineage | None = None


def make_priority(
    name: str,
    pos: dict[int, np.ndarray],
    data: dict[str, dict[int, float]],
    data_scale: float,
) -> PriorityFn:
    """Build a named edge-priority function.

    ``"length"`` is the paper's choice (shortest edge first). The paper
    notes that "choosing the priority of an edge is application dependent
    and is left for future study"; ``"data_aware"`` is our ablation: edge
    length inflated by the normalized field jump across the edge, so edges
    crossing sharp features are collapsed last.
    """
    if name == "length":

        def length_priority(u: int, v: int) -> float:
            d = pos[u] - pos[v]
            return float(np.hypot(d[0], d[1]))

        return length_priority

    if name == "data_aware":
        scale = data_scale if data_scale > 0 else 1.0

        def data_priority(u: int, v: int) -> float:
            d = pos[u] - pos[v]
            length = float(np.hypot(d[0], d[1]))
            jump = 0.0
            for values in data.values():
                jump = max(jump, abs(values[u] - values[v]) / scale)
            return length * (1.0 + jump)

        return data_priority

    raise DecimationError(f"unknown priority strategy: {name!r}")


def check_pass(mesh, fields, ratio: float, placement: str) -> dict:
    """Validate one pass's arguments (both kernels); fields by name."""
    if not 1.0 <= ratio < np.inf:
        raise DecimationError(
            f"decimation ratio must be finite and >= 1, got {ratio}"
        )
    if placement not in ("midpoint", "endpoint"):
        raise DecimationError(f"unknown placement {placement!r}")
    if isinstance(fields, np.ndarray):
        field_map: dict[str, np.ndarray] = {"data": fields}
    elif fields is None:
        field_map = {}
    else:
        field_map = dict(fields)
    for name, arr in field_map.items():
        if len(arr) != mesh.num_vertices:
            raise DecimationError(
                f"field {name!r} has {len(arr)} values for "
                f"{mesh.num_vertices} vertices"
            )
    return field_map


def decimate(
    mesh: TriangleMesh,
    fields: Mapping[str, np.ndarray] | np.ndarray | None = None,
    ratio: float = 2.0,
    *,
    priority: str | PriorityFn = "length",
    placement: str = "midpoint",
    strict: bool = False,
    method: str = DEFAULT_METHOD,
    record_lineage: bool = False,
) -> DecimationResult:
    """Decimate ``mesh`` by edge collapse until ``|V'| <= |V| / ratio``.

    Parameters
    ----------
    mesh:
        Input level-*l* mesh.
    fields:
        Per-vertex data: a single array, a name→array mapping, or None.
    ratio:
        Target decimation ratio between this level and the next,
        ``d = |V^l| / |V^{l+1}|`` (the paper uses 2 per step).
    priority:
        ``"length"`` (paper default), ``"data_aware"``, or a callable
        ``(u, v) -> float``.
    placement:
        Where the merged vertex goes: ``"midpoint"`` (the paper's
        ``NewVertex = (Vi + Vj)/2``) or ``"endpoint"`` — keep the first
        endpoint's position and value, so the coarse vertex set is a
        strict subset of the fine one (useful when downstream tools
        require original sample locations).
    strict:
        When true, raise :class:`DecimationError` if the queue is
        exhausted before the target ratio; otherwise return what was
        achieved with ``exhausted=True``.
    method:
        ``"batched"`` (default) — the round-based vectorized kernel
        (:func:`repro.mesh.batch_collapse.decimate_batched`);
        ``"serial"`` — Algorithm 1's heap loop (this function).
    record_lineage:
        When true, the result carries a
        :class:`~repro.mesh.lineage.CollapseLineage` that replays the
        collapse sequence on new fields bit-identically.

    Notes
    -----
    Vertex/field arrays in the result are compacted (indices renumbered);
    the mapping from fine to coarse is *positional* and recovered later by
    point location (see :mod:`repro.core.mapping`), exactly as the paper
    stores the vertex→triangle mapping in ADIOS metadata.
    """
    if method not in KERNELS:
        raise DecimationError(
            f"unknown decimation method {method!r}; expected one of {KERNELS}"
        )
    if method == "batched":
        from repro.mesh.batch_collapse import decimate_batched

        return decimate_batched(
            mesh, fields, ratio, priority=priority, placement=placement,
            strict=strict, record_lineage=record_lineage,
        )
    field_map = check_pass(mesh, fields, ratio, placement)

    n0 = mesh.num_vertices
    target_vertices = max(3, int(np.ceil(n0 / ratio)))
    target_cuts = n0 - target_vertices

    # --- dynamic mesh state ------------------------------------------------
    pos: dict[int, np.ndarray] = {i: mesh.vertices[i] for i in range(n0)}
    data: dict[str, dict[int, float]] = {
        name: dict(enumerate(np.asarray(arr, dtype=np.float64)))
        for name, arr in field_map.items()
    }
    nbr: dict[int, set[int]] = {i: set() for i in range(n0)}
    tri_table: dict[int, tuple[int, int, int]] = {
        t: tuple(tri) for t, tri in enumerate(mesh.triangles)
    }
    vert_tris: dict[int, set[int]] = {i: set() for i in range(n0)}
    for t, (a, b, c) in tri_table.items():
        nbr[a].update((b, c))
        nbr[b].update((a, c))
        nbr[c].update((a, b))
        vert_tris[a].add(t)
        vert_tris[b].add(t)
        vert_tris[c].add(t)

    data_scale = 0.0
    for arr in field_map.values():
        arr = np.asarray(arr, dtype=np.float64)
        if arr.size:
            data_scale = max(data_scale, float(arr.max() - arr.min()))
    if callable(priority):
        prio_fn = priority
    else:
        prio_fn = make_priority(priority, pos, data, data_scale)

    queue = EdgePriorityQueue()
    for u, v in mesh.edges:
        queue.push(int(u), int(v), prio_fn(int(u), int(v)))

    next_vertex = n0
    next_tri = len(tri_table)
    vertices_cut = 0
    skipped = 0
    skip_count: dict[tuple[int, int], int] = {}
    exhausted = False
    merges: list[tuple[int, int, int]] = []

    # Paper's loop condition: continue while
    #   1 - vertices_cut / |V^{l+1}| < 1 - 1/d   ⇔   vertices remaining >
    #   |V^l|/d. We use the equivalent integer form below.
    while vertices_cut < target_cuts:
        try:
            (u, v), _ = queue.pop()
        except IndexError:
            exhausted = True
            break
        if u not in nbr or v not in nbr or v not in nbr[u]:
            continue  # stale: an endpoint was already merged away

        shared_tris = vert_tris[u] & vert_tris[v]
        common_nbrs = nbr[u] & nbr[v]
        # Link condition: common neighbors must be exactly the apexes of
        # the triangles sharing edge (u, v).
        if len(common_nbrs) != len(shared_tris):
            skipped += 1
            key = edge_key(u, v)
            skip_count[key] = skip_count.get(key, 0) + 1
            if skip_count[key] < _MAX_SKIPS:
                queue.push(u, v, prio_fn(u, v) * _SKIP_PENALTY ** skip_count[key])
            continue

        # --- perform the collapse -----------------------------------------
        k = next_vertex
        next_vertex += 1
        if record_lineage:
            merges.append((u, v, k))
        if placement == "midpoint":
            pos[k] = (pos[u] + pos[v]) / 2.0  # NewVertex: midpoint
            for name in data:
                data[name][k] = (data[name][u] + data[name][v]) / 2.0  # NewData
        else:  # endpoint: subset placement keeps u's sample
            pos[k] = pos[u]
            for name in data:
                data[name][k] = data[name][u]

        # Remove triangles incident to the collapsed edge.
        for t in shared_tris:
            a, b, c = tri_table.pop(t)
            for w in (a, b, c):
                vert_tris[w].discard(t)

        # Remap surviving triangles of u and v onto k.
        affected = vert_tris[u] | vert_tris[v]
        existing = {
            tuple(sorted(tri))
            for w in (nbr[u] | nbr[v])
            if w in vert_tris
            for t2 in vert_tris[w]
            if (tri := tri_table.get(t2)) is not None
        }
        vert_tris[k] = set()
        for t in affected:
            a, b, c = tri_table.pop(t)
            for w in (a, b, c):
                vert_tris[w].discard(t)
            tri = tuple(k if w in (u, v) else w for w in (a, b, c))
            canon = tuple(sorted(tri))
            if len(set(tri)) < 3 or canon in existing:
                continue
            existing.add(canon)
            t_new = next_tri
            next_tri += 1
            tri_table[t_new] = tri
            for w in tri:
                vert_tris[w].add(t_new)

        # Rewire adjacency and the queue.
        new_nbrs = (nbr[u] | nbr[v]) - {u, v}
        for w in nbr[u]:
            nbr[w].discard(u)
            queue.discard(u, w)
        for w in nbr[v]:
            nbr[w].discard(v)
            queue.discard(v, w)
        del nbr[u], nbr[v], vert_tris[u], vert_tris[v], pos[u], pos[v]
        for name in data:
            del data[name][u]
            del data[name][v]
        nbr[k] = new_nbrs
        for w in new_nbrs:
            nbr[w].add(k)
            queue.push(k, w, prio_fn(k, w))

        vertices_cut += 1

    if exhausted and strict:
        raise DecimationError(
            f"queue exhausted after {vertices_cut}/{target_cuts} collapses"
        )

    # --- compact into arrays ------------------------------------------------
    alive = sorted(nbr.keys())
    remap = {old: new for new, old in enumerate(alive)}
    vertices = np.array([pos[i] for i in alive], dtype=np.float64)
    triangles = np.array(
        [[remap[a], remap[b], remap[c]] for a, b, c in tri_table.values()],
        dtype=np.int64,
    ).reshape(-1, 3)
    out_fields = {
        name: np.array([values[i] for i in alive], dtype=np.float64)
        for name, values in data.items()
    }
    out_mesh = TriangleMesh(vertices, triangles, validate=False)
    achieved = n0 / max(1, out_mesh.num_vertices)
    lineage = None
    if record_lineage:
        lineage = CollapseLineage.from_sequence(
            n0, merges, np.asarray(alive, dtype=np.int64),
            placement=placement,
        )
    _record_queue_metrics(queue.stats, skipped)
    return DecimationResult(
        mesh=out_mesh,
        fields=out_fields,
        achieved_ratio=achieved,
        collapses=vertices_cut,
        skipped=skipped,
        exhausted=exhausted,
        queue_stats=queue.stats,
        lineage=lineage,
    )


def _record_queue_metrics(stats: Mapping[str, int], skipped: int) -> None:
    """Surface queue churn on the active tracer's metrics registry.

    ``repro trace`` (and any :func:`repro.obs.trace_session` wrapped
    around an encode) then reports heap traffic next to the span
    timings; when no tracer is installed this is one global read.
    """
    tracer = trace.get_tracer()
    if tracer is None:
        return
    metrics = tracer.metrics
    metrics.counter("decimate.queue.pushes").inc(stats["pushes"])
    metrics.counter("decimate.queue.stale_pops").inc(stats["stale_pops"])
    metrics.counter("decimate.queue.link_skips").inc(skipped)
    metrics.gauge("decimate.queue.heap_size").set(stats["heap_size"])
