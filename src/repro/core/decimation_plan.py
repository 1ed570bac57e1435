"""Reusable decimation plans: decimate geometry once, replay per field.

Algorithm 1's collapse sequence depends only on the mesh (for the
paper's ``"length"`` priority), yet the seed write path re-ran the full
heap loop for every timestep and every variable. A
:class:`DecimationPlan` captures everything the write path needs from
one geometry pass:

* the level meshes ``G^0 .. G^{N−1}``;
* one :class:`~repro.mesh.lineage.CollapseLineage` per step, so
  coarsening any new field is a vectorized replay that is bit-identical
  to re-running the collapse sequence on that field;
* the fine→coarse :class:`~repro.core.mapping.LevelMapping` per step
  (paper §III-E2), needed for delta calculation.

Plans live in memory only, in a process-wide :class:`PlanCache` keyed
by (mesh content fingerprint, level scheme, kernel, priority,
placement, estimator). Every writer
gets its plan from :func:`plan_for`, so a campaign decimates once and
replays per timestep/variable.

Only geometry-determined priorities are cached: ``"data_aware"``
orders collapses by the field being written, and callables are opaque,
so :func:`plan_for` builds those afresh, carrying the field through the
collapse (see :func:`plan_eligible`).
"""

from __future__ import annotations

import hashlib
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.delta import compute_delta
from repro.core.mapping import LevelMapping, build_mapping
from repro.core.notation import LevelScheme
from repro.errors import RefactoringError
from repro.lru import LRU
from repro.mesh.edge_collapse import DEFAULT_METHOD, KERNELS, decimate
from repro.mesh.io import mesh_to_bytes
from repro.mesh.lineage import CollapseLineage
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import trace

__all__ = [
    "DecimationPlan",
    "PlanCache",
    "as_field",
    "build_plan",
    "get_plan_cache",
    "mesh_fingerprint",
    "plan_eligible",
    "plan_for",
]

def mesh_fingerprint(mesh: TriangleMesh) -> str:
    """Content hash of a mesh (coordinates + connectivity), kept on it."""
    if mesh._fingerprint is None:
        h = hashlib.blake2b(digest_size=16)
        v = np.ascontiguousarray(mesh.vertices, dtype=np.float64)
        t = np.ascontiguousarray(mesh.triangles, dtype=np.int64)
        h.update(np.int64(v.shape[0]).tobytes())
        h.update(np.int64(t.shape[0]).tobytes())
        h.update(v.tobytes())
        h.update(t.tobytes())
        mesh._fingerprint = h.hexdigest()
    return mesh._fingerprint


def plan_eligible(priority) -> bool:
    """True when the collapse order is determined by geometry alone."""
    return priority == "length"


def as_field(data: np.ndarray, n_fine: int, what: str = "") -> np.ndarray:
    """``data`` as the contiguous float64 field of ``n_fine`` vertices.

    The one shape check of the write path: ``(n,)`` or ``(planes, n)``.
    ``what`` names the offending input (``"step 3: "``) for callers that
    refactor many.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim not in (1, 2) or data.shape[-1] != n_fine:
        raise RefactoringError(
            f"{what}data of shape {data.shape} does not match plan's "
            f"{n_fine} fine vertices (expect (n,) or (planes, n))"
        )
    return data


def _spatial_chunks(vertices: np.ndarray, target: int) -> list[np.ndarray]:
    """Bin vertices into ≈``target`` spatially compact groups.

    A uniform grid over the bounding box; empty cells are dropped, so the
    returned group count can be below ``target``. Every vertex appears in
    exactly one group.
    """
    g = max(1, int(np.ceil(np.sqrt(target))))
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    cells = np.clip(
        ((vertices - lo) / span * g).astype(np.int64), 0, g - 1
    )
    flat = cells[:, 0] * g + cells[:, 1]
    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    boundaries = np.flatnonzero(np.diff(sorted_flat)) + 1
    return [grp for grp in np.split(order, boundaries) if len(grp)]


def _chunk_layout(mesh: TriangleMesh, chunks: int) -> list[tuple]:
    """``(vertex indices, deflated idx payload, bbox)`` per spatial chunk."""
    layout = []
    for idx in _spatial_chunks(mesh.vertices, chunks):
        pts = mesh.vertices[idx]
        bbox = [float(v) for v in (*pts.min(axis=0), *pts.max(axis=0))]
        layout.append((idx, zlib.compress(idx.astype("<i8").tobytes(), 6), bbox))
    return layout


@dataclass
class DecimationPlan:
    """Replayable record of one full multi-level geometry refactoring.

    Attributes
    ----------
    scheme:
        The level progression the plan realizes.
    meshes:
        ``meshes[l]`` is ``G^l``; index 0 is the input mesh.
    lineages:
        ``lineages[l]`` replays the ``G^l → G^{l+1}`` collapse sequence
        on any per-vertex field of ``G^l``.
    mappings:
        ``mappings[l]`` lifts level ``l+1`` estimates back to ``l``.
    method / priority / placement / estimator:
        The kernel configuration the plan was built with.
    build_seconds:
        Wall time of the one-time geometry pass (decimation + mapping).
    """

    scheme: LevelScheme
    meshes: list[TriangleMesh]
    lineages: list[CollapseLineage]
    mappings: list[LevelMapping]
    method: str = DEFAULT_METHOD
    priority: str = "length"
    placement: str = "midpoint"
    estimator: str = "mean"
    build_seconds: float = 0.0
    achieved_ratios: list[float] = field(default_factory=list)
    # What writers derive from geometry alone (geometry_blobs,
    # chunk_layout): kept with the plan, not compared.
    # Threads racing on a first use compute the same bytes twice.
    _memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return self.scheme.num_levels

    def geometry_blobs(self) -> tuple[list[bytes], list[bytes]]:
        """``(mesh payloads, mapping payloads)`` as the writers store them.

        Deflating them costs more than refactoring a field, so every
        encode over this plan — each variable, each campaign — shares
        the copy made on first use. Callers must not modify the lists.
        """
        if "geometry" not in self._memo:
            self._memo["geometry"] = (
                [mesh_to_bytes(mesh) for mesh in self.meshes],
                [mapping.to_bytes() for mapping in self.mappings],
            )
        return self._memo["geometry"]

    def chunk_layout(self, chunks: int) -> list[list[tuple]]:
        """Per delta level, its mesh binned into ``chunks`` spatial chunks:
        ``(vertex indices, deflated idx payload, bbox)`` each; made once
        per ``chunks``, like :meth:`geometry_blobs`."""
        if chunks not in self._memo:
            self._memo[chunks] = [
                _chunk_layout(self.meshes[lvl], chunks)
                for lvl in self.scheme.delta_levels()
            ]
        return self._memo[chunks]

    def coarsen_level(self, lvl: int, fine: np.ndarray, arena=None) -> np.ndarray:
        """``L^{lvl+1}`` from ``L^lvl``: one vectorized lineage replay.

        Bit-identical to running the recorded collapse sequence on
        ``fine``. ``arena`` may supply a buffer pool (``take(shape)`` /
        ``give(buf)``, e.g. :class:`~repro.core.refactor.BufferArena`)
        for the replay's extended-id scratch; the returned level is
        always a fresh array.
        """
        lineage = self.lineages[lvl]
        scratch = None
        if arena is not None:
            scratch = arena.take(
                fine.shape[:-1] + (lineage.n_fine + lineage.num_merges,)
            )
        coarse = lineage.replay(fine, scratch=scratch)
        if arena is not None:
            arena.give(scratch)
        return coarse

    def delta_level(
        self, lvl: int, fine: np.ndarray, coarse: np.ndarray, out=None
    ) -> np.ndarray:
        """``delta^{lvl-(lvl+1)}`` (Algorithm 2), into ``out`` when given."""
        return compute_delta(fine, coarse, self.mappings[lvl], out=out)

    def coarsen(self, data: np.ndarray) -> list[np.ndarray]:
        """All level fields ``[L^0 .. L^{N−1}]`` for a new fine field.

        Accepts ``(n,)`` or ``(planes, n)``.
        """
        levels = [as_field(data, self.meshes[0].num_vertices)]
        for lvl in self.scheme.delta_levels():
            levels.append(self.coarsen_level(lvl, levels[-1]))
        return levels

    def deltas_for(self, levels: list[np.ndarray]) -> list[np.ndarray]:
        """Per-level deltas for already-coarsened level fields."""
        return [
            self.delta_level(lvl, levels[lvl], levels[lvl + 1])
            for lvl in self.scheme.delta_levels()
        ]


def build_plan(
    mesh: TriangleMesh,
    scheme: LevelScheme,
    data: np.ndarray | None = None,
    *,
    method: str = DEFAULT_METHOD,
    priority: str = "length",
    placement: str = "midpoint",
    estimator: str = "mean",
) -> DecimationPlan:
    """One geometry pass: decimate every level and build every mapping.

    This is the only road from a mesh to levels. ``data`` (``(n,)`` or
    ``(planes, n)``) is carried through the collapse for priorities
    that read it (``"data_aware"``, callables); the recorded lineages
    then replay it, or any other field, to the same levels bit for bit.
    Without it such a priority sees geometry alone.
    """
    if method not in KERNELS:
        raise RefactoringError(
            f"unknown decimation method {method!r}; expected one of {KERNELS}"
        )
    fields = None
    if data is not None:
        data = as_field(data, mesh.num_vertices)
        fields = {str(p): row for p, row in enumerate(np.atleast_2d(data))}
    t0 = time.perf_counter()
    meshes: list[TriangleMesh] = [mesh]
    lineages: list[CollapseLineage] = []
    ratios: list[float] = [1.0]
    for step in range(scheme.num_levels - 1):
        with trace.span(
            "plan.decimate", "refactor",
            {"level": step + 1, "vertices_in": meshes[-1].num_vertices,
             "method": method},
        ):
            result = decimate(
                meshes[-1], fields, ratio=scheme.step_ratio,
                priority=priority, placement=placement,
                method=method, record_lineage=True,
            )
        meshes.append(result.mesh)
        lineages.append(result.lineage)
        ratios.append(mesh.num_vertices / result.mesh.num_vertices)
        if fields is not None:
            fields = result.fields
    mappings = []
    for lvl in scheme.delta_levels():
        with trace.span("plan.mapping", "refactor", {"level": lvl}):
            mappings.append(
                build_mapping(
                    meshes[lvl], meshes[lvl + 1], estimator=estimator
                )
            )
    return DecimationPlan(
        scheme=scheme,
        meshes=meshes,
        lineages=lineages,
        mappings=mappings,
        method=method,
        priority=priority,
        placement=placement,
        estimator=estimator,
        build_seconds=time.perf_counter() - t0,
        achieved_ratios=ratios,
    )


def plan_for(
    mesh: TriangleMesh,
    scheme: LevelScheme,
    data: np.ndarray | None = None,
    *,
    method: str = DEFAULT_METHOD,
    priority: str = "length",
    estimator: str = "mean",
) -> DecimationPlan:
    """The plan every writer refactors over.

    The process-wide cached plan when the collapse order is geometry's
    alone (:func:`plan_eligible`), so a mesh is decimated once however
    many fields, steps and writers follow; otherwise a fresh
    :func:`build_plan` steered by ``data``.
    """
    with trace.span(
        "refactor.decimate", "refactor",
        {"levels": scheme.num_levels, "method": method},
    ):
        if plan_eligible(priority):
            return get_plan_cache().get_or_build(
                mesh, scheme, method=method, priority=priority,
                estimator=estimator,
            )
        return build_plan(
            mesh, scheme, data, method=method, priority=priority,
            estimator=estimator,
        )


#: Fine-level vertices the plan cache holds before it evicts. A plan
#: costs what its input mesh does (about 200 B per fine vertex at three
#: levels, so ~0.8 GB at the bound), and the patches of a partitioned
#: mesh weigh together what the mesh does, however many there are.
PLAN_CACHE_VERTICES = 1 << 22


class PlanCache:
    """Process-wide LRU of :class:`DecimationPlan` keyed by content.

    The key includes the mesh's content fingerprint, so two
    structurally identical meshes share an entry while any geometry
    change misses. Bounded by the fine-level vertices it holds, not by
    entries; the newest plan stays whatever it weighs. Thread-safe;
    hit/miss counts are surfaced on the active tracer
    ("plan.cache.hits"/"plan.cache.misses") so ``repro trace`` shows
    whether a campaign actually reused its plan.
    """

    def __init__(self, max_vertices: int = PLAN_CACHE_VERTICES) -> None:
        if max_vertices < 1:
            raise RefactoringError("PlanCache max_vertices must be >= 1")
        self.max_vertices = max_vertices
        self.clear()

    @staticmethod
    def key_for(
        mesh: TriangleMesh,
        scheme: LevelScheme,
        *,
        method: str,
        priority: str,
        placement: str,
        estimator: str,
    ) -> tuple:
        return (
            mesh_fingerprint(mesh),
            scheme.num_levels,
            scheme.step_ratio,
            method,
            priority,
            placement,
            estimator,
        )

    def get_or_build(
        self,
        mesh: TriangleMesh,
        scheme: LevelScheme,
        *,
        method: str = DEFAULT_METHOD,
        priority: str = "length",
        placement: str = "midpoint",
        estimator: str = "mean",
    ) -> DecimationPlan:
        """Return the cached plan for this configuration, building on miss."""
        if not plan_eligible(priority):
            raise RefactoringError(
                f"priority {priority!r} is not plan-cacheable (collapse "
                "order depends on field data)"
            )
        key = self.key_for(
            mesh, scheme, method=method, priority=priority,
            placement=placement, estimator=estimator,
        )
        plans = self._plans
        plan = plans.get(key)
        if plan is not None:
            trace.count("plan.cache.hits")
            return plan
        trace.count("plan.cache.misses")
        # Build outside any lock: geometry passes are long and hitting
        # threads must not serialize behind them. A concurrent duplicate
        # build is harmless (last insert wins, both plans identical).
        plan = build_plan(
            mesh, scheme, method=method, priority=priority,
            placement=placement, estimator=estimator,
        )
        plans.put(key, plan)
        return plan

    def clear(self) -> None:
        """Drop every plan and zero the counters."""
        self._plans = LRU(
            self.max_vertices, weigh=lambda plan: plan.meshes[0].num_vertices
        )

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def stats(self) -> dict[str, int]:
        return self._plans.stats("vertices")


_default_cache = PlanCache()


def get_plan_cache() -> PlanCache:
    """The process-wide default plan cache."""
    return _default_cache
