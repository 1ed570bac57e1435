"""Multi-level refactoring (paper Algorithm 2): the one write-side walk.

From ``(G^0, L^0)`` a refactoring produces the level fields
``L^1 .. L^{N−1}`` and the deltas ``delta^{l-(l+1)}``; only ``L^{N−1}``
(the base) and the deltas are persisted — the intermediate levels exist
transiently, which is the whole point of Motivation 2 (Canopus vs. naive
multi-level compression). Geometry — level meshes, collapse lineages,
mappings — comes from a :class:`~repro.core.decimation_plan.DecimationPlan`
(:func:`~repro.core.decimation_plan.plan_for`).

:func:`walk` is the recipe, written once: replay to the next level and
delta against it, level by level, then hand every payload piece to the
codec in a few ``encode_many`` batches. Everything that writes consumes
it:

* :func:`refactor` keeps the levels and deltas (no codec, no storage);
* :class:`~repro.core.encoder.CanopusEncoder`,
  :class:`~repro.core.campaign.CampaignWriter` (one walk per step) and
  :func:`~repro.core.parallel.encode_partitioned` (one per patch) hand
  the walked levels to :meth:`~repro.core.layout.ProductWriter.chain`,
  the one place they become catalog records.

Per-stage wall times are recorded for the write-cost study (Fig. 6b).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.core.decimation_plan import DecimationPlan, as_field, plan_for
from repro.core.mapping import LevelMapping
from repro.core.notation import LevelScheme
from repro.errors import CanopusError, RefactoringError
from repro.io.query import ChunkStats
from repro.mesh.edge_collapse import DEFAULT_METHOD
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import context as obs_context

__all__ = [
    "RefactorResult",
    "WalkedLevel",
    "absolute_codec_params",
    "encode_pool",
    "refactor",
    "walk",
]


def encode_pool(workers: int | None) -> ThreadPoolExecutor | None:
    """What a writer's ``workers`` means, and the write side's one
    executor: the pool :func:`walk` runs its encode batches on, or the
    one :func:`~repro.core.parallel.encode_partitioned` maps its patches
    over.

    One per writer, for the writer's lifetime (threads start on first
    use and leave with the pool); ``None`` below two workers.
    """
    if workers is not None and workers < 1:
        raise CanopusError("workers must be >= 1")
    if workers is None or workers < 2:
        return None
    return ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="repro-encode"
    )


class WalkedLevel(NamedTuple):
    """What :func:`walk` hands its consumer for one level."""

    level: int
    #: ``L^level``.
    field: np.ndarray
    #: What is stored for the level: ``delta^{level-(level+1)}``, or the
    #: field itself at the base level. Each delta is a fresh array the
    #: consumer owns.
    values: np.ndarray
    #: ``values`` cut into payload arrays (one, unless chunked).
    pieces: list[np.ndarray]
    #: The codec payload of each piece (empty without a codec).
    blobs: list[bytes]
    #: One :meth:`~repro.io.query.ChunkStats.as_dict` per payload, taken
    #: here because this is the only point in the pipeline where the
    #: uncompressed values exist without an extra decode. The retrieval
    #: planner (:mod:`repro.query`) prunes from exactly these bounds, so
    #: they describe the *pre-compression* values.
    summaries: list[dict]

    def without_arrays(self) -> WalkedLevel:
        """The level as a writer holds it between encode and write:
        payloads and summaries; ``field`` and ``values`` are dropped and
        each piece shrinks to a zero-stride view that keeps its shape."""
        return self._replace(
            field=None, values=None,
            pieces=[np.broadcast_to(0.0, p.shape) for p in self.pieces],
        )


def absolute_codec_params(codec_params: dict, data) -> dict:
    """``codec_params`` with a ``"relative"`` tolerance made absolute.

    The fraction is resolved ONCE against ``data``'s whole range and the
    same absolute bound applies to the base and every delta (every patch,
    for a partitioned field). Re-normalizing per product would tighten
    the bound on the low-amplitude deltas and throw away exactly the
    compressibility the delta refactoring creates (paper Fig. 5).
    """
    params = dict(codec_params)
    if params.get("mode") == "relative":
        data = np.asarray(data)
        value_range = float(np.ptp(data)) if data.size else 1.0
        params["tolerance"] = params.get("tolerance", 1e-6) * max(
            value_range, 1e-300
        )
        params["mode"] = "absolute"
    return params


#: Most values one ``encode_many`` call of a walk takes. A memory
#: bound: whole-walk batches of ``write_cold``'s large levels raised the
#: process's peak RSS by ~6 %, batches this size by nothing measurable.
ENCODE_BATCH_VALUES = 65_536


def walk(
    plan: DecimationPlan,
    data: np.ndarray,
    codec=None,
    *,
    chunks: int = 1,
    pool: ThreadPoolExecutor | None = None,
    stats: dict | None = None,
    what: str = "",
) -> list[WalkedLevel]:
    """Algorithm 2 over ``plan`` for one field, every level finest first.

    Per delta level: replay the collapse lineage to the next level,
    compute the delta and cut it into ``plan.chunk_layout(chunks)``
    pieces; then the base. Every level's pieces then go through
    ``codec.encode_many`` in order, in batches of at most
    :data:`ENCODE_BATCH_VALUES` values (a larger piece is a batch of
    its own), so a small walk is one codec pass. With ``pool`` the
    batches run there concurrently (in the caller's trace context)
    while the walk takes the summaries.
    Payloads are the same bytes either way: ``encode_many`` equals
    ``encode`` of each piece.

    ``data`` is validated here, once (``what`` names it in the error);
    ``stats`` accumulates ``replay/delta/compress/summary_seconds``.
    """
    fine = as_field(data, plan.meshes[0].num_vertices, what)
    stats = {} if stats is None else stats
    for stage in ("replay", "delta", "compress", "summary"):
        stats.setdefault(f"{stage}_seconds", 0.0)
    levels = list(_levels(plan, fine, chunks, stats))
    if codec is None:
        return levels
    pieces = [p.ravel() for level in levels for p in level.pieces]
    batches = _batches(pieces)
    # The one place the write path calls a payload codec.
    t0 = time.perf_counter()
    if pool is None:
        blobs = [codec.encode_many(batch) for batch in batches]
    else:
        encode = obs_context.propagate(codec.encode_many)
        futures = [pool.submit(encode, batch) for batch in batches]
    t1 = time.perf_counter()
    # The summaries are taken while a pool runs the encodes.
    summaries = [ChunkStats.of(p).as_dict() for p in pieces]
    t2 = time.perf_counter()
    if pool is not None:
        # Every batch settles before any result is read, so when one
        # fails the walk raises with no other encode left on the pool.
        wait(futures)
        blobs = [future.result() for future in futures]
    stats["compress_seconds"] += (t1 - t0) + (time.perf_counter() - t2)
    stats["summary_seconds"] += t2 - t1
    blobs = iter(chain.from_iterable(blobs))
    summaries = iter(summaries)
    return [
        level._replace(
            blobs=[next(blobs) for _ in level.pieces],
            summaries=[next(summaries) for _ in level.pieces],
        )
        for level in levels
    ]


def _levels(plan, fine, chunks, stats):
    layout = plan.chunk_layout(chunks) if chunks > 1 else None
    base_level = plan.scheme.base_level
    for lvl in plan.scheme.levels():
        t0 = t1 = t2 = time.perf_counter()
        coarse, values, pieces = None, fine, [fine]
        if lvl != base_level:
            coarse = plan.coarsen_level(lvl, fine)
            t1 = time.perf_counter()
            values = plan.delta_level(lvl, fine, coarse)
            t2 = time.perf_counter()
            pieces = (
                [values] if layout is None
                else [values[..., idx] for idx, _, _ in layout[lvl]]
            )
        stats["replay_seconds"] += t1 - t0
        stats["delta_seconds"] += t2 - t1
        yield WalkedLevel(lvl, fine, values, pieces, [], [])
        fine = coarse


def _batches(pieces: list[np.ndarray]) -> list[list[np.ndarray]]:
    """``pieces`` in order, cut into runs of at most
    :data:`ENCODE_BATCH_VALUES` values (a larger piece runs alone)."""
    batches: list[list[np.ndarray]] = []
    size = 0
    for piece in pieces:
        if not batches or size + piece.size > ENCODE_BATCH_VALUES:
            batches.append([])
            size = 0
        batches[-1].append(piece)
        size += piece.size
    return batches


@dataclass
class RefactorResult:
    """All products of one refactoring pass.

    Attributes
    ----------
    plan:
        The geometry the pass ran over: ``meshes[l]`` is ``G^l`` (index
        0 the input mesh), ``mappings[l]`` lifts level ``l+1`` to ``l``.
    levels:
        ``levels[l]`` is ``L^l``; only ``levels[-1]`` (the base) is
        persisted by the encoder.
    deltas:
        ``deltas[l] = delta^{l-(l+1)}`` for ``0 <= l < N−1``.
    decimation_seconds / delta_seconds:
        Wall time spent in each phase (Fig. 6b inputs): getting the plan
        plus replaying it, and the delta calculations.
    """

    plan: DecimationPlan
    levels: list[np.ndarray]
    deltas: list[np.ndarray]
    decimation_seconds: float = 0.0
    delta_seconds: float = 0.0

    @classmethod
    def of(cls, plan, walked: list[WalkedLevel], **seconds) -> RefactorResult:
        """From every level of one :func:`walk`, finest first."""
        return cls(
            plan, [w.field for w in walked], [w.values for w in walked[:-1]],
            **seconds,
        )

    @property
    def scheme(self) -> LevelScheme:
        return self.plan.scheme

    @property
    def meshes(self) -> list[TriangleMesh]:
        return self.plan.meshes

    @property
    def mappings(self) -> list[LevelMapping]:
        return self.plan.mappings

    @property
    def achieved_ratios(self) -> list[float]:
        return self.plan.achieved_ratios

    @property
    def base_field(self) -> np.ndarray:
        return self.levels[-1]

    @property
    def base_mesh(self) -> TriangleMesh:
        return self.plan.meshes[-1]


def refactor(
    mesh: TriangleMesh,
    data: np.ndarray,
    scheme: LevelScheme,
    *,
    estimator: str = "mean",
    priority: str = "length",
    method: str = DEFAULT_METHOD,
    plan: DecimationPlan | None = None,
) -> RefactorResult:
    """Refactor ``(mesh, data)`` into a base + delta chain.

    Parameters
    ----------
    scheme:
        Number of levels and the per-step decimation ratio.
    estimator:
        ``Estimate()`` form for the deltas: ``"mean"`` (paper) or
        ``"barycentric"`` (ablation).
    priority:
        Edge-collapse priority strategy (see
        :func:`repro.mesh.edge_collapse.make_priority`).
    method:
        Decimation kernel: ``"batched"`` (round-based vectorized
        kernel, default) or ``"serial"`` (Algorithm 1's heap loop).
    plan:
        A prebuilt :class:`~repro.core.decimation_plan.DecimationPlan`
        for this exact mesh + scheme; skips all geometry work. Without
        one, :func:`~repro.core.decimation_plan.plan_for` supplies it:
        repeated refactorings of one mesh decimate once and replay
        thereafter when the priority is geometry-determined.
    """
    t0 = time.perf_counter()
    if plan is None:
        plan = plan_for(
            mesh, scheme, data, method=method, priority=priority,
            estimator=estimator,
        )
    elif plan.scheme != scheme:
        raise RefactoringError(
            f"plan was built for {plan.scheme}, not {scheme}"
        )
    plan_seconds = time.perf_counter() - t0
    stats: dict = {}
    walked = walk(plan, data, stats=stats)
    return RefactorResult.of(
        plan, walked,
        decimation_seconds=plan_seconds + stats["replay_seconds"],
        delta_seconds=stats["delta_seconds"],
    )
