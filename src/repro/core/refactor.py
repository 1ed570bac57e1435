"""Multi-level refactoring (paper Algorithm 2): the one write-side walk.

From ``(G^0, L^0)`` a refactoring produces the level fields
``L^1 .. L^{N−1}`` and the deltas ``delta^{l-(l+1)}``; only ``L^{N−1}``
(the base) and the deltas are persisted — the intermediate levels exist
transiently, which is the whole point of Motivation 2 (Canopus vs. naive
multi-level compression). Geometry — level meshes, collapse lineages,
mappings — comes from a :class:`~repro.core.decimation_plan.DecimationPlan`
(:func:`~repro.core.decimation_plan.plan_for`).

:func:`walk` is the recipe, written once: replay to the next level,
delta against it, hand each payload piece to the codec, one level in
flight. Everything that writes consumes it:

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterator, NamedTuple

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
    "BufferArena",
    "RefactorResult",
    "WalkedLevel",
    "absolute_codec_params",
    "encode_pool",
    "refactor",
    "walk",
]


class BufferArena:
    """Pool of reusable float64 scratch buffers keyed by shape.

    The walk's per-level working set (replay extended-id buffer, delta
    output) has a fixed set of shapes per plan, so after the first field
    every allocation is a pool hit — allocation churn on the
    steady-state encode path drops to the codec's internals.
    """

    def __init__(self) -> None:
        self._free: dict[tuple, list[np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        self.bytes_reused = 0

    def take(self, shape: tuple) -> np.ndarray:
        stack = self._free.get(shape)
        if stack:
            self.hits += 1
            buf = stack.pop()
            self.bytes_reused += buf.nbytes
            return buf
        self.misses += 1
        return np.empty(shape, dtype=np.float64)

    def give(self, buf: np.ndarray) -> None:
        self._free.setdefault(buf.shape, []).append(buf)

    @property
    def pooled_bytes(self) -> int:
        return sum(
            b.nbytes for stack in self._free.values() for b in stack
        )

    def clear(self) -> None:
        self._free.clear()


def encode_pool(workers: int | None) -> ThreadPoolExecutor | None:
    """What a writer's ``workers`` means, and the write side's one
    executor: the pool :func:`walk` hands a level's codec encodes to
    while it goes on to the next level, or the one
    :func:`~repro.core.parallel.encode_partitioned` maps its patches over.

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
    #: field itself at the base level. The consumer owns a delta: it
    #: keeps it, or gives it back to the walk's arena when done.
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


def walk(
    plan: DecimationPlan,
    data: np.ndarray,
    codec=None,
    *,
    chunks: int = 1,
    arena: BufferArena | None = None,
    pool: ThreadPoolExecutor | None = None,
    stats: dict | None = None,
    what: str = "",
) -> Iterator[WalkedLevel]:
    """Algorithm 2 over ``plan`` for one field, finest level first.

    Per delta level: replay the collapse lineage to the next level,
    compute the delta (into a pooled buffer when ``arena`` is given),
    cut it into ``plan.chunk_layout(chunks)`` pieces, encode each piece
    with ``codec``; then the base. A single level is in flight: peak
    scratch is ~3 level fields, not the ``2N`` arrays of coarsening
    every level before computing any delta.

    With ``pool`` the encodes of a level run there (in the caller's
    trace context) while the walk goes on, so each level is yielded once
    the next one's encodes are submitted — two levels in flight.
    Payloads are the same bytes either way: same IEEE-754 expressions on
    the same operands, pooled buffers or not.

    ``data`` is validated here, once (``what`` names it in the error);
    ``stats`` accumulates ``replay/delta/compress/summary_seconds``.
    """
    fine = as_field(data, plan.meshes[0].num_vertices, what)
    stats = {} if stats is None else stats
    for stage in ("replay", "delta", "compress", "summary"):
        stats.setdefault(f"{stage}_seconds", 0.0)
    if codec is None:
        encode = pool = None
    elif pool is None:
        encode = codec.encode
    else:
        encode = partial(pool.submit, obs_context.propagate(codec.encode))
    levels = _levels(plan, fine, encode, chunks, arena, stats)
    return levels if pool is None else _one_behind(levels, stats)


def _levels(plan, fine, encode, chunks, arena, stats):
    layout = plan.chunk_layout(chunks) if chunks > 1 else None
    base_level = plan.scheme.base_level
    for lvl in plan.scheme.levels():
        t0 = t1 = t2 = time.perf_counter()
        coarse, values, pieces = None, fine, [fine]
        if lvl != base_level:
            coarse = plan.coarsen_level(lvl, fine, arena)
            t1 = time.perf_counter()
            values = plan.delta_level(
                lvl, fine, coarse,
                out=None if arena is None else arena.take(fine.shape),
            )
            t2 = time.perf_counter()
            pieces = (
                [values] if layout is None
                else [values[..., idx] for idx, _, _ in layout[lvl]]
            )
        blobs, summaries = [], []
        t3 = t2
        if encode is not None:
            # The one place the write path calls a payload codec; on a
            # pool, the summaries are taken while the encodes run.
            blobs = [encode(p.ravel()) for p in pieces]
            t3 = time.perf_counter()
            summaries = [ChunkStats.of(p).as_dict() for p in pieces]
        stats["replay_seconds"] += t1 - t0
        stats["delta_seconds"] += t2 - t1
        stats["compress_seconds"] += t3 - t2
        stats["summary_seconds"] += time.perf_counter() - t3
        yield WalkedLevel(lvl, fine, values, pieces, blobs, summaries)
        fine = coarse


def _one_behind(levels, stats):
    """Each level, its encode futures resolved, after the next one's
    encodes were submitted; a buffer leaves the walk only once nothing
    on the pool reads it."""
    previous = None
    for level in chain(levels, [None]):
        if previous is not None:
            t0 = time.perf_counter()
            blobs = [future.result() for future in previous.blobs]
            stats["compress_seconds"] += time.perf_counter() - t0
            yield previous._replace(blobs=blobs)
        previous = level


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
    walked = list(walk(plan, data, stats=stats))
    return RefactorResult.of(
        plan, walked,
        decimation_seconds=plan_seconds + stats["replay_seconds"],
        delta_seconds=stats["delta_seconds"],
    )
