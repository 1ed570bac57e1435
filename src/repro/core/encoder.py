"""Canopus write path: refactor → compress → place (paper Fig. 1, left).

The encoder drives one variable through the full pipeline:

1. :func:`~repro.core.refactor.walk` over the mesh's
   :class:`~repro.core.decimation_plan.DecimationPlan` produces the
   base and the deltas, each compressed with the configured
   floating-point codec as soon as it exists;
2. mappings and mesh geometry are stored losslessly (deflate);
3. :meth:`~repro.core.layout.ProductWriter.chain` writes every level,
   its mesh and mapping next to it, through an ADIOS-like
   :class:`~repro.io.dataset.BPDataset` with preferred tiers from
   :func:`~repro.core.plan.plan_placement` (base on the fastest tier,
   deltas descending), subject to the capacity-bypass rule.

Deltas may be split into spatial chunks (``chunks > 1``) so analytics
can later fetch only the chunks overlapping a region of interest — the
"focused data retrieval" the paper sketches in §III-E.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.compress import get_codec
from repro.core.decimation_plan import (
    _spatial_chunks,  # noqa: F401 - benchmarks/perf imports it from here
    plan_for,
)
from repro.core.layout import ProductWriter, declare_variable
from repro.core.notation import LevelScheme
from repro.core.refactor import (
    BufferArena,
    RefactorResult,
    absolute_codec_params,
    encode_pool,
    walk,
)
from repro.errors import CanopusError
from repro.io.dataset import DEFAULT_PLACEMENT, BPDataset
from repro.io.query import ChunkStats
from repro.io.transports import Transport
from repro.mesh.edge_collapse import DEFAULT_METHOD, KERNELS
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import trace
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["CanopusEncoder", "EncodeReport"]


@dataclass
class EncodeReport:
    """Measurements from one encode (write-path) run.

    ``decimation_seconds`` / ``delta_seconds`` / ``compress_seconds`` are
    wall times; ``io_seconds`` is the simulated tier write time. Sizes
    are per product key; ``payload_bytes`` sums the base and delta
    payloads only (no mesh, mapping or chunk index).
    """

    var: str
    scheme: LevelScheme
    original_bytes: int
    compressed_bytes: dict[str, int] = field(default_factory=dict)
    decimation_seconds: float = 0.0
    delta_seconds: float = 0.0
    compress_seconds: float = 0.0
    io_seconds: float = 0.0
    placed_tiers: dict[str, str] = field(default_factory=dict)
    payload_bytes: int = 0

    @property
    def total_compressed_bytes(self) -> int:
        return sum(self.compressed_bytes.values())


class CanopusEncoder:
    """Configured Canopus write pipeline.

    Parameters
    ----------
    hierarchy:
        Target storage hierarchy.
    codec / codec_params:
        Floating-point compressor for base and delta payloads.
    estimator:
        ``Estimate()`` form (``"mean"`` or ``"barycentric"``).
    priority:
        Edge-collapse priority strategy.
    method:
        Decimation kernel: ``"batched"`` (round-based vectorized
        kernel, default) or ``"serial"`` (Algorithm 1's heap loop).
    workers:
        With ``workers > 1``, each level's codec encodes run on this
        encoder's thread pool while the refactoring goes on to the next
        level (NumPy and the codecs release the GIL in their hot loops).
    chunks:
        Number of spatial chunks per delta (1 = monolithic).
    total_error_budget:
        When set, guarantees ``|restored − original| <= budget`` at full
        accuracy by splitting the budget evenly across the base and
        every delta stage (errors add: one codec bound per applied
        product). Overrides ``codec_params["tolerance"]``. Interpreted
        as absolute, or as a fraction of the variable's range when
        ``codec_params["mode"] == "relative"``.
    transports:
        Optional per-tier transports (defaults to POSIX).
    placement:
        ``"walk"`` (paper §III-D fastest-first capacity walk, default)
        or ``"cost"`` (close-time cost-based
        :class:`~repro.storage.placement.PlacementEngine` plan).
    """

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        *,
        codec: str = "zfp",
        codec_params: dict | None = None,
        estimator: str = "mean",
        priority: str = "length",
        method: str = DEFAULT_METHOD,
        workers: int | None = None,
        chunks: int = 1,
        total_error_budget: float | None = None,
        transports: dict[str, Transport] | None = None,
        placement: str = DEFAULT_PLACEMENT,
    ) -> None:
        if chunks < 1:
            raise CanopusError("chunks must be >= 1")
        if total_error_budget is not None and not 0 < total_error_budget < np.inf:
            raise CanopusError("total_error_budget must be finite and positive")
        if method not in KERNELS:
            raise CanopusError(
                f"unknown decimation method {method!r}; "
                f"expected one of {KERNELS}"
            )
        self.hierarchy = hierarchy
        self.codec_name = codec
        self.codec_params = dict(codec_params or {})
        self.estimator = estimator
        self.priority = priority
        self.method = method
        self.workers = workers
        self.chunks = chunks
        self.total_error_budget = total_error_budget
        self.transports = transports
        self.placement = placement
        # Replay-scratch pool shared across this encoder's encode()
        # calls: steady-state multi-variable / multi-step encodes reuse
        # the extended-id work buffers instead of reallocating per field.
        self._arena = BufferArena()
        self._pool = encode_pool(workers)
        # Fail fast on bad codec configuration.
        get_codec(codec, **self.codec_params)

    # ------------------------------------------------------------------
    def encode(
        self,
        dataset_name: str,
        var: str,
        mesh: TriangleMesh,
        data: np.ndarray,
        scheme: LevelScheme,
        *,
        dataset: BPDataset | None = None,
        close: bool = True,
    ) -> tuple[EncodeReport, RefactorResult]:
        """Run the full write path for one variable.

        An existing open ``dataset`` may be supplied to co-locate several
        variables in one BP dataset; set ``close=False`` to keep it open.
        """
        data_arr = np.asarray(data)
        report = EncodeReport(
            var=var, scheme=scheme, original_bytes=int(data_arr.nbytes)
        )
        codec_params = dict(self.codec_params)
        if self.total_error_budget is not None:
            # One codec bound applies per product on the restore path
            # (base + N−1 deltas); splitting the budget evenly makes the
            # full-accuracy guarantee exact.
            codec_params["tolerance"] = (
                self.total_error_budget / scheme.num_levels
            )
        codec = get_codec(
            self.codec_name, **absolute_codec_params(codec_params, data)
        )

        # Geometry-only payloads — meshes, mappings, chunk index lists —
        # come from the plan, so every variable and every later encode on
        # this mesh shares one deflate of each (a data-dependent priority
        # gets a plan of its own, for this encode only). Every payload is
        # compressed as the walk produces it, then all are placed in one
        # deterministic order.
        stats: dict = {}
        with trace.span(
            "encode.refactor", "refactor",
            {"var": var, "levels": scheme.num_levels,
             "method": self.method, "workers": self.workers or 1},
        ):
            t0 = time.perf_counter()
            plan = plan_for(
                mesh, scheme, data, method=self.method,
                priority=self.priority, estimator=self.estimator,
            )
            plan_seconds = time.perf_counter() - t0
            walked = walk(
                plan, data, codec, chunks=self.chunks, arena=self._arena,
                pool=self._pool, stats=stats,
            )
        report.decimation_seconds = plan_seconds + stats["replay_seconds"]
        report.delta_seconds = stats["delta_seconds"]
        report.compress_seconds = stats["compress_seconds"]
        result = RefactorResult.of(
            plan, walked,
            decimation_seconds=report.decimation_seconds,
            delta_seconds=report.delta_seconds,
        )

        ds = dataset or BPDataset.create(
            dataset_name, self.hierarchy, self.transports,
            placement=self.placement,
        )
        declare_variable(
            ds, var, scheme, self.codec_name,
            codec_params=self.codec_params,
            estimator=self.estimator,
            chunks=self.chunks,
            counts=[m.num_vertices for m in plan.meshes],
            # Whole-field value summary: lets aggregate predicates
            # (min/max/mean over the full domain) answer from the
            # catalog footer alone, with zero data I/O.
            field_stats=ChunkStats.of(data_arr).as_dict(),
        )
        # The chain owns its geometry: each level's mesh and mapping sit
        # next to that level's payloads.
        records = ProductWriter(ds, var).chain(
            var, walked, geometry=plan.geometry_blobs(),
            layout=plan.chunk_layout(self.chunks) if self.chunks > 1 else None,
        )
        for rec in records:
            report.compressed_bytes[rec.key] = rec.length
            report.placed_tiers[rec.key] = rec.tier
            if rec.kind in ("base", "delta"):
                report.payload_bytes += rec.length

        if close:
            clock = self.hierarchy.clock
            before = clock.elapsed
            with trace.span("encode.flush", "io", {"var": var}):
                ds.close()
            report.io_seconds = clock.elapsed - before
            for key in list(report.placed_tiers):
                report.placed_tiers[key] = ds.catalog.get(key).tier
        return report, result
