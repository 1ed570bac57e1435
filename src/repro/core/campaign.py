"""Timestep campaigns: write once per step, analyze many times.

The paper's target workload is a production run that "outputs a smaller
data volume called f0 … more frequently" and whose results "need to be
written once but analyzed a number of times (e.g., for parameter
sensitivity studies)". A :class:`CampaignWriter` Canopus-encodes a
*series* of timesteps of one variable:

* the mesh hierarchy and the vertex→triangle mappings depend only on
  the mesh, which is static across steps for these codes — so geometry
  is refactored and stored **once**, in a shared geometry dataset;
* each timestep stores only its base + delta payloads, reusing the
  shared geometry (both for delta calculation at write time and for
  restoration at read time).

The read side is :class:`~repro.session.CampaignHandle`: each step is
the chain ``restore(var, step=...)`` names, and every step shares the
campaign's geometry, so meshes and mappings are read and decoded once —
the quantitative justification for the one-time ``setup_seconds``
accounting in the analysis pipelines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.compress import get_codec
from repro.core.decimation_plan import plan_for
from repro.core.layout import ProductWriter, declare_variable
from repro.core.mapping import LevelMapping
from repro.core.notation import GEOM_VAR, LevelScheme, step_chain
from repro.core.refactor import encode_pool, walk
from repro.errors import CanopusError
from repro.io.dataset import DEFAULT_PLACEMENT, BPDataset
from repro.mesh.edge_collapse import DEFAULT_METHOD, KERNELS
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import trace
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["CampaignWriter", "StepReport"]


@dataclass
class StepReport:
    """Per-timestep write measurements."""

    step: int
    compressed_bytes: int
    original_bytes: int
    refactor_seconds: float
    compress_seconds: float
    io_seconds: float

    @property
    def reduction(self) -> float:
        return self.original_bytes / max(1, self.compressed_bytes)


class CampaignWriter:
    """Writes a timestep series of one variable through Canopus.

    Parameters mirror :class:`~repro.core.encoder.CanopusEncoder`; the
    decimated mesh chain is computed from the first timestep's mesh and
    reused for every subsequent step (meshes are static across steps).

    Geometry work goes through a
    :class:`~repro.core.decimation_plan.DecimationPlan` — consulted
    from the process-wide plan cache for geometry-determined priorities
    — so a second campaign over the same mesh skips decimation
    entirely, and every ``write_step`` coarsens its field by replaying
    the recorded collapse sequence (bit-identical to re-running it).
    With ``workers > 1``, each step's encode batches run on this
    writer's thread pool while the step takes the payload summaries.
    Data-dependent priorities decimate from geometry alone (there is no
    field yet at campaign-setup time). ``placement="cost"`` defers product
    placement to close time, where the cost-based
    :class:`~repro.storage.placement.PlacementEngine` bins the whole
    campaign at once instead of walking fastest-first per write.
    """

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        name: str,
        var: str,
        mesh: TriangleMesh,
        scheme: LevelScheme,
        *,
        codec: str = "zfp",
        codec_params: dict | None = None,
        estimator: str = "mean",
        priority: str = "length",
        method: str = DEFAULT_METHOD,
        workers: int | None = None,
        placement: str = DEFAULT_PLACEMENT,
    ) -> None:
        if method not in KERNELS:
            raise CanopusError(
                f"unknown decimation method {method!r}; "
                f"expected one of {KERNELS}"
            )
        self.hierarchy = hierarchy
        self.name = name
        self.var = var
        self.scheme = scheme
        self.codec_name = codec
        self.codec_params = dict(codec_params or {})
        self._codec = get_codec(codec, **self.codec_params)
        self.workers = workers
        self._steps: list[int] = []
        self._closed = False
        self._pool = encode_pool(workers)

        # --- one-time geometry refactoring (plan-cached) ----------------
        t0 = time.perf_counter()
        self._geom_plan = plan_for(
            mesh, scheme, method=method, priority=priority,
            estimator=estimator,
        )
        self.meshes: list[TriangleMesh] = self._geom_plan.meshes
        self.mappings: list[LevelMapping] = self._geom_plan.mappings
        self.geometry_seconds = time.perf_counter() - t0

        # --- persist geometry once --------------------------------------
        self._dataset = BPDataset.create(name, hierarchy, placement=placement)
        self._entry = declare_variable(
            self._dataset, var, scheme, codec,
            counts=[m.num_vertices for m in self.meshes],
            steps=[], geometry=GEOM_VAR,
        )
        self._writer = ProductWriter(self._dataset, var)
        self._writer.geometry(GEOM_VAR, *self._geom_plan.geometry_blobs())

    # ------------------------------------------------------------------
    def write_step(self, step: int, data: np.ndarray) -> StepReport:
        """Refactor + compress + place one timestep's field."""
        if self._closed:
            raise CanopusError("campaign already closed")
        if step in self._steps:
            raise CanopusError(f"step {step} already written")
        stats: dict = {}
        with trace.span(
            "campaign.fused_encode", "refactor",
            {"step": step, "workers": self.workers or 1},
        ):
            walked = walk(
                self._geom_plan, data, self._codec, pool=self._pool,
                stats=stats, what=f"step {step}: ",
            )

        clock = self.hierarchy.clock
        before = clock.elapsed
        records = self._writer.chain(step_chain(self.var, step), walked)
        io_seconds = clock.elapsed - before  # buffered; realized at close

        self._steps.append(step)
        self._entry["steps"] = sorted(self._steps)
        return StepReport(
            step=step,
            compressed_bytes=sum(rec.length for rec in records),
            original_bytes=int(np.asarray(data).nbytes),
            refactor_seconds=stats["replay_seconds"] + stats["delta_seconds"],
            compress_seconds=stats["compress_seconds"],
            io_seconds=io_seconds,
        )

    def close(self) -> float:
        """Flush subfiles + catalog; returns the realized write I/O time.

        Writes are buffered per tier until close (one subfile per tier),
        so per-step ``io_seconds`` are ~0 and the campaign's write cost
        lands here.
        """
        if self._closed:
            return 0.0
        if self._pool is not None:
            self._pool.shutdown()
        clock = self.hierarchy.clock
        before = clock.elapsed
        self._dataset.close()
        self._closed = True
        return clock.elapsed - before

    def __enter__(self) -> "CampaignWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

