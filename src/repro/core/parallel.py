"""Partitioned (embarrassingly parallel) Canopus encoding.

Production XGC1 runs refactor per rank: every process decimates its own
mesh patch with no communication (paper §III-C1). This module mirrors
that structure on one node:

* :func:`encode_partitioned` splits the mesh into spatial patches,
  refactors + compresses each independently — optionally on
  ``workers`` threads — and writes each patch's products under
  ``{var}/part{i}/...`` through one shared dataset (the I/O stage is
  serialized, like an aggregating transport);
* :class:`~repro.session.CampaignHandle` restores any level per patch
  (``restore(var, part=...)``) and gathers full-accuracy fields back to
  the global vertex order exactly (``gather(var)``).

Patch-local decimation means coarse patches do not stitch into one
conforming global coarse mesh (cracks at patch seams) — the same
property a per-rank production run has; analytics at reduced accuracy
rasterize the patch union.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.compress import get_codec
from repro.core.decimation_plan import as_field, plan_for
from repro.core.layout import ProductWriter, declare_variable
from repro.core.notation import LevelScheme, part_chain
from repro.core.refactor import encode_pool, fused_step_products
from repro.io.dataset import BPDataset
from repro.mesh.edge_collapse import DEFAULT_METHOD
from repro.mesh.partition import MeshPartition, partition_mesh
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import context as obs_context
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["encode_partitioned", "PartitionedReport"]


@dataclass
class PartitionedReport:
    """Measurements of one partitioned encode."""

    var: str
    parts: int
    refactor_seconds: float  # wall time of the (possibly parallel) stage
    write_seconds: float
    compressed_bytes: int
    original_bytes: int
    per_part_seconds: list[float] = field(default_factory=list)


def encode_partitioned(
    hierarchy: StorageHierarchy,
    dataset_name: str,
    var: str,
    mesh: TriangleMesh,
    data: np.ndarray,
    scheme: LevelScheme,
    *,
    parts: int = 4,
    workers: int | None = None,
    codec: str = "zfp",
    codec_params: dict | None = None,
    estimator: str = "mean",
    priority: str = "length",
    method: str = DEFAULT_METHOD,
) -> tuple[PartitionedReport, list[MeshPartition]]:
    """Partition, refactor each patch (optionally in parallel), write.

    Every patch is one run of the write-side task body
    (:func:`~repro.core.refactor.fused_step_products`) over the patch's
    own plan — a stand-in for one MPI rank, exchanging zero data with
    its peers. With ``workers > 1`` the patches are mapped over that
    many threads (decimation, replay and the codecs are numpy kernels
    that release the GIL); products are the same bytes either way. The
    shared plan cache makes repeated encodes of the same partitions
    replay instead of re-decimating.

    ``priority`` values that are not plan-eligible (``"data_aware"``,
    callables) decimate from geometry alone on this path, as at
    :class:`~repro.core.campaign.CampaignWriter` setup.
    """
    original_bytes = int(np.asarray(data).nbytes)
    data = as_field(data, mesh.num_vertices)
    codec_params = dict(codec_params or {})
    if codec_params.get("mode") == "relative":
        # Resolve against the *global* range once, so every patch
        # instantiates the identical absolute codec.
        codec_params["tolerance"] = codec_params.get("tolerance", 1e-6) * max(
            float(np.ptp(data)), 1e-300
        )
        codec_params["mode"] = "absolute"
    payload_codec = get_codec(codec, **codec_params)

    def encode_patch(patch: MeshPartition) -> tuple:
        plan = plan_for(
            patch.mesh, scheme, method=method, priority=priority,
            estimator=estimator,
        )
        plan.geometry_blobs()  # deflated once per plan: here, off the writer
        # No arena (patch shapes all differ) and no pool: this body may
        # itself be running on the pool.
        products, stats = fused_step_products(
            plan, patch.restrict(data), payload_codec
        )
        return plan, products, stats

    partitions = partition_mesh(mesh, parts)
    t0 = time.perf_counter()
    pool = encode_pool(workers)
    if pool is None:
        encoded = [encode_patch(p) for p in partitions]
    else:
        with pool:
            encoded = list(
                pool.map(obs_context.propagate(encode_patch), partitions)
            )
    refactor_seconds = time.perf_counter() - t0

    ds = BPDataset.create(dataset_name, hierarchy)
    declare_variable(
        ds, var, scheme, codec,
        parts=len(partitions),
        counts={
            str(p.index): [m.num_vertices for m in plan.meshes]
            for p, (plan, _, _) in zip(partitions, encoded)
        },
        num_global_vertices=mesh.num_vertices,
        global_vertices={
            str(p.index): p.global_vertices.tolist() for p in partitions
        },
        owned={str(p.index): p.owned.tolist() for p in partitions},
    )
    writer = ProductWriter(ds, scheme, codec)
    compressed = 0
    clock = hierarchy.clock
    before = clock.elapsed
    for patch, (plan, products, stats) in zip(partitions, encoded):
        chain = part_chain(var, patch.index)
        compressed += writer.geometry(chain, *plan.geometry_blobs())
        compressed += writer.chain(chain, products, stats["summaries"])
    ds.close()
    write_seconds = clock.elapsed - before

    report = PartitionedReport(
        var=var,
        parts=len(partitions),
        refactor_seconds=refactor_seconds,
        write_seconds=write_seconds,
        compressed_bytes=compressed,
        original_bytes=original_bytes,
        per_part_seconds=[stats["wall_seconds"] for _, _, stats in encoded],
    )
    return report, partitions

