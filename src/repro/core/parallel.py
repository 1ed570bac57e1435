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
from repro.core.refactor import absolute_codec_params, encode_pool, walk
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

    Every patch is one :func:`~repro.core.refactor.walk` over the
    patch's own plan — a stand-in for one MPI rank, exchanging zero data
    with its peers — whose levels
    :meth:`~repro.core.layout.ProductWriter.chain` puts after the
    patch's geometry. With ``workers > 1`` the patches are mapped over that
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
    # Resolved against the *global* range, so every patch instantiates
    # the identical absolute codec.
    payload_codec = get_codec(
        codec, **absolute_codec_params(codec_params or {}, data)
    )

    def encode_patch(patch: MeshPartition) -> tuple:
        plan = plan_for(
            patch.mesh, scheme, method=method, priority=priority,
            estimator=estimator,
        )
        plan.geometry_blobs()  # deflated once per plan: here, off the writer
        # No pool: this body may itself be running on the pool. Only
        # payloads and summaries wait for the write, no level arrays.
        began = time.perf_counter()
        walked = [
            level.without_arrays()
            for level in walk(plan, patch.restrict(data), payload_codec)
        ]
        return plan, walked, time.perf_counter() - began

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
    writer = ProductWriter(ds, var)
    compressed = 0
    clock = hierarchy.clock
    before = clock.elapsed
    for patch, (plan, walked, _) in zip(partitions, encoded):
        chain = part_chain(var, patch.index)
        records = writer.geometry(chain, *plan.geometry_blobs())
        records += writer.chain(chain, walked)
        compressed += sum(rec.length for rec in records)
    ds.close()
    write_seconds = clock.elapsed - before

    report = PartitionedReport(
        var=var,
        parts=len(partitions),
        refactor_seconds=refactor_seconds,
        write_seconds=write_seconds,
        compressed_bytes=compressed,
        original_bytes=original_bytes,
        per_part_seconds=[seconds for _, _, seconds in encoded],
    )
    return report, partitions

