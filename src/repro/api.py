"""Unified public façade for the Canopus reproduction.

One blessed import surface for the common workflows::

    from repro.api import Session, write_campaign

* :class:`Session` / :class:`CampaignHandle` — the one read entry
  point, for every layout: open a hierarchy once, then
  ``session.open(name)`` and
  ``campaign.restore(var, step=..., part=..., level=..., tolerance=...,
  region=...)``, ``restore_many``, ``restore_chains``, ``gather`` (a
  partitioned variable's global field), ``stats``. Both in-process
  analytics and the HTTP read tier (:mod:`repro.service`) run on this
  exact API;
* :func:`write_campaign` — Canopus-encode a timestep series of one
  variable with shared geometry;
* :class:`QueryPlanner` / :class:`RetrievalPlan` plus
  :func:`stats_query` / :func:`blob_query` — accuracy-aware retrieval
  planning and per-chunk summary pushdown (see ``docs/query.md``);
* :func:`trace_session` — dual-clock tracing (wall + simulated I/O
  time) of everything executed inside the ``with`` block, exportable as
  Chrome trace-event JSON (see :mod:`repro.obs`).

The classes behind these helpers are re-exported here too, so
``repro.api`` is a stable one-stop namespace: ``BPDataset.open`` /
``BPDataset.create`` for raw product access, and
:meth:`CanopusDecoder.walk` for explicit level-by-level iteration.
:class:`CampaignReader` is a step-view shim over a session, kept only
until the perf harness reads campaigns through :class:`Session`.

Storage is pluggable end to end: pass ``backend=`` to
:func:`~repro.storage.hierarchy.two_tier_titan` (or build tiers over
any :class:`~repro.storage.backend.ObjectStore` from
:func:`~repro.storage.backend.make_backend`), and pick the placement
policy per dataset with ``placement="walk"`` (fastest-first capacity
walk) or ``"cost"`` (the explainable
:class:`~repro.storage.placement.PlacementEngine` plan).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.core.campaign import CampaignWriter, StepReport
from repro.core.decoder import CanopusDecoder, LevelData
from repro.core.encoder import CanopusEncoder
from repro.core.notation import LevelScheme
from repro.core.parallel import encode_partitioned
from repro.core.restored_cache import (
    GeometryCache,
    RestoredLevelCache,
    dataset_fingerprint,
    get_geometry_cache,
    get_restored_cache,
)
from repro.errors import CanopusError, QueryError
from repro.query import (
    PlanDecision,
    QueryPlanner,
    RetrievalPlan,
    blob_query,
    stats_query,
)
from repro.io.cache import RangeCache
from repro.io.dataset import DEFAULT_PLACEMENT, BPDataset
from repro.io.engine import EngineStats, RetrievalEngine
from repro.io.xmlconfig import parse_config
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import (
    SLO,
    JsonlLogger,
    MetricsRegistry,
    RequestTrace,
    TraceBuffer,
    TraceContext,
    Tracer,
    current_context,
    get_registry,
    render_prometheus,
    trace_session,
)
from repro.session import CampaignHandle, CampaignReader, Session
from repro.storage.backend import (
    FilesystemBackend,
    MemoryBackend,
    ObjectStore,
    ShardedBackend,
    make_backend,
)
from repro.storage.hierarchy import StorageHierarchy, two_tier_titan
from repro.storage.placement import (
    PlacementEngine,
    PlacementPlan,
    ProductSpec,
)
from repro.storage.policy import TierManager

__all__ = [
    # helpers (the blessed entry points)
    "Session",
    "CampaignHandle",
    "write_campaign",
    "trace_session",
    # re-exported building blocks
    "BPDataset",
    "CampaignReader",
    "CampaignWriter",
    "CanopusDecoder",
    "CanopusEncoder",
    "EngineStats",
    "FilesystemBackend",
    "GeometryCache",
    "JsonlLogger",
    "LevelData",
    "LevelScheme",
    "MemoryBackend",
    "MetricsRegistry",
    "ObjectStore",
    "PlacementEngine",
    "PlacementPlan",
    "PlanDecision",
    "ProductSpec",
    "QueryError",
    "QueryPlanner",
    "RangeCache",
    "RequestTrace",
    "RetrievalPlan",
    "RestoredLevelCache",
    "RetrievalEngine",
    "SLO",
    "ShardedBackend",
    "StepReport",
    "StorageHierarchy",
    "TierManager",
    "TraceBuffer",
    "TraceContext",
    "Tracer",
    "TriangleMesh",
    "blob_query",
    "current_context",
    "dataset_fingerprint",
    "encode_partitioned",
    "get_geometry_cache",
    "get_registry",
    "get_restored_cache",
    "make_backend",
    "parse_config",
    "render_prometheus",
    "stats_query",
    "two_tier_titan",
]


def write_campaign(
    hierarchy: StorageHierarchy,
    name: str,
    var: str,
    mesh: TriangleMesh,
    steps: Mapping[int, np.ndarray] | Iterable[np.ndarray],
    scheme: LevelScheme,
    *,
    codec: str = "zfp",
    codec_params: dict | None = None,
    estimator: str = "mean",
    priority: str = "length",
    placement: str = DEFAULT_PLACEMENT,
) -> list[StepReport]:
    """Canopus-encode a timestep series and flush it to the hierarchy.

    ``steps`` is either a mapping ``{step: field}`` (written in step
    order) or an iterable of fields (implicitly steps ``0, 1, ...``),
    consumed lazily: a generator keeps one raw field resident at a time,
    so a campaign of any length encodes out of core. Geometry (mesh
    chain + mappings) is refactored and stored once and shared by every
    step. Returns the per-step write reports; the dataset is closed
    (subfiles + catalog flushed) before returning. Per-step
    ``io_seconds`` are 0 (writes are buffered until close).
    """
    if isinstance(steps, Mapping):
        items = iter(sorted(steps.items()))
    else:
        items = enumerate(steps)
    # Looked at before the dataset is created: an empty series leaves
    # nothing behind.
    first = next(items, None)
    if first is None:
        raise CanopusError("write_campaign needs at least one timestep")
    with CampaignWriter(
        hierarchy,
        name,
        var,
        mesh,
        scheme,
        codec=codec,
        codec_params=codec_params,
        estimator=estimator,
        priority=priority,
        placement=placement,
    ) as writer:
        reports = [writer.write_step(*first)]
        first = None  # the series may be larger than memory
        reports.extend(writer.write_step(step, data) for step, data in items)
    return reports
