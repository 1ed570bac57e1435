"""Canopus core: progressive refactoring, placement, and restoration.

This subpackage is the paper's primary contribution. The write path is
:class:`~repro.core.encoder.CanopusEncoder` (refactor → compress →
place); the read path is :class:`~repro.core.decoder.CanopusDecoder`
and :class:`~repro.core.progressive.ProgressiveReader` (retrieve →
decompress → restore, level by level).
"""

from repro.core.bytesplit import ByteSplitProduct, byte_restore, byte_split
from repro.core.blocksplit import QualityLayer, block_restore, block_split
from repro.core.campaign import CampaignWriter, StepReport
from repro.core.parallel import PartitionedReport, encode_partitioned
from repro.core.decoder import CanopusDecoder, LevelData, PhaseTimings
from repro.core.decimation_plan import (
    DecimationPlan,
    PlanCache,
    build_plan,
    get_plan_cache,
    mesh_fingerprint,
    plan_eligible,
    plan_for,
)
from repro.core.delta import apply_delta, compute_delta
from repro.core.encoder import CanopusEncoder, EncodeReport
from repro.core.mapping import LevelMapping, build_mapping
from repro.core.notation import (
    LevelScheme,
    chunk_key,
    delta_key,
    level_key,
    mapping_key,
    mesh_key,
)
from repro.core.plan import TierPreference, plan_placement
from repro.core.progressive import ProgressiveReader
from repro.core.refactor import (
    BufferArena,
    RefactorResult,
    fused_step_products,
    refactor,
    walk,
)

__all__ = [
    "LevelScheme",
    "level_key",
    "delta_key",
    "chunk_key",
    "mapping_key",
    "mesh_key",
    "LevelMapping",
    "build_mapping",
    "compute_delta",
    "apply_delta",
    "refactor",
    "RefactorResult",
    "DecimationPlan",
    "PlanCache",
    "build_plan",
    "get_plan_cache",
    "mesh_fingerprint",
    "plan_eligible",
    "plan_for",
    "walk",
    "TierPreference",
    "plan_placement",
    "CanopusEncoder",
    "EncodeReport",
    "CanopusDecoder",
    "LevelData",
    "PhaseTimings",
    "ProgressiveReader",
    "ByteSplitProduct",
    "byte_split",
    "byte_restore",
    "CampaignWriter",
    "StepReport",
    "QualityLayer",
    "block_split",
    "block_restore",
    "encode_partitioned",
    "PartitionedReport",
    "BufferArena",
    "fused_step_products",
]
