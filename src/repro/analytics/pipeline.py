"""Timed end-to-end analysis pipeline (paper Figs. 9–11).

Wraps the Canopus read path with an analysis stage and reports the four
phases the paper plots: **I/O**, **decompression**, **restoration**, and
the analysis itself (blob detection for XGC1). The baseline case
("None") reads the full-accuracy data directly from the slowest tier
with no Canopus involvement, exactly as the paper's no-reduction
comparison does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.decoder import CanopusDecoder, LevelData, PhaseTimings
from repro.core.notation import level_key, mesh_key
from repro.errors import AnalyticsError

__all__ = ["PipelineResult", "run_analysis_at_level", "restore_full_accuracy"]

AnalysisFn = Callable[[LevelData], object]


@dataclass
class PipelineResult:
    """One end-to-end pipeline execution.

    ``setup_seconds`` is the one-time geometry cost (mesh hierarchy +
    mappings, static across timesteps) and is excluded from
    :attr:`total_seconds`, matching how the paper's Figs. 9–11 count
    per-retrieval phases only.
    """

    var: str
    level: int
    decimation_ratio: float
    io_seconds: float
    decompress_seconds: float
    restore_seconds: float
    analysis_seconds: float
    setup_seconds: float = 0.0
    output: object = None

    @property
    def total_seconds(self) -> float:
        return (
            self.io_seconds
            + self.decompress_seconds
            + self.restore_seconds
            + self.analysis_seconds
        )

    def phases(self) -> dict[str, float]:
        return {
            "io": self.io_seconds,
            "decompression": self.decompress_seconds,
            "restoration": self.restore_seconds,
            "analysis": self.analysis_seconds,
        }


def _finish(
    var: str,
    state: LevelData,
    ratio: float,
    analysis: AnalysisFn | None,
    setup_seconds: float = 0.0,
) -> PipelineResult:
    t0 = time.perf_counter()
    output = analysis(state) if analysis is not None else None
    analysis_seconds = time.perf_counter() - t0
    t = state.timings
    return PipelineResult(
        var=var,
        level=state.level,
        decimation_ratio=ratio,
        io_seconds=t.io_seconds,
        decompress_seconds=t.decompress_seconds,
        restore_seconds=t.restore_seconds,
        analysis_seconds=analysis_seconds,
        setup_seconds=setup_seconds,
        output=output,
    )


def run_analysis_at_level(
    decoder: CanopusDecoder,
    var: str,
    level: int,
    analysis: AnalysisFn | None = None,
    *,
    prefetch_geometry: bool = True,
) -> PipelineResult:
    """Restore ``var`` to ``level`` and run the analysis on it.

    Matches the paper's Fig. 9a protocol: "at decimation ratio of 4, the
    total time spent … is the time to retrieve and decompress L2^c and
    delta^c(1-2), restore L1, and perform blob detection on L1." The
    static geometry is prefetched first (one-time cost, reported as
    ``setup_seconds``) so the per-retrieval phases contain data I/O only.
    """
    scheme = decoder.scheme(var)
    scheme.validate_level(level)
    setup = (
        decoder.prefetch_geometry(var).total_seconds
        if prefetch_geometry
        else 0.0
    )
    state = decoder.restore_to(var, level)
    ratio = scheme.decimation_ratio(level)
    return _finish(var, state, ratio, analysis, setup)


def restore_full_accuracy(
    decoder: CanopusDecoder, var: str, analysis: AnalysisFn | None = None
) -> PipelineResult:
    """Restore to L0 from the base + all deltas (paper Figs. 9b/10b/11b)."""
    return run_analysis_at_level(decoder, var, 0, analysis)


def baseline_full_read(
    hierarchy,
    dataset_name: str,
    var: str,
    mesh_bytes_key: str | None = None,
    analysis: AnalysisFn | None = None,
) -> PipelineResult:
    """The "None" baseline: full-accuracy data straight from storage.

    Reads raw (uncompressed) full-accuracy payloads that a conventional
    (non-Canopus) writer stored on the slowest tier; no decompression or
    restoration phases.
    """
    from repro.compress import decode_auto
    from repro.io.dataset import BPDataset
    from repro.mesh.io import mesh_from_bytes

    ds = BPDataset.open(dataset_name, hierarchy)
    clock = hierarchy.clock
    timings = PhaseTimings()

    before = clock.elapsed
    blob = ds.read(level_key(var, 0))
    timings.io_seconds += clock.elapsed - before
    t0 = time.perf_counter()
    field = decode_auto(blob)
    planes = int(
        ds.catalog.attrs.get("variables", {}).get(var, {}).get("planes", 0)
    )
    if planes:
        field = field.reshape(planes, -1)
    timings.decompress_seconds += time.perf_counter() - t0

    # Mesh geometry is static across timesteps for the baseline too; its
    # read cost is reported as one-time setup, mirroring the Canopus path.
    mesh = None
    key = mesh_bytes_key or mesh_key(var, 0)
    setup_seconds = 0.0
    if key in ds.catalog:
        before = clock.elapsed
        mesh_blob = ds.read(key)
        setup_seconds = clock.elapsed - before
        mesh = mesh_from_bytes(mesh_blob)
    if mesh is None:
        raise AnalyticsError(f"baseline dataset lacks mesh payload {key!r}")

    state = LevelData(var=var, level=0, mesh=mesh, field=np.asarray(field), timings=timings)
    return _finish(var, state, 1.0, analysis, setup_seconds)
