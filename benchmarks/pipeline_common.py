"""Shared driver for the end-to-end pipeline figures (9, 10, 11).

For each decimation ratio r in the figure's sweep the paper encodes the
variable with the base at ratio r, then measures two retrieval modes:

* (a) "analysis at the next level": read the base + the first delta,
  restore one level, run the analysis (Figs. 9a/10a/11a);
* (b) "full-accuracy restoration": read the base + every delta and
  restore L0 (Figs. 9b/10b/11b);

plus the "None" baseline — the unreduced L0 read straight from the
parallel file system.

Because our decompression runs in Python while the I/O times come from
Titan-like device models, the *phase mix* differs from the paper (their
ZFP decodes orders of magnitude faster relative to I/O); the I/O series
— which is what the storage hierarchy argument is about — is asserted,
and every phase is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analytics import (
    baseline_full_read,
    restore_full_accuracy,
    run_analysis_at_level,
)
from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.harness import format_table
from repro.harness.experiment import stack_planes, write_baseline_dataset
from repro.io import BPDataset
from repro.simulations import make_dataset
from repro.storage import two_tier_titan

REL_TOL = 1e-4

@dataclass
class PipelineSweep:
    dataset_name: str
    variable: str
    ratios: list[int]
    next_level_rows: list[dict]
    full_restore_rows: list[dict]
    baseline_row: dict
    max_restore_error: float
    field_range: float

    def tables(self) -> str:
        a = format_table(
            [self.baseline_row] + self.next_level_rows,
            title=(
                f"({self.dataset_name}/{self.variable}) end-to-end analysis "
                "pipeline, by base decimation ratio"
            ),
        )
        b = format_table(
            self.full_restore_rows,
            title="full-accuracy restoration from base + deltas",
        )
        return a + "\n\n" + b


def run_pipeline_sweep(
    dataset_name: str,
    workdir: Path,
    *,
    scale: float,
    planes: int,
    ratios: list[int],
    analysis=None,
    chunks: int = 1,
) -> PipelineSweep:
    dataset = make_dataset(dataset_name, scale=scale)
    field = stack_planes(dataset, planes)
    hierarchy = two_tier_titan(
        workdir, fast_capacity=256 << 20, slow_capacity=1 << 38
    )
    encoder = CanopusEncoder(
        hierarchy,
        codec="zfp",
        codec_params={"tolerance": REL_TOL, "mode": "relative"},
        chunks=chunks,
        method="serial",  # Figs. 9-11 are about the paper's Algorithm 1
    )

    # One encoding per base ratio (the paper's per-ratio test cases).
    for ratio in ratios:
        levels = int(math.log2(ratio)) + 1
        encoder.encode(
            f"{dataset_name}-r{ratio}",
            dataset.variable,
            dataset.mesh,
            field,
            LevelScheme(levels),
        )
    write_baseline_dataset(
        f"{dataset_name}-none", hierarchy, dataset, field=field
    )

    def phase_row(label, ratio, res):
        return {
            "ratio": label,
            "io_s": res.io_seconds,
            "decompress_s": res.decompress_seconds,
            "restore_s": res.restore_seconds,
            "analysis_s": res.analysis_seconds,
            "total_s": res.total_seconds,
        }

    baseline = baseline_full_read(
        hierarchy, f"{dataset_name}-none", dataset.variable, analysis=analysis
    )
    baseline_row = phase_row("None", 1, baseline)

    next_rows = []
    full_rows = []
    max_err = 0.0
    for ratio in ratios:
        name = f"{dataset_name}-r{ratio}"
        dec = CanopusDecoder(BPDataset.open(name, hierarchy))
        scheme = dec.scheme(dataset.variable)
        # (a) construct the next level of accuracy and analyze it.
        res_a = run_analysis_at_level(
            dec, dataset.variable, max(0, scheme.base_level - 1),
            analysis=analysis,
        )
        next_rows.append(phase_row(ratio, ratio, res_a))
        # (b) restore full accuracy (fresh decoder = cold caches, but
        # geometry is prefetched inside the pipeline as one-time setup).
        dec_b = CanopusDecoder(BPDataset.open(name, hierarchy))
        res_b = restore_full_accuracy(dec_b, dataset.variable)
        full_rows.append(phase_row(ratio, ratio, res_b))
        restored = dec_b.restore_to(dataset.variable, 0)
        max_err = max(
            max_err, float(np.max(np.abs(restored.field - field)))
        )

    return PipelineSweep(
        dataset_name=dataset_name,
        variable=dataset.variable,
        ratios=ratios,
        next_level_rows=next_rows,
        full_restore_rows=full_rows,
        baseline_row=baseline_row,
        max_restore_error=max_err,
        field_range=float(np.ptp(field)),
    )


def assert_pipeline_shape(sweep: PipelineSweep) -> None:
    """The paper's qualitative claims, shared by Figs. 9–11."""
    io_a = [r["io_s"] for r in sweep.next_level_rows]
    # (1) Reading less data costs less I/O: monotone decrease with ratio.
    assert all(a > b for a, b in zip(io_a, io_a[1:])), io_a
    # (2) Elastic analytics: at the deepest decimation in the figure's
    # sweep, the quick-look I/O sits far below the unreduced read — an
    # order of magnitude when the sweep reaches ratio 32 (the paper's
    # XGC1 claim), proportionally less for shallow sweeps (CFD stops at
    # ratio 8).
    factor = min(10.0, 0.8 * max(sweep.ratios))
    assert io_a[-1] * factor <= sweep.baseline_row["io_s"]
    # (3) Full-accuracy restoration beats the raw full read on I/O at
    # every ratio (compression + fast-tier base).
    for row in sweep.full_restore_rows:
        assert row["io_s"] < sweep.baseline_row["io_s"]
    # (4) Restoration is correct: error within the accumulated per-stage
    # bounds (N−1 deltas + base, each ≤ REL_TOL × range).
    max_levels = int(math.log2(max(sweep.ratios))) + 1
    assert (
        sweep.max_restore_error
        <= max_levels * REL_TOL * sweep.field_range + 1e-12
    )
