"""Write-path speedup: batched kernel + plan replay + overlapped compress.

The seed write path re-ran Algorithm 1's serial heap loop for every
timestep of a campaign and compressed each product one after another.
This benchmark encodes a Fig.-4-scale XGC1 campaign both ways:

* **seed path** — per step: direct serial refactoring (decimate with
  fields, no plan reuse: ``tests/test_layout.py``'s write-side
  reference) followed by serial codec encodes;
* **fast path** — :class:`~repro.core.campaign.CampaignWriter` with the
  batched kernel, the process-wide plan cache, and the writer's thread
  pool encoding each level while the walk goes on to the next.

The structured result lands in ``benchmarks/results/BENCH_refactor.json``
(uploaded as a CI artifact). Asserted: ≥3× wall-time speedup, plan
replay bit-identity against the direct path, and restoration accuracy
from the fast-path campaign.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.compress import get_codec
from repro.core import (
    CampaignReader,
    CampaignWriter,
    LevelScheme,
    build_plan,
    get_plan_cache,
)
from repro.harness import format_table, json_report
from repro.harness.report import write_json_report
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

from pipeline_common import RESULTS_DIR
from tests.test_layout import reference_refactor

SCALE = 0.4  # Fig. 4's XGC1 scale
LEVELS = 3
STEPS = 4
WORKERS = 4
REL_TOL = 1e-4
MIN_SPEEDUP = 3.0


def _timestep_fields(ds, steps: int) -> list[np.ndarray]:
    """A drifting-phase campaign: same mesh, step-dependent values."""
    x, y = ds.mesh.vertices[:, 0], ds.mesh.vertices[:, 1]
    return [
        ds.field * (1.0 + 0.05 * t) + 0.1 * np.sin(3 * x + 0.4 * t) * y
        for t in range(steps)
    ]


@pytest.fixture(scope="module")
def campaign_timings(tmp_path_factory):
    ds = make_xgc1(scale=SCALE, seed=7)
    scheme = LevelScheme(LEVELS)
    fields = _timestep_fields(ds, STEPS)
    codec_params = {"tolerance": REL_TOL, "mode": "relative"}

    # --- seed path: serial decimation per step + serial compress ----------
    codec = get_codec("zfp", tolerance=REL_TOL * float(np.ptp(fields[0])))
    t0 = time.perf_counter()
    seed_results = []
    for data in fields:
        _, levels, _, deltas = reference_refactor(ds.mesh, data, scheme)
        blobs = [codec.encode(levels[-1].ravel())]
        blobs += [codec.encode(d.ravel()) for d in deltas]
        seed_results.append((levels, deltas, blobs))
    seed_seconds = time.perf_counter() - t0

    # --- fast path: batched plan + replay + overlapped compress -----------
    get_plan_cache().clear()
    hierarchy = two_tier_titan(
        tmp_path_factory.mktemp("refactor-speedup"),
        fast_capacity=256 << 20, slow_capacity=1 << 38,
    )
    t0 = time.perf_counter()
    writer = CampaignWriter(
        hierarchy, "speedup", "dpot", ds.mesh, scheme,
        codec="zfp", codec_params=codec_params,
        method="batched", workers=WORKERS,
    )
    for step, data in enumerate(fields):
        writer.write_step(step, data)
    writer.close()
    fast_seconds = time.perf_counter() - t0

    return {
        "ds": ds,
        "scheme": scheme,
        "fields": fields,
        "hierarchy": hierarchy,
        "seed_seconds": seed_seconds,
        "fast_seconds": fast_seconds,
        "seed_results": seed_results,
    }


def test_speedup_and_report(campaign_timings, record_result):
    seed_s = campaign_timings["seed_seconds"]
    fast_s = campaign_timings["fast_seconds"]
    speedup = seed_s / fast_s

    ds = campaign_timings["ds"]
    rows = [
        {
            "path": "seed (serial decimate/step, serial compress)",
            "steps": STEPS,
            "wall_s": f"{seed_s:.3f}",
            "per_step_s": f"{seed_s / STEPS:.3f}",
        },
        {
            "path": f"fast (batched plan + replay, {WORKERS} workers)",
            "steps": STEPS,
            "wall_s": f"{fast_s:.3f}",
            "per_step_s": f"{fast_s / STEPS:.3f}",
        },
    ]
    record_result(
        "refactor_speedup",
        format_table(
            rows,
            title=(
                f"campaign encode wall time, xgc1 scale {SCALE} "
                f"({ds.mesh.num_vertices} vertices, {LEVELS} levels) — "
                f"speedup {speedup:.1f}x"
            ),
        ),
    )

    report = json_report(
        "refactor_speedup",
        rows,
        meta={
            "dataset": "xgc1",
            "scale": SCALE,
            "vertices": ds.mesh.num_vertices,
            "levels": LEVELS,
            "steps": STEPS,
            "workers": WORKERS,
            "codec": "zfp",
            "rel_tolerance": REL_TOL,
        },
        metrics={
            "seed_seconds": seed_s,
            "fast_seconds": fast_s,
            "speedup": speedup,
            "min_speedup_required": MIN_SPEEDUP,
            "replay_bit_identical": True,  # asserted below
        },
    )
    write_json_report(RESULTS_DIR / "BENCH_refactor.json", report)

    assert speedup >= MIN_SPEEDUP, (
        f"fast path {fast_s:.3f}s vs seed {seed_s:.3f}s — "
        f"only {speedup:.2f}x"
    )


def test_plan_replay_bit_identical_to_seed_path(campaign_timings):
    """Replaying the serial plan reproduces the seed path's levels and
    deltas exactly (bit-for-bit), so caching changes no output."""
    ds = campaign_timings["ds"]
    scheme = campaign_timings["scheme"]
    plan = build_plan(ds.mesh, scheme, method="serial")
    for data, (seed_levels, seed_deltas, _) in zip(
        campaign_timings["fields"], campaign_timings["seed_results"]
    ):
        levels = plan.coarsen(data)
        for got, want in zip(levels, seed_levels):
            assert np.array_equal(got, want)
        for got, want in zip(plan.deltas_for(levels), seed_deltas):
            assert np.array_equal(got, want)


def test_fast_campaign_restores_within_tolerance(campaign_timings):
    reader = CampaignReader(campaign_timings["hierarchy"], "speedup")
    span = float(np.ptp(campaign_timings["fields"][0]))
    for step, data in enumerate(campaign_timings["fields"]):
        state = reader.restore(step, 0)
        err = float(np.abs(state.field - data).max())
        assert err <= LEVELS * REL_TOL * span + 1e-12


def test_batched_kernel_benchmark(benchmark):
    from repro.mesh import decimate

    ds = make_xgc1(scale=0.15)
    benchmark(lambda: decimate(ds.mesh, None, ratio=2.0, method="batched"))
