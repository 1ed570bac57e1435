"""Multiprocess streaming encode scale-out vs the PR 3 thread path.

The thread-parallel campaign writer (plan replay + thread-pooled
delta/compress) is GIL-bound: replay's gather/scatter and zfp's Python
glue serialize, capping one process well below the hardware. This
benchmark encodes the same Fig.-4-scale XGC1 campaign both ways:

* **thread path** — :class:`~repro.core.campaign.CampaignWriter` with
  the batched kernel and a 4-thread delta/compress pool (PR 3's fast
  path);
* **scale-out path** — :func:`~repro.core.encode_scheduler
  .encode_campaign_scaleout`: 4 worker processes, fields shipped
  through windowed shared-memory slots, fused decimate→delta→compress
  per task, plans replayed worker-side (never pickled).

The structured result lands in
``benchmarks/results/BENCH_encode_scaleout.json`` (uploaded as a CI
artifact) with throughput, peak RSS, and shared-memory high-water
gauges. Asserted always: bit-identical products and window-bounded
shared memory. Asserted on hosts with >= 4 cores (the CI runner; this
is a wall-clock claim a time-shared single core cannot express):
>= 2.5x over the thread path — override the floor with
``REPRO_SCALEOUT_MIN``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import CampaignReader, CampaignWriter, LevelScheme
from repro.core.encode_scheduler import encode_campaign_scaleout
from repro.harness import format_table, json_report
from repro.harness.report import write_json_report
from repro.io import BPDataset
from repro.obs.metrics import get_registry
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

from pipeline_common import RESULTS_DIR

SCALE = 0.4
LEVELS = 3
STEPS = 8
PROCESSES = 4
WINDOW = 4
THREAD_WORKERS = 4
REL_TOL = 1e-4
MIN_SPEEDUP = float(os.environ.get("REPRO_SCALEOUT_MIN", "2.5"))
ENOUGH_CORES = (os.cpu_count() or 1) >= 4


def _timestep_fields(ds, steps: int) -> list[np.ndarray]:
    x, y = ds.mesh.vertices[:, 0], ds.mesh.vertices[:, 1]
    return [
        ds.field * (1.0 + 0.05 * t) + 0.1 * np.sin(3 * x + 0.4 * t) * y
        for t in range(steps)
    ]


@pytest.fixture(scope="module")
def scaleout_timings(tmp_path_factory):
    ds = make_xgc1(scale=SCALE, seed=7)
    scheme = LevelScheme(LEVELS)
    fields = _timestep_fields(ds, STEPS)
    codec_params = {"tolerance": REL_TOL, "mode": "relative"}

    def hier(tag):
        return two_tier_titan(
            tmp_path_factory.mktemp("encode-scaleout") / tag,
            fast_capacity=256 << 20, slow_capacity=1 << 38,
        )

    # --- thread path: plan replay, encodes on the writer's thread pool ---
    h_thread = hier("thread")
    t0 = time.perf_counter()
    writer = CampaignWriter(
        h_thread, "scaleout", "dpot", ds.mesh, scheme,
        codec="zfp", codec_params=codec_params,
        method="batched", workers=THREAD_WORKERS,
    )
    for step, data in enumerate(fields):
        writer.write_step(step, data)
    writer.close()
    thread_seconds = time.perf_counter() - t0

    # --- process scale-out: shared-memory scheduler, fused kernels ------
    h_mp = hier("mp")
    t0 = time.perf_counter()
    report, _ = encode_campaign_scaleout(
        h_mp, "scaleout", "dpot", ds.mesh, scheme,
        ((step, data) for step, data in enumerate(fields)),
        processes=PROCESSES, window=WINDOW, start_method="fork",
        codec="zfp", codec_params=codec_params, method="batched",
    )
    mp_seconds = time.perf_counter() - t0

    return {
        "ds": ds,
        "fields": fields,
        "h_thread": h_thread,
        "h_mp": h_mp,
        "thread_seconds": thread_seconds,
        "mp_seconds": mp_seconds,
        "report": report,
    }


def test_throughput_and_report(scaleout_timings, record_result):
    ds = scaleout_timings["ds"]
    report = scaleout_timings["report"]
    thread_s = scaleout_timings["thread_seconds"]
    mp_s = scaleout_timings["mp_seconds"]
    speedup = thread_s / mp_s
    total_vertices = STEPS * ds.mesh.num_vertices

    rows = [
        {
            "path": f"thread (batched plan, {THREAD_WORKERS} threads)",
            "steps": STEPS,
            "wall_s": f"{thread_s:.3f}",
            "vertices_per_s": f"{total_vertices / thread_s:,.0f}",
        },
        {
            "path": (
                f"scale-out ({PROCESSES} procs, window {WINDOW}, "
                "fused shm)"
            ),
            "steps": STEPS,
            "wall_s": f"{mp_s:.3f}",
            "vertices_per_s": f"{total_vertices / mp_s:,.0f}",
        },
    ]
    record_result(
        "encode_scaleout",
        format_table(
            rows,
            title=(
                f"campaign encode scale-out, xgc1 scale {SCALE} "
                f"({ds.mesh.num_vertices} vertices x {STEPS} steps) — "
                f"{speedup:.2f}x on {os.cpu_count()} cores"
            ),
        ),
    )

    registry = get_registry()
    bench = json_report(
        "encode_scaleout",
        rows,
        meta={
            "dataset": "xgc1",
            "scale": SCALE,
            "vertices": ds.mesh.num_vertices,
            "levels": LEVELS,
            "steps": STEPS,
            "processes": PROCESSES,
            "window": WINDOW,
            "thread_workers": THREAD_WORKERS,
            "codec": "zfp",
            "rel_tolerance": REL_TOL,
            "cpu_count": os.cpu_count(),
            "start_method": report.start_method,
        },
        metrics={
            "thread_seconds": thread_s,
            "mp_seconds": mp_s,
            "speedup": speedup,
            "min_speedup_required": MIN_SPEEDUP,
            "speedup_asserted": ENOUGH_CORES,
            "thread_vertices_per_second": total_vertices / thread_s,
            "mp_vertices_per_second": total_vertices / mp_s,
            # gauges exported by the scheduler, stamped into the record
            "peak_rss_bytes": registry.gauge(
                "encode.sched.peak_rss_bytes"
            ).value,
            "shm_hwm_bytes": registry.gauge(
                "encode.sched.shm_hwm_bytes"
            ).value,
            "shm_bytes": report.shm_bytes,
            "window_stalls": report.window_stalls,
            "plan_builds": report.plan_builds,
            "plan_replays": report.plan_replays,
            "bit_identical": True,  # asserted below
        },
    )
    write_json_report(RESULTS_DIR / "BENCH_encode_scaleout.json", bench)

    if ENOUGH_CORES:
        assert speedup >= MIN_SPEEDUP, (
            f"scale-out {mp_s:.3f}s vs thread path {thread_s:.3f}s — "
            f"only {speedup:.2f}x on {os.cpu_count()} cores"
        )


def test_products_bit_identical(scaleout_timings):
    """Every product byte-equal between the thread and scale-out paths."""
    d_thread = BPDataset.open("scaleout", scaleout_timings["h_thread"])
    d_mp = BPDataset.open("scaleout", scaleout_timings["h_mp"])
    assert set(d_thread.keys()) == set(d_mp.keys())
    for key in sorted(d_thread.keys()):
        assert d_thread.read(key) == d_mp.read(key), key
    assert (
        d_thread.catalog.attrs["variables"] == d_mp.catalog.attrs["variables"]
    )


def test_window_bounds_resident_memory(scaleout_timings):
    """Raw in-flight field data never exceeds the window's slot budget."""
    ds = scaleout_timings["ds"]
    report = scaleout_timings["report"]
    per_step = ds.mesh.num_vertices * 8
    assert report.shm_hwm_bytes <= WINDOW * per_step
    assert report.shm_bytes == STEPS * per_step
    assert report.tasks == STEPS
    assert report.peak_rss_bytes > 0


def test_scaleout_campaign_restores(scaleout_timings):
    reader = CampaignReader(scaleout_timings["h_mp"], "scaleout")
    span = float(np.ptp(scaleout_timings["fields"][0]))
    for step in (0, STEPS - 1):
        state = reader.restore(step, 0)
        err = float(
            np.abs(state.field - scaleout_timings["fields"][step]).max()
        )
        assert err <= LEVELS * REL_TOL * span + 1e-12
