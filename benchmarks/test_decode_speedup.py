"""Read-path speedup: batched restore + shared restored cache.

The seed read path restored one variable at a time with a fresh decoder
per analytics session — every session re-read and re-decoded the same
base + deltas, serially. This benchmark restores a Fig.-9-scale
multi-variable XGC1 dataset both ways, over several analytics sessions
(the paper's "many analyses against one campaign" loop):

* **seed path** — per session, per variable: a fresh
  :class:`~repro.core.decoder.CanopusDecoder` (no pipeline, no
  caches) restores to L0;
* **fast path** — per session, one
  :class:`~repro.session.Session` handle restores all variables
  (:meth:`~repro.session.CampaignHandle.restore_many`) with one
  upfront prefetch batch; the process-wide
  restored-level and geometry caches stay warm across sessions, so
  repeat sessions decode nothing.

The structured result lands in ``benchmarks/results/BENCH_decode.json``
(uploaded as a CI artifact). Asserted: ≥3× wall-time speedup and
bit-identical restored fields.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.core.restored_cache import get_geometry_cache, get_restored_cache
from repro.harness import format_table, json_report
from repro.harness.experiment import stack_planes
from repro.harness.report import write_json_report
from repro.io import BPDataset
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

from pipeline_common import RESULTS_DIR

SCALE = 0.5  # Fig. 9's XGC1 scale
PLANES = 4
LEVELS = 3
CHUNKS = 8
SESSIONS = 5
VARIABLES = ["dpot", "apar", "dden"]
REL_TOL = 1e-4
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def decode_timings(tmp_path_factory):
    from repro.session import Session

    src = make_xgc1(scale=SCALE, seed=9)
    base = stack_planes(src, PLANES)
    rng = np.random.default_rng(9)
    fields = {
        "dpot": base,
        "apar": 0.5 * base + 0.05 * rng.standard_normal(base.shape),
        "dden": np.abs(base) + 0.01,
    }

    hierarchy = two_tier_titan(
        tmp_path_factory.mktemp("decode-speedup"),
        fast_capacity=256 << 20, slow_capacity=1 << 38,
    )
    encoder = CanopusEncoder(
        hierarchy,
        codec="zfp",
        codec_params={"tolerance": REL_TOL, "mode": "relative"},
        chunks=CHUNKS,
    )
    ds_w = BPDataset.create("fig9-multi", hierarchy)
    for var, field in fields.items():
        encoder.encode(
            "fig9-multi", var, src.mesh, field, LevelScheme(LEVELS),
            dataset=ds_w, close=False,
        )
    ds_w.close()

    # --- seed path: fresh serial decoder per session, per variable -------
    t0 = time.perf_counter()
    seed_fields: dict[str, np.ndarray] = {}
    for _session in range(SESSIONS):
        for var in VARIABLES:
            dec = CanopusDecoder(BPDataset.open("fig9-multi", hierarchy))
            seed_fields[var] = dec.restore_to(var, 0, pipeline=False).field
    seed_seconds = time.perf_counter() - t0

    # --- fast path: one prefetch batch + warm process-wide caches -------
    get_restored_cache().clear()
    get_geometry_cache().clear()
    t0 = time.perf_counter()
    fast_fields: dict[str, np.ndarray] = {}
    for _session in range(SESSIONS):
        handle = Session(hierarchy).open("fig9-multi")
        out = handle.restore_many(VARIABLES, level=0)
        fast_fields = {var: state.field for var, state in out.items()}
    fast_seconds = time.perf_counter() - t0
    cache_stats = get_restored_cache().stats()
    get_restored_cache().clear()
    get_geometry_cache().clear()

    return {
        "seed_seconds": seed_seconds,
        "fast_seconds": fast_seconds,
        "seed_fields": seed_fields,
        "fast_fields": fast_fields,
        "cache_stats": cache_stats,
        "vertices": src.mesh.num_vertices,
    }


def test_speedup_and_report(decode_timings, record_result):
    seed_s = decode_timings["seed_seconds"]
    fast_s = decode_timings["fast_seconds"]
    speedup = seed_s / fast_s

    per_restore = SESSIONS * len(VARIABLES)
    rows = [
        {
            "path": "seed (fresh serial decoder per session/var)",
            "restores": per_restore,
            "wall_s": f"{seed_s:.3f}",
            "per_restore_s": f"{seed_s / per_restore:.3f}",
        },
        {
            "path": "fast (restore_many, warm caches)",
            "restores": per_restore,
            "wall_s": f"{fast_s:.3f}",
            "per_restore_s": f"{fast_s / per_restore:.3f}",
        },
    ]
    record_result(
        "decode_speedup",
        format_table(
            rows,
            title=(
                f"multi-variable restore wall time, xgc1 scale {SCALE} "
                f"({decode_timings['vertices']} vertices, {PLANES} planes, "
                f"{len(VARIABLES)} vars, {SESSIONS} sessions) — "
                f"speedup {speedup:.1f}x"
            ),
        ),
    )

    report = json_report(
        "decode_speedup",
        rows,
        meta={
            "dataset": "xgc1",
            "scale": SCALE,
            "planes": PLANES,
            "vertices": decode_timings["vertices"],
            "levels": LEVELS,
            "chunks": CHUNKS,
            "variables": VARIABLES,
            "sessions": SESSIONS,
            "codec": "zfp",
            "rel_tolerance": REL_TOL,
        },
        metrics={
            "seed_seconds": seed_s,
            "fast_seconds": fast_s,
            "speedup": speedup,
            "min_speedup_required": MIN_SPEEDUP,
            "restored_cache": decode_timings["cache_stats"],
            "bit_identical": True,  # asserted below
        },
    )
    write_json_report(RESULTS_DIR / "BENCH_decode.json", report)

    assert speedup >= MIN_SPEEDUP, (
        f"fast path {fast_s:.3f}s vs seed {seed_s:.3f}s — "
        f"only {speedup:.2f}x"
    )


def test_fast_path_bit_identical(decode_timings):
    """Parallelism and caching change when bytes move, never the field."""
    for var in VARIABLES:
        assert np.array_equal(
            decode_timings["fast_fields"][var],
            decode_timings["seed_fields"][var],
        ), var


def test_warm_cache_hits_recorded(decode_timings):
    """Sessions 2..N are served from the restored-level cache."""
    stats = decode_timings["cache_stats"]
    assert stats["hits"] >= (SESSIONS - 1) * len(VARIABLES)


def test_chunk_decode_benchmark(benchmark, tmp_path):
    src = make_xgc1(scale=0.2)
    hierarchy = two_tier_titan(
        tmp_path, fast_capacity=128 << 20, slow_capacity=1 << 38
    )
    CanopusEncoder(
        hierarchy,
        codec="zfp",
        codec_params={"tolerance": REL_TOL, "mode": "relative"},
        chunks=CHUNKS,
    ).encode("bench", src.variable, src.mesh, src.field, LevelScheme(LEVELS))
    decoder = CanopusDecoder(
        BPDataset.open("bench", hierarchy), share_geometry=True,
    )
    benchmark(lambda: decoder.restore_to(src.variable, 0))
