"""Tentpole bench — accuracy-aware retrieval planner + summary pushdown.

Paper §III-E: low-accuracy previews guide "focused data retrieval,
e.g., reading smaller subsets of high accuracy data". This bench puts a
number on the planner end of that claim for a fig9-scale XGC1 campaign:

* a mix of tolerance + region queries is answered twice — once through
  :class:`QueryPlanner` (certified stopping level from persisted
  per-chunk summaries, bbox pruning, one batched prefetch) and once
  naively (full unfiltered level-0 restore per query);
* pushdown statistics run entirely against catalog summaries, moving
  zero payload bytes;
* exact (level-0, unfiltered) queries stay bit-identical through the
  planner, and every tolerance query lands within its tolerance.

Emits ``results/BENCH_query.json`` (gated by ``check_regression.py``)
plus the ``query_stats_pruning`` table (moved here from the focused
retrieval bench, which kept the decoder-level ROI measurements).
"""

import time

import numpy as np
import pytest

from repro.core import CanopusEncoder, LevelScheme
from repro.core.restored_cache import get_geometry_cache, get_restored_cache
from repro.harness import format_table, json_report
from repro.harness.report import write_json_report
from repro.query import blob_query, stats_query
from repro.session import Session
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

from pipeline_common import RESULTS_DIR

CHUNKS = 36
SCALE = 0.5
LEVELS = 3
#: The paper's headline for this mechanism: the planner must at least
#: halve both simulated read time and fetched bytes on the query mix.
MIN_SAVINGS = 2.0


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    ds = make_xgc1(scale=SCALE)
    h = two_tier_titan(
        tmp_path_factory.mktemp("pushdown"), fast_capacity=32 << 20,
        slow_capacity=1 << 34,
    )
    enc = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": 1e-4, "mode": "relative"},
        chunks=CHUNKS,
    )
    enc.encode("q", "dpot", ds.mesh, ds.field, LevelScheme(LEVELS))
    get_restored_cache().clear()
    get_geometry_cache().clear()
    yield ds, h
    get_restored_cache().clear()
    get_geometry_cache().clear()


def _fresh_planner(h):
    """Cold handle: no restored cache, fresh range cache."""
    return Session(h, use_restored_cache=False).open("q").planner


def _measure(h, fn):
    """Run ``fn`` and return (result, sim_read_seconds, read_bytes, wall)."""
    sim0 = h.clock.total(op="read")
    bytes0 = h.clock.bytes_moved(op="read")
    wall0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - wall0
    return (
        result,
        h.clock.total(op="read") - sim0,
        h.clock.bytes_moved(op="read") - bytes0,
        wall,
    )


def test_query_pushdown_benchmark(setup, record_result):
    ds, h = setup
    center = ds.mesh.vertices[int(np.argmax(ds.field))]

    # Warm shared geometry once, unmeasured: both sides reuse it, and
    # the bench is about per-query payload bytes, not the mesh chain.
    warm = _fresh_planner(h)
    warm.decoder.prefetch_geometry("dpot")
    base_level = LEVELS - 1

    def certified_rms(region=None):
        # An unreachable tolerance surveys every level, so the plan's
        # level_rms is the certified (region-filtered) RMS ladder.
        return warm.plan_restore(
            "dpot", tolerance=1e-12, region=region
        ).level_rms

    # Tolerances derived from the campaign's own certified RMS ladder so
    # the mix stays satisfiable if the simulation changes: "coarse"
    # stops one level early, "fine" runs to level 0 — each relative to
    # its query's region, where the delta energy actually lives.
    roi_fine = (center - 0.15, center + 0.15)
    roi_coarse = (center - 0.3, center + 0.3)
    # A fig9-style analysis session: accuracy-bounded restores (full
    # domain and focused), aggregate statistics, and blob screening. A
    # system without summaries answers every one of these with a full
    # level-0 restore; the planner answers the restores from certified
    # pruned plans and the analytics from summaries alone.
    mix = [
        ("coarse tol, full domain", "restore", dict(
            tolerance=certified_rms()[base_level - 1] * 1.01)),
        ("fine tol, ROI 0.15", "restore", dict(
            tolerance=certified_rms(roi_fine)[0] * 1.01, region=roi_fine)),
        ("coarse tol, ROI 0.3", "restore", dict(
            tolerance=certified_rms(roi_coarse)[base_level - 1] * 1.01,
            region=roi_coarse)),
        ("stats, full domain", "stats", {}),
        ("stats, ROI 0.15", "stats", dict(region=roi_fine)),
        ("blobs, unreachable threshold", "blobs", dict(
            threshold=float(ds.field.max()) * 2 + 1)),
    ]

    rows = []
    totals = {"planner": [0.0, 0, 0.0], "naive": [0.0, 0, 0.0]}
    for name, kind, params in mix:
        planner = _fresh_planner(h)
        if kind == "restore":
            (state, plan), psim, pbytes, pwall = _measure(
                h, lambda: planner.restore("dpot", **params)
            )
            assert plan.complete, f"{name}: tolerance target not certified"
            tol = params["tolerance"]
            assert state.last_delta_rms <= tol, (
                f"{name}: achieved rms {state.last_delta_rms} > {tol}"
            )
            detail = f"level {plan.target_level}, {plan.pruned_chunks} pruned"
        elif kind == "stats":
            result, psim, pbytes, pwall = _measure(
                h, lambda: stats_query(planner.handle, "dpot", **params)
            )
            assert result["pushdown"] and result["restores"] == 0
            assert pbytes == 0
            if "region" not in params:
                assert result["stats"]["vmax"] == pytest.approx(
                    float(ds.field.max())
                )
                assert result["stats"]["count"] == ds.field.size
            detail = "pushdown, 0 restores"
        else:
            result, psim, pbytes, pwall = _measure(
                h, lambda: blob_query(planner.handle, "dpot", **params)
            )
            assert result["count"] == 0 and result["restores"] == 0
            assert result["pruned_chunks"] == CHUNKS
            assert pbytes == 0
            detail = "pushdown, 0 restores"

        naive = _fresh_planner(h)
        _, nsim, nbytes, nwall = _measure(
            h, lambda: naive.handle.restore_chain("dpot", 0)
        )

        for acc, vals in (
            ("planner", (psim, pbytes, pwall)),
            ("naive", (nsim, nbytes, nwall)),
        ):
            totals[acc][0] += vals[0]
            totals[acc][1] += vals[1]
            totals[acc][2] += vals[2]
        rows.append({
            "query": name,
            "kind": kind,
            "outcome": detail,
            "planner_bytes": pbytes,
            "naive_bytes": nbytes,
            "planner_sim_ms": psim * 1e3,
            "naive_sim_ms": nsim * 1e3,
        })

    # Exact queries stay bit-identical through the planner.
    exact = _fresh_planner(h)
    exact_state, exact_plan = exact.restore("dpot", level=0)
    reference = _fresh_planner(h).handle.restore_chain("dpot", 0)
    assert np.array_equal(exact_state.field, reference.field)
    assert exact_plan.skipped_bytes == 0

    sim_savings = totals["naive"][0] / totals["planner"][0]
    bytes_savings = totals["naive"][1] / totals["planner"][1]
    record_result(
        "query_pushdown",
        format_table(
            rows,
            title=(
                f"planner vs naive full restore, xgc1 scale {SCALE}, "
                f"{CHUNKS} chunks — {sim_savings:.1f}x sim-read, "
                f"{bytes_savings:.1f}x bytes"
            ),
        ),
    )

    report = json_report(
        "query_pushdown",
        rows,
        meta={
            "dataset": "xgc1",
            "scale": SCALE,
            "chunks": CHUNKS,
            "levels": LEVELS,
            "codec": "zfp",
            "rel_tolerance": 1e-4,
            "min_savings_required": MIN_SAVINGS,
        },
        metrics={
            "planner": {
                "mix_sim_read_seconds": totals["planner"][0],
                "mix_bytes": totals["planner"][1],
                "mix_wall_seconds": totals["planner"][2],
            },
            "naive": {
                "mix_sim_read_seconds": totals["naive"][0],
                "mix_bytes": totals["naive"][1],
                "mix_wall_seconds": totals["naive"][2],
            },
            "sim_read_savings": sim_savings,
            "bytes_savings": bytes_savings,
            "exact_bit_identical": True,
        },
    )
    write_json_report(RESULTS_DIR / "BENCH_query.json", report)

    assert sim_savings >= MIN_SAVINGS, (
        f"planner saved only {sim_savings:.2f}x sim-read time"
    )
    assert bytes_savings >= MIN_SAVINGS, (
        f"planner saved only {bytes_savings:.2f}x fetched bytes"
    )


def test_statistics_pruning_report(setup, record_result):
    _, h = setup
    planner = _fresh_planner(h)
    rows = []
    for magnitude in (0.0, 1e-3, 1e-2, 1e-1):
        plan = planner.plan_restore("dpot", level=0, min_significance=magnitude)
        kept = [d for d in plan.decisions if d.fetched and d.kind == "chunk"]
        rows.append(
            {
                "min_significance": magnitude,
                "chunks_kept": len(kept),
                "planned_bytes": plan.planned_bytes,
                "skipped_bytes": plan.skipped_bytes,
            }
        )
    record_result(
        "query_stats_pruning",
        format_table(rows, title="Delta chunks surviving significance pruning"),
    )
    counts = [r["chunks_kept"] for r in rows]
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] < counts[0]


def test_planner_benchmark(benchmark, setup):
    _, h = setup
    planner = _fresh_planner(h)
    benchmark(lambda: planner.plan_restore("dpot", tolerance=1e-2))
