"""Self-tests of the benchmark harness (not in tier-1 ``testpaths``).

    python -m pytest benchmarks/perf/test_perf_harness.py -q
"""
# ruff: noqa: I001 - sibling modules are importable only via sys.path below

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentiles ---------------------------------------------------------
def test_percentiles_come_from_raw_sorted_samples():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 100) == 5.0
    assert stats.percentile(samples, 25) == 2.0
    assert stats.percentile([1.0, 2.0], 50) == 1.5


def test_tail_needs_ten_samples_beyond_it():
    # p90 of 99 samples leaves 9 beyond: refused. Of 100: 10, printed.
    assert stats.tail(list(range(99)), 90) is None
    assert stats.tail(list(range(100)), 90) == pytest.approx(89.1)
    assert stats.tail(list(range(999)), 99) is None
    assert stats.tail(list(range(1000)), 99) is not None
    assert stats.tail(list(range(1000)), None) is None  # write_cold


# -- spans ---------------------------------------------------------------
def _span(i, parent, start, end, layer="x"):
    return {"id": i, "parent": parent, "start": start, "end": end,
            "name": f"s{i}", "layer": layer, "bytes_in": 0, "bytes_out": 0}


def test_self_time_is_duration_minus_child_cover():
    spans = [
        _span(0, None, 0.0, 10.0),   # root
        _span(1, 0, 1.0, 4.0),       # child
        _span(2, 0, 3.0, 6.0),       # overlaps child 1: union is [1, 6]
        _span(3, 2, 3.5, 4.5),       # grandchild
        _span(4, 0, 8.0, 12.0),      # runs past the parent: clipped to 10
    ]
    own = stats.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)


def test_recorder_links_parents_and_layers_fold():
    rec = stats.SpanRecorder()
    with rec.span("op", "bench", 0):
        with rec.span("encode", "compress", 0) as span:
            span["bytes_in"] = 8
        with rec.span("write", "io", 0):
            pass
    assert [s["parent"] for s in rec.spans] == [None, 0, 0]
    calls = stats.by_call(rec.spans)
    assert calls["compress:encode"]["bytes_in"] == 8
    assert set(stats.by_layer(calls)) == {"bench", "compress", "io"}
    total = sum(row["self_s"] for row in calls.values())
    root = rec.spans[0]
    assert total == pytest.approx(root["end"] - root["start"])


# -- seeded inputs ---------------------------------------------------------
def test_same_seed_same_requests_other_seed_other_requests():
    assert inputs.roi_requests(7, 64) == inputs.roi_requests(7, 64)
    assert inputs.roi_requests(7, 64) != inputs.roi_requests(8, 64)
    assert inputs.roi_requests(7, 4, stream=1) != inputs.roi_requests(7, 4)
    assert inputs.hot_products(7) == inputs.hot_products(7)
    assert sorted(inputs.hot_products(7)) == sorted(inputs.hot_products(8))
    assert any(inputs.hot_products(s) != inputs.hot_products(7)
               for s in range(8, 12))


def test_roi_requests_are_unique_and_alternate():
    requests = inputs.roi_requests(3, 256)
    assert len({r["region"] for r in requests}) == 256
    kinds = [("level", r["level"]) if "level" in r
             else ("tolerance", r["tolerance"]) for r in requests[:4]]
    assert kinds == list(inputs.ROI_KINDS)
    for r in requests:
        (x0, y0), (x1, y1) = r["region"]
        assert 0.2 <= x1 - x0 <= 0.8 and x1 - x0 == pytest.approx(y1 - y0)
    target = inputs.restore_target("d", requests[2])
    assert "tolerance=0.01" in target and "region=" in target


# -- names -----------------------------------------------------------------
def test_benchmark_json_matches_the_spec():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.ALL)
    driver = [m for m in spec.END_TO_END if m["driver"]]
    assert BENCHMARK["end_to_end"] == [
        {k: m[k] for k in ("name", "unit", "better", "bound")}
        for m in driver
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": row[0], "unit": row[1], "better": row[2]}
        for row in spec.PER_LAYER
    ]
    names = [m["name"] for m in BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"] + BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names + [m["name"] for m in spec.END_TO_END]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    assert len(spec.END_TO_END) == 10
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in BENCHMARK["end_to_end"])


# -- output checks -----------------------------------------------------------
def test_a_corrupted_served_body_is_a_failed_op(tmp_path):
    workload = workloads.ServeHot(1, tmp_path)
    workload.targets = ["/restore"]
    workload.bodies = [workloads.npy_bytes(np.arange(12.0).reshape(3, 4))]
    workload.cache_headers = {"hit": 0, "miss": 0}
    good = workload.bodies[0]
    workload.account(0, 0, (0, 200, {"x-canopus-cache": "hit"}, good))
    assert workload.failed == 0
    corrupt = bytearray(good)
    corrupt[-1] ^= 0x01
    workload.account(0, 1, (0, 200, {"x-canopus-cache": "hit"},
                            bytes(corrupt)))
    workload.account(0, 2, (0, 503, {}, b""))
    assert workload.failed == 2


def test_a_region_body_that_differs_from_restore_is_a_failed_op(tmp_path):
    workload = workloads.ServeRoi(1, tmp_path)
    workload.requests = inputs.roi_requests(1, 2)
    field = np.arange(12.0).reshape(3, 4)
    workload.reference = lambda var, **request: field
    workload.kept = {0: workloads.npy_bytes(field),
                     1: workloads.npy_bytes(field + 1e-12)}
    workload.check_kept()
    assert workload.failed == 1 and "request 1" in workload.notes[0]
    assert not workload.kept


def test_compare_verdicts():
    assert compare.verdict(100, 109, "lower", 0.1, 0.02) == "same"
    assert compare.verdict(100, 111, "lower", 0.1, 0.02) == "worse"
    assert compare.verdict(100, 89, "higher", 0.1, 0.02) == "worse"
    assert compare.verdict(100, 150, "higher", 0.1, 0.02) == "same"
    assert compare.verdict(100, 150, "lower", 0.1, 0.3) == "unresolved"
    assert compare.verdict(0.0, 0.0, "lower", 0.0, 0.0) == "same"
    assert compare.verdict(0.0, 1e-9, "lower", 0.0, 0.0) == "worse"


# -- the whole command -------------------------------------------------------
def test_quick_smoke_runs_every_workload_in_under_a_minute(tmp_path):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "5",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60, f"--quick took {elapsed:.1f} s"
    result = json.loads((tmp_path / "result.json").read_text())
    assert list(result["workloads"]) == list(spec.ALL)
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit",
                "seed"):
        assert key in result["environment"]
    for name, detail in result["workloads"].items():
        assert detail["failed"] == 0 and detail["attempted"] >= 1
        assert detail["metrics"]["fail_ratio"]["value"] == 0
        expected = {m["name"] for m in spec.END_TO_END
                    if name in m["applies"]}
        # A tail is printed only where 2 s left ten samples beyond it.
        tail = detail["metrics"].pop("lat_tail_ms", None)
        assert set(detail["metrics"]) == expected - {"lat_tail_ms"}
        if tail is not None:
            assert "lat_tail_ms" in expected and tail["samples_beyond"] >= 10
        assert f"{name} " in done.stdout
        for metric in detail["metrics"]:
            assert metric in done.stdout
