"""Extension bench — embarrassingly parallel refactoring.

Paper §III-C1: "the decimation is done locally without requiring
communication with other processors, and therefore is embarrassingly
parallel." This bench partitions the paper-size XGC1 plane, refactors
the patches inline and on ``workers`` threads, verifies the restored
fields agree exactly, and reports the scaling.
"""

import os

import numpy as np
import pytest

from repro.core import LevelScheme, get_plan_cache
from repro.core.parallel import encode_partitioned
from repro.harness import format_table
from repro.mesh import partition_mesh
from repro.session import Session
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

PARTS = 8
TOL = 1e-4


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    ds = make_xgc1(scale=0.6)
    h = two_tier_titan(
        tmp_path_factory.mktemp("par"), fast_capacity=64 << 20,
        slow_capacity=1 << 36,
    )
    results = {}
    for label, workers in [("serial", None), ("pool", min(4, os.cpu_count() or 2))]:
        get_plan_cache().clear()  # both runs decimate; neither replays the other
        report, _ = encode_partitioned(
            h, f"run-{label}", "dpot", ds.mesh, ds.field, LevelScheme(3),
            parts=PARTS, workers=workers,
            codec_params={"tolerance": TOL, "mode": "relative"},
            method="serial",
        )
        results[label] = report
    return ds, h, results


def _gather(hierarchy, name):
    """The exact global field, every patch read (restored cache off)."""
    return Session(hierarchy, use_restored_cache=False).open(name).gather(
        "dpot"
    )


def test_parallel_table(runs, record_result):
    ds, _, results = runs
    rows = [
        {
            "mode": label,
            "parts": rep.parts,
            "refactor_wall_s": rep.refactor_seconds,
            "sum_part_s": sum(rep.per_part_seconds),
            "write_s": rep.write_seconds,
        }
        for label, rep in results.items()
    ]
    speedup = (
        results["serial"].refactor_seconds
        / max(results["pool"].refactor_seconds, 1e-9)
    )
    cpus = len(os.sched_getaffinity(0))
    record_result(
        "parallel_refactoring",
        format_table(rows, title="Partitioned refactoring, serial vs pool")
        + f"\n\npool speedup over serial: {speedup:.2f}x "
        f"({cpus} CPU(s) available; method=\"serial\" is pinned here, whose "
        "heap loop holds the GIL, so threads overlap only the numpy stages — "
        "the batched default kernel is the one that scales with workers)",
    )


def test_results_identical(runs):
    _, h, _ = runs
    a = _gather(h, "run-serial")
    b = _gather(h, "run-pool")
    assert np.array_equal(a, b)


def test_restored_field_bounded(runs):
    ds, h, _ = runs
    out = _gather(h, "run-serial")
    rng = np.ptp(ds.field)
    assert np.abs(out - ds.field).max() <= 3 * TOL * rng + 1e-12


def test_per_part_work_balanced(runs):
    """Spatial binning yields patches of comparable size, and refactor
    work per patch is linear in its vertices."""
    ds, _, results = runs
    sizes = [p.mesh.num_vertices for p in partition_mesh(ds.mesh, PARTS)]
    assert len(sizes) == results["serial"].parts
    assert max(sizes) < 8 * (sum(sizes) / len(sizes))


def test_partition_benchmark(benchmark):
    ds = make_xgc1(scale=0.4)
    benchmark(lambda: partition_mesh(ds.mesh, PARTS))
