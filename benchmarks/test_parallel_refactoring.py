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
from repro.core.parallel import PartitionedDecoder, encode_partitioned
from repro.harness import format_table
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
    a = PartitionedDecoder(h, "run-serial").gather_full_accuracy()
    b = PartitionedDecoder(h, "run-pool").gather_full_accuracy()
    assert np.array_equal(a, b)


def test_restored_field_bounded(runs):
    ds, h, _ = runs
    out = PartitionedDecoder(h, "run-serial").gather_full_accuracy()
    rng = np.ptp(ds.field)
    assert np.abs(out - ds.field).max() <= 3 * TOL * rng + 1e-12


def test_per_part_work_balanced(runs):
    """Spatial binning yields patches of comparable refactor cost."""
    _, _, results = runs
    times = results["serial"].per_part_seconds
    assert max(times) < 8 * (sum(times) / len(times))


def test_partition_benchmark(benchmark):
    from repro.mesh import partition_mesh

    ds = make_xgc1(scale=0.4)
    benchmark(lambda: partition_mesh(ds.mesh, PARTS))
