"""Ablation — the form of Estimate() (paper §III-C2).

The paper fixes α = β = γ = 1/3 and notes "the optimal form for
Estimate(·) is left for future study". This ablation compares the mean
estimator against barycentric weights (linear-exact interpolation):
barycentric deltas are smaller and smoother, so they compress better —
at the cost of serializing per-vertex weights in the mapping metadata.
"""

import numpy as np
import pytest

from repro.compress import get_codec, smoothness
from repro.core import LevelScheme, refactor
from repro.harness import format_table
from repro.simulations import make_dataset

DATASETS = ["xgc1", "cfd"]
REL_TOL = 1e-4


@pytest.fixture(scope="module")
def comparison():
    rows = []
    for name in DATASETS:
        ds = make_dataset(name, scale=0.3)
        tol = REL_TOL * float(np.ptp(ds.field))
        codec = get_codec("zfp", tolerance=tol)
        for estimator in ("mean", "barycentric"):
            result = refactor(
                ds.mesh, ds.field, LevelScheme(3), estimator=estimator,
                method="serial",
            )
            delta_bytes = sum(len(codec.encode(d)) for d in result.deltas)
            mapping_bytes = sum(len(m.to_bytes()) for m in result.mappings)
            rows.append(
                {
                    "dataset": name,
                    "estimator": estimator,
                    "delta_std": float(
                        np.mean([smoothness(d).std for d in result.deltas])
                    ),
                    "delta_bytes": delta_bytes,
                    "mapping_bytes": mapping_bytes,
                    "total_bytes": delta_bytes + mapping_bytes,
                }
            )
    return rows


def test_estimate_ablation_table(comparison, record_result):
    record_result(
        "ablation_estimate",
        format_table(
            comparison,
            title="Ablation: Estimate() = mean (paper) vs barycentric",
        ),
    )


def test_barycentric_deltas_smaller(comparison):
    by = {(r["dataset"], r["estimator"]): r for r in comparison}
    for name in DATASETS:
        mean_row = by[(name, "mean")]
        bary_row = by[(name, "barycentric")]
        # Linear-exact estimation ⇒ smaller-amplitude deltas…
        assert bary_row["delta_std"] < mean_row["delta_std"]
        assert bary_row["delta_bytes"] < mean_row["delta_bytes"]
        # …but bigger mapping metadata (weights serialized).
        assert bary_row["mapping_bytes"] > mean_row["mapping_bytes"]


def test_both_estimators_restore_exactly(benchmark):
    """Correctness is estimator-independent (delta absorbs the error)."""
    from repro.core.delta import apply_delta

    ds = make_dataset("xgc1", scale=0.2)
    for estimator in ("mean", "barycentric"):
        result = refactor(
            ds.mesh, ds.field, LevelScheme(3), estimator=estimator,
            method="serial",
        )
        state = result.base_field
        for lvl in (1, 0):
            state = apply_delta(state, result.deltas[lvl], result.mappings[lvl])
        assert np.allclose(state, ds.field, atol=1e-12)

    result = refactor(
        ds.mesh, ds.field, LevelScheme(2), estimator="barycentric",
        method="serial",
    )
    benchmark(
        lambda: apply_delta(result.levels[1], result.deltas[0], result.mappings[0])
    )
