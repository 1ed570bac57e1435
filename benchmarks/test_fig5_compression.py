"""Figure 5 — Canopus vs. direct multi-level compression.

The paper compresses (a) all levels L0..L(N−1) directly, and (b) the
base plus deltas (Canopus), for total level counts N = 1..4, and plots
the normalized stored size. Canopus wins because deltas are smoother:
"Canopus can further improve the data compression ratio by 14% … for
XGC1 data and up to 62.5% for GenASiS".

This bench prints both curves per dataset and asserts the shape: with
the paper's codec (ZFP-style) Canopus is never worse and strictly
better for N ≥ 2.
"""

import numpy as np
import pytest

from repro.compress import get_codec
from repro.core import LevelScheme, refactor
from repro.harness import format_table
from repro.simulations import make_dataset

DATASETS = ["xgc1", "genasis", "cfd"]
SCALE = {"xgc1": 0.4, "genasis": 0.15, "cfd": 1.0}
MAX_LEVELS = 4
REL_TOL = 1e-4


@pytest.fixture(scope="module", params=DATASETS)
def curves(request):
    name = request.param
    ds = make_dataset(name, scale=SCALE[name])
    tol = REL_TOL * float(np.ptp(ds.field))
    codec = get_codec("zfp", tolerance=tol)
    # One deep refactoring provides every prefix N (levels are nested).
    deep = refactor(ds.mesh, ds.field, LevelScheme(MAX_LEVELS), method="serial")
    rows = []
    for n in range(1, MAX_LEVELS + 1):
        levels = deep.levels[:n]
        original = sum(lvl.nbytes for lvl in levels)
        direct = sum(len(codec.encode(lvl)) for lvl in levels)
        canopus = len(codec.encode(levels[-1])) + sum(
            len(codec.encode(deep.deltas[l])) for l in range(n - 1)
        )
        rows.append(
            {
                "total_levels": n,
                "direct": direct / original,
                "canopus": canopus / original,
                "improvement": 1 - canopus / direct,
            }
        )
    return ds, rows


def test_fig5_canopus_vs_direct(curves, record_result):
    ds, rows = curves
    record_result(
        f"fig5_{ds.name}",
        format_table(
            rows,
            title=(
                f"Fig.5 ({ds.name}/{ds.variable}): normalized size, "
                "direct vs Canopus (ZFP-style, fixed accuracy)"
            ),
        ),
    )
    # N = 1: identical by construction (both store compressed L0).
    assert rows[0]["direct"] == pytest.approx(rows[0]["canopus"])
    # N >= 2: Canopus never loses, and wins somewhere.
    for row in rows[1:]:
        assert row["canopus"] <= row["direct"] * 1.005
    assert max(r["improvement"] for r in rows[1:]) > 0.02


def test_fig5_both_schemes_beat_raw(curves):
    _, rows = curves
    for row in rows:
        assert row["direct"] < 0.5
        assert row["canopus"] < 0.5


def test_fig5_compression_benchmark(benchmark):
    ds = make_dataset("xgc1", scale=0.4)
    tol = REL_TOL * float(np.ptp(ds.field))
    codec = get_codec("zfp", tolerance=tol)
    benchmark(lambda: codec.encode(ds.field))
