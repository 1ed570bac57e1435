"""Figure 4 — data refactoring: levels, meshes, and delta smoothness.

The paper's Fig. 4 shows, for XGC1/GenASiS/CFD, the original data and
mesh, the 4× decimated level, and the two deltas — visually
demonstrating that "the delta calculated between adjacent levels
exhibits higher smoothness than the intermediate decimation results".
This bench reproduces the figure numerically: per-signal smoothness
statistics plus per-level mesh stats, and asserts the smoothness
ordering that motivates delta storage.
"""

import pytest

from repro.compress.stats import smoothness
from repro.core import LevelScheme, refactor
from repro.harness import format_table
from repro.mesh.metrics import mesh_stats
from repro.simulations import make_dataset

DATASETS = ["xgc1", "genasis", "cfd"]
SCALE = {"xgc1": 0.4, "genasis": 0.15, "cfd": 1.0}


@pytest.fixture(scope="module", params=DATASETS)
def refactored(request):
    ds = make_dataset(request.param, scale=SCALE[request.param])
    result = refactor(ds.mesh, ds.field, LevelScheme(3), method="serial")
    return ds, result


def signal_rows(result):
    rows = []
    for label, sig in [
        ("L0", result.levels[0]),
        ("L1", result.levels[1]),
        ("L2 (base)", result.levels[2]),
        ("delta1-2", result.deltas[1]),
        ("delta0-1", result.deltas[0]),
    ]:
        s = smoothness(sig)
        rows.append(
            {
                "signal": label,
                "n": s.n,
                "std": s.std,
                "range": s.value_range,
                "total_variation": s.total_variation,
            }
        )
    return rows


def test_fig4_smoothness_table(refactored, record_result):
    ds, result = refactored
    rows = signal_rows(result)
    mesh_rows = [
        {"level": lvl, **mesh_stats(m).as_dict()}
        for lvl, m in enumerate(result.meshes)
    ]
    record_result(
        f"fig4_{ds.name}",
        format_table(
            rows, title=f"Fig.4 ({ds.name}/{ds.variable}): signal smoothness"
        )
        + "\n\n"
        + format_table(
            mesh_rows,
            columns=[
                "level", "num_vertices", "num_triangles", "total_area",
                "mean_edge_length",
            ],
            title="mesh levels",
        ),
    )
    by_name = {r["signal"]: r for r in rows}
    # The paper's observation: delta^{l-(l+1)} is smoother than L^l.
    for lvl in (0, 1):
        delta = by_name[f"delta{lvl}-{lvl + 1}"]
        level = by_name[f"L{lvl}"] if lvl == 0 else by_name["L1"]
        assert delta["std"] < level["std"]
        assert delta["range"] < level["range"]


def test_fig4_mesh_progression(refactored):
    ds, result = refactored
    # d_l = 2^l within tolerance, and every level is a valid mesh.
    n0 = result.meshes[0].num_vertices
    for lvl, mesh in enumerate(result.meshes):
        assert n0 / mesh.num_vertices == pytest.approx(2.0**lvl, rel=0.05)
        assert (mesh.triangle_areas() > 0).all()


def test_fig4_refactor_benchmark(benchmark):
    ds = make_dataset("xgc1", scale=0.15)
    benchmark.pedantic(
        lambda: refactor(ds.mesh, ds.field, LevelScheme(3), method="serial"),
        rounds=3,
        iterations=1,
    )
