"""Figure 10 — GenASiS pipeline phase times and full-accuracy restoration.

Same protocol as Fig. 9 without the blob-detection stage (the paper
plots I/O / decompression / restoration only for GenASiS), over
decimation ratios {2, 4, 8, 16, 32}.
"""

import pytest

from pipeline_common import (
    assert_pipeline_shape,
    record_bench_json,
    run_pipeline_sweep,
)

RATIOS = [2, 4, 8, 16, 32]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return run_pipeline_sweep(
        "genasis",
        tmp_path_factory.mktemp("fig10"),
        scale=0.15,
        planes=32,
        ratios=RATIOS,
    )


def test_fig10_tables(sweep, record_result):
    record_result("fig10_genasis_pipeline", "Fig.10 " + sweep.tables())
    record_bench_json("fig10_genasis", sweep.to_json())


def test_fig10_pipeline_shape(sweep):
    assert_pipeline_shape(sweep)


def test_fig10_restoration_io_grows_with_ratio_depth(sweep):
    """Restoring L0 from a deeper base reads more delta products, so the
    full-restoration I/O is non-decreasing in the number of levels."""
    io_b = [r["io_s"] for r in sweep.full_restore_rows]
    assert io_b[0] <= io_b[-1] * 1.5  # same order of magnitude
    assert all(io > 0 for io in io_b)


def test_fig10_decimation_benchmark(benchmark):
    from repro.mesh import decimate
    from repro.simulations import make_genasis

    ds = make_genasis(scale=0.05)
    benchmark.pedantic(
        lambda: decimate(ds.mesh, ds.field, ratio=2, method="serial"),
        rounds=3, iterations=1,
    )
