"""Figure 11 — CFD pipeline phase times and full-accuracy restoration.

Same protocol as Fig. 10; the paper sweeps the CFD dataset over the
shallower decimation ratios {2, 4, 8} (the mesh is only 12.6k
triangles).
"""

import pytest

from pipeline_common import assert_pipeline_shape, run_pipeline_sweep

RATIOS = [2, 4, 8]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return run_pipeline_sweep(
        "cfd",
        tmp_path_factory.mktemp("fig11"),
        scale=1.0,
        planes=32,
        ratios=RATIOS,
    )


def test_fig11_tables(sweep, record_result):
    record_result("fig11_cfd_pipeline", "Fig.11 " + sweep.tables())


def test_fig11_pipeline_shape(sweep):
    assert_pipeline_shape(sweep)


def test_fig11_pressure_field_error_bounded(sweep):
    assert sweep.max_restore_error <= 4 * 1e-4 * sweep.field_range


def test_fig11_locate_benchmark(benchmark):
    from repro.mesh import TriangleLocator
    from repro.simulations import make_cfd

    ds = make_cfd(scale=0.5)
    locator = TriangleLocator(ds.mesh)
    pts = ds.mesh.triangle_centroids()
    benchmark(lambda: locator.locate(pts))
