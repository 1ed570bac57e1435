"""Figure 8 — quantitative blob evaluation vs. decimation ratio.

Four panels over decimation ratios {None, 2, 4, 8, 16, 32} and the three
detector configurations <minThreshold, maxThreshold, minArea>:

  8a  number of blobs          8b  average blob diameter (px)
  8c  aggregate blob area      8d  overlap ratio vs. full accuracy

Shape assertions follow the paper's §IV-D reading: counts decay with
decimation, the aggressive-threshold Config2 decays fastest, diameters
do not collapse (averaging expands blobs before they vanish), and the
overlap ratio stays high — low-accuracy blobs still mark real
high-potential regions.
"""

import pytest

from repro.analytics import (
    BlobDetectorParams,
    RasterSpec,
    blob_stats,
    detect_blobs,
    overlap_ratio,
    rasterize,
)
from repro.core import LevelScheme, refactor
from repro.harness import format_table
from repro.simulations import make_xgc1

RATIOS = [1, 2, 4, 8, 16, 32]  # 1 = the paper's "None"
CONFIGS = {
    "Config1": BlobDetectorParams(10, 200, min_area=100),
    "Config2": BlobDetectorParams(150, 200, min_area=100),
    "Config3": BlobDetectorParams(10, 200, min_area=200),
}


@pytest.fixture(scope="module")
def sweep():
    ds = make_xgc1(scale=1.0)
    result = refactor(
        ds.mesh, ds.field, LevelScheme(len(RATIOS)), method="serial"
    )
    spec = RasterSpec.from_reference(ds.mesh, ds.field, (256, 256))
    table: dict[str, dict[int, dict]] = {name: {} for name in CONFIGS}
    reference: dict[str, list] = {}
    for lvl, ratio in enumerate(RATIOS):
        img = rasterize(result.meshes[lvl], result.levels[lvl], spec)
        for name, params in CONFIGS.items():
            blobs = detect_blobs(img, params)
            if ratio == 1:
                reference[name] = blobs
            stats = blob_stats(blobs)
            table[name][ratio] = {
                "count": stats.count,
                "avg_diameter": stats.avg_diameter,
                "aggregate_area": stats.aggregate_area,
                "overlap": overlap_ratio(blobs, reference[name]),
            }
    return table


def _panel(table, metric):
    rows = []
    for ratio in RATIOS:
        row = {"ratio": "None" if ratio == 1 else ratio}
        for name in CONFIGS:
            row[name] = table[name][ratio][metric]
        rows.append(row)
    return rows


def test_fig8_tables(sweep, record_result):
    parts = []
    for panel, metric in [
        ("8a number of blobs", "count"),
        ("8b avg blob diameter (px)", "avg_diameter"),
        ("8c aggregate blob area (px^2)", "aggregate_area"),
        ("8d blob overlap ratio", "overlap"),
    ]:
        parts.append(format_table(_panel(sweep, metric), title=f"Fig.{panel}"))
    record_result("fig8_blob_quantitative", "\n\n".join(parts))


def test_fig8a_counts_decay_with_decimation(sweep):
    for name in CONFIGS:
        counts = [sweep[name][r]["count"] for r in RATIOS]
        assert counts[-1] < max(counts[0], 1) or counts[0] == 0
        # No config should *gain* blobs at extreme decimation.
        assert counts[-1] <= counts[0]


def test_fig8a_aggressive_threshold_decays_fastest(sweep):
    """Config2's high threshold is most sensitive to peak erosion."""
    c1 = [sweep["Config1"][r]["count"] for r in RATIOS]
    c2 = [sweep["Config2"][r]["count"] for r in RATIOS]
    assert c2[0] < c1[0]  # stricter config starts lower
    # Config2 loses everything by high decimation while Config1 survives.
    assert c2[-1] == 0
    assert c1[-1] >= 1


def test_fig8b_diameters_stay_comparable(sweep):
    """Averaging expands blobs before they vanish — diameters at moderate
    decimation stay within 2x of the full-accuracy diameter."""
    for name in ("Config1", "Config3"):
        d0 = sweep[name][1]["avg_diameter"]
        for ratio in (2, 4, 8):
            d = sweep[name][ratio]["avg_diameter"]
            if d > 0:
                assert 0.5 * d0 < d < 2.0 * d0


def test_fig8d_overlap_stays_high(sweep):
    """Blobs found in reduced data still point at true features."""
    for name in CONFIGS:
        for ratio in (2, 4, 8):
            assert sweep[name][ratio]["overlap"] >= 0.6


def test_fig8_sweep_benchmark(benchmark):
    ds = make_xgc1(scale=0.3)
    spec = RasterSpec.from_reference(ds.mesh, ds.field, (256, 256))

    def run():
        img = rasterize(ds.mesh, ds.field, spec)
        return detect_blobs(img, CONFIGS["Config1"])

    benchmark.pedantic(run, rounds=3, iterations=1)
