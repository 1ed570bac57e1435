"""Figure 7 — macroscopic view of blob detection at levels L0..L5.

The paper shows the detected blobs (circled) on XGC1 dpot at six
accuracy levels, observing that "most blobs in the full accuracy data
can still be detected using a moderately reduced accuracy" while counts
decay as information is lost. This bench prints the per-level blob
inventory (count, centers, diameters) and asserts those qualitative
facts.
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

N_LEVELS = 6  # L0 .. L5, decimation ratios 1 .. 32
CONFIG1 = BlobDetectorParams(min_threshold=10, max_threshold=200, min_area=100)


@pytest.fixture(scope="module")
def levels():
    ds = make_xgc1(scale=1.0)
    result = refactor(ds.mesh, ds.field, LevelScheme(N_LEVELS), method="serial")
    spec = RasterSpec.from_reference(ds.mesh, ds.field, (256, 256))
    detections = []
    for lvl in range(N_LEVELS):
        img = rasterize(result.meshes[lvl], result.levels[lvl], spec)
        detections.append(detect_blobs(img, CONFIG1))
    return ds, result, detections


def test_fig7_blob_inventory(levels, record_result):
    ds, result, detections = levels
    rows = []
    for lvl, blobs in enumerate(detections):
        s = blob_stats(blobs)
        rows.append(
            {
                "level": f"L{lvl}",
                "ratio": 2**lvl,
                "vertices": result.meshes[lvl].num_vertices,
                "blobs": s.count,
                "avg_diameter_px": s.avg_diameter,
                "overlap_vs_L0": overlap_ratio(blobs, detections[0]),
            }
        )
    record_result(
        "fig7_blob_macroscopic",
        format_table(rows, title="Fig.7: blob detection at L0..L5 (Config1)"),
    )

    counts = [len(b) for b in detections]
    # Information loss erodes detections overall (L5 clearly below L0)...
    assert counts[-1] < counts[0]
    # ...but a moderately reduced accuracy (<= 4x) keeps most blobs.
    assert counts[2] >= 0.6 * counts[0]


def test_fig7_blobs_sit_near_plasma_edge(levels):
    """Detected blobs localize where the physics puts them.

    Every high-confidence blob (seen at many thresholds) must sit near
    the outer (plasma-edge) radius where the generator seeds them; a few
    low-repeatability detections may come from background turbulence.
    """
    ds, _, detections = levels
    spec = RasterSpec.from_reference(ds.mesh, ds.field, (256, 256))
    lo, hi = spec.bounds
    radii = []
    for blob in detections[0]:
        x = lo[0] + blob.center[0] / 256 * (hi[0] - lo[0])
        y = lo[1] + blob.center[1] / 256 * (hi[1] - lo[1])
        r = (x**2 + y**2) ** 0.5
        radii.append((r, blob.repeatability))
        if blob.repeatability >= 5:
            assert 0.6 < r < 1.05, (r, blob.repeatability)
    near_edge = sum(1 for r, _ in radii if 0.6 < r < 1.05)
    assert near_edge >= 0.6 * len(radii)

def test_fig7_low_accuracy_blobs_overlap_full(levels):
    _, _, detections = levels
    for lvl in range(1, 4):
        assert overlap_ratio(detections[lvl], detections[0]) >= 0.7


def test_fig7_detection_benchmark(benchmark, levels):
    ds, result, _ = levels
    spec = RasterSpec.from_reference(ds.mesh, ds.field, (256, 256))
    img = rasterize(ds.mesh, ds.field, spec)
    benchmark(lambda: detect_blobs(img, CONFIG1))
