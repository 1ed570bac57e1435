"""Extension bench — progressive isocontour convergence.

Beyond blob detection, the other routine view of dpot is its
equipotential contours. This bench tracks how the contours of the
restored field converge to the full-accuracy contours as deltas are
applied — a visualization-oriented accuracy metric complementing the
RMSE-based auto-termination of §III-E.
"""

import numpy as np
import pytest

from repro.analytics import contour_distance, extract_contour
from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.harness import format_table
from repro.io import BPDataset
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

ISO_QUANTILE = 0.75  # contour the large-scale background, which survives
# decimation at every level (blob peaks erode away by ratio 8)


@pytest.fixture(scope="module")
def convergence(tmp_path_factory):
    ds = make_xgc1(scale=0.5)
    h = two_tier_titan(
        tmp_path_factory.mktemp("contour"), fast_capacity=32 << 20,
        slow_capacity=1 << 34,
    )
    enc = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": 1e-5, "mode": "relative"},
        method="serial",
    )
    enc.encode("iso", "dpot", ds.mesh, ds.field, LevelScheme(5))

    isovalue = float(np.quantile(ds.field, ISO_QUANTILE))
    reference = extract_contour(ds.mesh, ds.field, isovalue)

    decoder = CanopusDecoder(BPDataset.open("iso", h))
    rows = []
    for state in decoder.walk("dpot", 0, pipeline=False):
        contour = extract_contour(state.mesh, state.plane(), isovalue)
        rows.append(
            {
                "level": state.level,
                "ratio": 2**state.level,
                "segments": contour.num_segments,
                "length": contour.total_length(),
                "drift": contour_distance(contour, reference),
            }
        )
    return ds, reference, rows


def test_contour_convergence_table(convergence, record_result):
    ds, reference, rows = convergence
    record_result(
        "contour_convergence",
        format_table(
            rows,
            title=(
                "Progressive isocontour convergence (dpot, isovalue at "
                f"the {ISO_QUANTILE:.0%} quantile; reference length "
                f"{reference.total_length():.3f})"
            ),
        ),
    )


def test_drift_decreases_with_refinement(convergence):
    _, _, rows = convergence
    drifts = [r["drift"] for r in rows]
    # Convergence from base to full accuracy (levels iterate coarse →
    # fine): the final drift is far below the base drift, and no
    # refinement step makes things substantially worse (tiny plateaus at
    # machine scale are tolerated).
    assert np.isfinite(drifts).all()
    assert drifts[-1] <= drifts[0] / 5
    finite = [d for d in drifts if d > 1e-9]
    assert all(b <= a * 1.5 for a, b in zip(finite, finite[1:]))


def test_full_accuracy_contour_matches(convergence):
    _, reference, rows = convergence
    final = rows[-1]
    assert final["drift"] < 1e-3
    assert final["length"] == pytest.approx(reference.total_length(), rel=0.01)


def test_contour_benchmark(benchmark, convergence):
    ds, _, _ = convergence
    isovalue = float(np.quantile(ds.field, ISO_QUANTILE))
    benchmark(lambda: extract_contour(ds.mesh, ds.field, isovalue))
