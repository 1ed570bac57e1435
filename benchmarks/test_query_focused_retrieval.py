"""Extension bench — query-driven and focused (ROI) retrieval.

Paper §III-E: "the initial analysis on the low accuracy data can provide
guidance to subsequent, higher fidelity data explorations, and
facilitate focused data retrieval, e.g., reading smaller subsets of high
accuracy data". This bench quantifies both mechanisms on XGC1:

* ROI refinement: refine only the delta chunks whose bounding box
  intersects the neighborhood of the strongest base-level feature;
* statistics pruning: skip delta chunks whose recorded |max| cannot
  change any value by more than a significance threshold.
"""

import numpy as np
import pytest

from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.harness import format_table
from repro.io import BPDataset
from repro.session import Session
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

CHUNKS = 36


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    ds = make_xgc1(scale=0.5)
    h = two_tier_titan(
        tmp_path_factory.mktemp("query"), fast_capacity=32 << 20,
        slow_capacity=1 << 34,
    )
    enc = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": 1e-4, "mode": "relative"},
        chunks=CHUNKS, method="serial",
    )
    enc.encode("q", "dpot", ds.mesh, ds.field, LevelScheme(3))
    return ds, h


def _fresh_decoder(h):
    dec = CanopusDecoder(BPDataset.open("q", h))
    dec.prefetch_geometry("dpot")
    return dec


def test_focused_retrieval_table(setup, record_result):
    ds, h = setup
    rows = []

    dec = _fresh_decoder(h)
    base = dec.read_base("dpot")
    before = h.clock.bytes_moved(op="read")
    full = dec.refine(base)
    full_bytes = h.clock.bytes_moved(op="read") - before
    rows.append({"retrieval": "full refinement", "delta_bytes": full_bytes,
                 "vertices_refined": int(full.refined_mask.sum())})

    for half in (0.4, 0.2, 0.1):
        dec = _fresh_decoder(h)
        base = dec.read_base("dpot")
        center = base.mesh.vertices[int(np.argmax(base.field))]
        before = h.clock.bytes_moved(op="read")
        roi = dec.refine(base, region=(center - half, center + half))
        nbytes = h.clock.bytes_moved(op="read") - before
        rows.append(
            {
                "retrieval": f"ROI half-width {half}",
                "delta_bytes": nbytes,
                "vertices_refined": int(roi.refined_mask.sum()),
            }
        )
    record_result(
        "query_focused_retrieval",
        format_table(rows, title="Focused retrieval: delta bytes read"),
    )
    # Smaller windows read less.
    sizes = [r["delta_bytes"] for r in rows]
    assert sizes[0] > sizes[1] > sizes[2] > sizes[3]


def test_roi_region_is_exact(setup):
    ds, h = setup
    dec_roi = _fresh_decoder(h)
    base = dec_roi.read_base("dpot")
    center = base.mesh.vertices[int(np.argmax(base.field))]
    roi = dec_roi.refine(base, region=(center - 0.2, center + 0.2))

    dec_full = _fresh_decoder(h)
    full = dec_full.refine(dec_full.read_base("dpot"))
    mask = roi.refined_mask
    assert mask.any()
    assert np.allclose(roi.field[mask], full.field[mask])


def test_query_benchmark(benchmark, setup):
    _, h = setup
    planner = Session(h).open("q").planner
    benchmark(
        lambda: planner.plan_restore("dpot", level=0, min_significance=1e-2)
    )
