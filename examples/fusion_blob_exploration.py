#!/usr/bin/env python
"""Progressive blob exploration on synthetic XGC1 fusion data (paper §IV-D).

The workflow the paper motivates: a fusion scientist scans the
electrostatic potential (dpot) for high-energy blobs. With Canopus they

1. detect blobs on the low-accuracy base (instant, fast tier);
2. automatically refine until the blob count stabilizes;
3. zoom into one blob's neighborhood with a *focused* (region-of-interest)
   refinement that reads only the delta chunks covering that region.

Run:  python examples/fusion_blob_exploration.py
"""

import tempfile

import numpy as np

from repro import BPDataset, CanopusDecoder, CanopusEncoder, LevelScheme, two_tier_titan
from repro.analytics import (
    BlobDetectorParams,
    RasterSpec,
    blob_stats,
    detect_blobs,
    overlap_ratio,
    rasterize,
)
from repro.simulations import make_xgc1

CONFIG1 = BlobDetectorParams(min_threshold=10, max_threshold=200, min_area=100)


def main() -> None:
    dataset = make_xgc1(scale=0.5)
    print(dataset.description)
    spec = RasterSpec.from_reference(dataset.mesh, dataset.field, (256, 256))
    reference_blobs = detect_blobs(
        rasterize(dataset.mesh, dataset.field, spec), CONFIG1
    )
    print(f"full-accuracy reference: {len(reference_blobs)} blobs\n")

    with tempfile.TemporaryDirectory() as workdir:
        hierarchy = two_tier_titan(
            workdir, fast_capacity=8 << 20, slow_capacity=1 << 34
        )
        # Chunked deltas enable the focused retrieval in step 3.
        encoder = CanopusEncoder(
            hierarchy,
            codec="zfp",
            codec_params={"tolerance": 1e-4, "mode": "relative"},
            chunks=16,
        )
        encoder.encode(
            "fusion", "dpot", dataset.mesh, dataset.field, LevelScheme(4)
        )

        decoder = CanopusDecoder(BPDataset.open("fusion", hierarchy))
        walk = decoder.walk("dpot", 0, pipeline=False)

        # -- step 1+2: refine until blob count stops changing ----------
        def count_blobs(state) -> int:
            img = rasterize(state.mesh, state.plane(), spec)
            return len(detect_blobs(img, CONFIG1))

        print("progressive refinement:")
        state = next(walk)
        last_count = count_blobs(state)
        print(f"  level {state.level} (base): {last_count} blobs")
        for state in walk:
            count = count_blobs(state)
            stats = blob_stats(
                detect_blobs(rasterize(state.mesh, state.plane(), spec), CONFIG1)
            )
            print(
                f"  level {state.level}: {count} blobs, "
                f"avg diameter {stats.avg_diameter:.1f} px, "
                f"delta RMS {state.last_delta_rms:.2e}"
            )
            if count == last_count:
                break
            last_count = count
        print(f"stopped at level {state.level} (blob count stabilized)")

        blobs = detect_blobs(
            rasterize(state.mesh, state.plane(), spec), CONFIG1
        )
        print(
            "overlap with full-accuracy blobs: "
            f"{overlap_ratio(blobs, reference_blobs):.0%}\n"
        )

        # -- step 3: focused high-accuracy zoom on the biggest blob ----
        if blobs and state.level > 0:
            target = blobs[0]
            lo_b, hi_b = spec.bounds
            px = np.array(
                [
                    lo_b[0] + target.center[0] / spec.shape[1] * (hi_b[0] - lo_b[0]),
                    lo_b[1] + target.center[1] / spec.shape[0] * (hi_b[1] - lo_b[1]),
                ]
            )
            half = 0.25
            clock = hierarchy.clock
            decoder.prefetch_geometry("dpot")  # one-time static geometry
            before = clock.bytes_moved(op="read")
            state = decoder.refine(state, region=(px - half, px + half))
            roi_bytes = clock.bytes_moved(op="read") - before
            refined = int(state.refined_mask.sum())
            print(
                f"focused refinement around blob at {px.round(2)}: "
                f"read {roi_bytes} B of deltas, refined {refined}/"
                f"{len(state.field)} vertices"
            )
            print("(a full refinement would have read every chunk)")


if __name__ == "__main__":
    main()
