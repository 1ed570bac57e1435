#!/usr/bin/env python
"""Quickstart: refactor, place, and progressively read one variable.

The 60-second tour of the Canopus workflow (paper Fig. 1):

1. build a two-tier storage hierarchy (tmpfs-like + Lustre-like);
2. encode a mesh field into a base dataset + two deltas with ZFP-style
   compression, placed across the tiers;
3. read it back progressively: base first (fast tier), then refine
   level by level, watching accuracy improve and I/O cost accumulate.

Run:  python examples/quickstart.py
"""

import tempfile

import numpy as np

from repro import (
    BPDataset,
    CanopusDecoder,
    CanopusEncoder,
    LevelScheme,
    two_tier_titan,
)
from repro.analytics import cross_level_errors
from repro.mesh.generators import annulus


def main() -> None:
    # --- a synthetic simulation output --------------------------------
    mesh = annulus(60, 170)  # ~10k vertices, XGC1-plane-like topology
    v = mesh.vertices
    field = np.sin(3 * v[:, 0]) * np.cos(3 * v[:, 1]) + 0.5 * np.exp(
        -((v[:, 0] - 0.8) ** 2 + v[:, 1] ** 2) / 0.05
    )
    print(f"simulation output: {mesh}, {field.nbytes} bytes of float64")

    with tempfile.TemporaryDirectory() as workdir:
        # --- storage + write path (simulation side) -------------------
        hierarchy = two_tier_titan(
            workdir, fast_capacity=4 << 20, slow_capacity=1 << 32
        )
        encoder = CanopusEncoder(
            hierarchy, codec="zfp", codec_params={"tolerance": 1e-4}
        )
        report, _ = encoder.encode(
            "quickstart", "potential", mesh, field, LevelScheme(num_levels=3)
        )
        print("\nproducts written:")
        for key, nbytes in sorted(report.compressed_bytes.items()):
            print(f"  {key:30s} {nbytes:8d} B  -> {report.placed_tiers[key]}")
        print(
            f"field payloads: {report.payload_bytes} B compressed "
            f"(original {report.original_bytes} B)"
        )

        # --- read path (analytics side) --------------------------------
        decoder = CanopusDecoder(BPDataset.open("quickstart", hierarchy))
        print("\nprogressive retrieval:")
        for state in decoder.walk("potential", 0, pipeline=False):
            err = cross_level_errors(state.mesh, state.field, mesh, field)
            print(
                f"  level {state.level}: {state.mesh.num_vertices:6d} vertices, "
                f"NRMSE vs full accuracy = {err.nrmse:.2e}, "
                f"cumulative simulated I/O = {state.timings.io_seconds * 1e3:.3f} ms"
            )
        print("\nThe base level gives an instant preview from the fast tier;")
        print("each delta read from the slow tier halves the decimation ratio.")


if __name__ == "__main__":
    main()
