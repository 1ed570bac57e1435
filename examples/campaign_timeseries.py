#!/usr/bin/env python
"""Timestep campaign: write once per step, analyze the whole series.

Models the paper's production workload — a simulation emitting one field
snapshot per timestep, "written once but analyzed a number of times".
The campaign writer refactors the (static) mesh geometry once and stores
only base + delta payloads per step; the reader then runs a cross-step
analysis (tracking the strongest blob through time) at a *chosen*
accuracy, amortizing geometry I/O over the series.

Run:  python examples/campaign_timeseries.py
"""

import tempfile

import numpy as np

from repro.api import Session
from repro.core import CampaignWriter, LevelScheme
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

N_STEPS = 6


def main() -> None:
    ds = make_xgc1(scale=0.3)
    rng = np.random.default_rng(1)
    print(f"simulating {N_STEPS} timesteps of {ds.variable!r} on {ds.mesh}\n")

    with tempfile.TemporaryDirectory() as workdir:
        hierarchy = two_tier_titan(
            workdir, fast_capacity=16 << 20, slow_capacity=1 << 34
        )

        # --- simulation side: one write per step ----------------------
        writer = CampaignWriter(
            hierarchy, "campaign", ds.variable, ds.mesh, LevelScheme(3),
            codec="zfp", codec_params={"tolerance": 1e-4},
        )
        print(f"geometry refactored once in {writer.geometry_seconds:.2f} s")
        total_in = total_out = 0
        with writer:
            for step in range(N_STEPS):
                # Blobs drift and breathe a little between steps.
                drift = 0.08 * np.sin(
                    ds.mesh.vertices[:, 0] * 3 + 0.4 * step
                ) * np.cos(ds.mesh.vertices[:, 1] * 3 - 0.2 * step)
                field = ds.field * (1 + 0.02 * step) + drift
                field += rng.normal(0, 5e-4, ds.mesh.num_vertices)
                rep = writer.write_step(step, field)
                total_in += rep.original_bytes
                total_out += rep.compressed_bytes
                print(
                    f"  step {step}: {rep.compressed_bytes:7d} B "
                    f"({rep.reduction:.1f}x), refactor {rep.refactor_seconds*1e3:.0f} ms"
                )
        print(f"campaign total: {total_out} / {total_in} B "
              f"({total_in/total_out:.1f}x reduction)\n")

        # --- analytics side: trajectory at two accuracies -------------
        # A timestep is a data coordinate like a level, so the planner,
        # the shared caches and the HTTP read tier all serve it. The
        # restored cache is off here: every pass charges its own reads.
        with Session(hierarchy, use_restored_cache=False) as session:
            campaign = session.open("campaign")
            steps = campaign.describe()["variables"][ds.variable]["steps"]
            chains = [campaign.chain(ds.variable, step=s) for s in steps]
            geometry = campaign.decoder.prefetch_geometry(chains[0])
            print(
                "geometry prefetched once: "
                f"{geometry.io_seconds * 1e3:.2f} ms simulated I/O"
            )
            for level, label in [(2, "base (quick scan)"), (0, "full accuracy")]:
                # One prefetch batch for every step, then the walks.
                before = hierarchy.clock.elapsed
                series = campaign.restore_chains(chains, level).values()
                io = hierarchy.clock.elapsed - before
                maxima = [float(data.field.max()) for data in series]
                trend = " -> ".join(f"{m:.3f}" for m in maxima)
                print(f"\n{label} (level {level}): per-series I/O {io*1e3:.3f} ms")
                print(f"  max(dpot) per step: {trend}")
            print(
                "\nThe quick scan shows the amplitude trend at a fraction of "
                "the I/O; full accuracy confirms it for the interesting steps."
            )

            state = campaign.restore(ds.variable, step=steps[-1], tolerance=1e-2)
            print(
                f"\nstep {steps[-1]} to tolerance 1e-2 stopped at "
                f"level {state.level} ({state.var!r})"
            )


if __name__ == "__main__":
    main()
