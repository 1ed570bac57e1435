"""Durable elastic storage under replica loss (kill-a-mirror trace).

The durability argument for the replicated sharded backend, measured
end to end: encode an XGC1-scale campaign onto a two-tier hierarchy
whose leaves are mirrored twice, replay a progressive-restore trace,
then *kill one whole mirror mid-trace* and keep going.

Asserted:

* every restore after the kill is bit-identical to the healthy run —
  replica failover, not luck;
* the degraded trace's simulated I/O time is bounded (failover routes
  reads to the surviving mirror; it must not blow up the trace);
* ``repair`` (the ``repro fsck --repair`` machinery) restores full
  redundancy: afterwards every tier backend verifies clean and a fresh
  trace still restores bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.harness import format_table
from repro.io import BPDataset, repair_backends
from repro.simulations import make_xgc1
from repro.storage import kill_replica, two_tier_titan

SCALE = 0.5
LEVELS = 3
CHUNKS = 4
REL_TOL = 1e-4
SHARDS = 2
REPLICAS = 2
CHUNK_SIZE = 64 << 10
#: Generous failover budget: the degraded trace may not take more than
#: this multiple of the healthy trace (plus a small absolute floor for
#: timer noise on tiny sim totals).
MAX_SLOWDOWN = 8.0
SLOWDOWN_FLOOR_SECONDS = 2.0

TITAN_KW = dict(
    backend="sharded", shards=SHARDS, chunk_size=CHUNK_SIZE,
    replicas=REPLICAS, fast_capacity=48 << 20, slow_capacity=1 << 38,
)


def _restore_levels(hierarchy):
    """One progressive session: coarse-to-fine restores, fresh handles."""
    fields = {}
    for level in (LEVELS - 1, 1, 0):
        ds = BPDataset.open("camp", hierarchy, cache_bytes=0)
        fields[level] = CanopusDecoder(ds).restore_to(
            "dpot", level, pipeline=False
        ).field
    return fields


@pytest.fixture(scope="module")
def durability_run(tmp_path_factory):
    src = make_xgc1(scale=SCALE, seed=23)
    root = tmp_path_factory.mktemp("durability")
    hierarchy = two_tier_titan(root, **TITAN_KW)
    CanopusEncoder(
        hierarchy, codec="zfp",
        codec_params={"tolerance": REL_TOL, "mode": "relative"},
        chunks=CHUNKS,
    ).encode("camp", "dpot", src.mesh, src.field, LevelScheme(LEVELS))

    # --- healthy trace --------------------------------------------------
    h = two_tier_titan(root, **TITAN_KW)
    before = h.clock.elapsed
    healthy_fields = _restore_levels(h)
    healthy_seconds = h.clock.elapsed - before

    # --- kill one mirror mid-trace --------------------------------------
    h = two_tier_titan(root, **TITAN_KW)
    before = h.clock.elapsed
    ds = BPDataset.open("camp", h, cache_bytes=0)
    first = CanopusDecoder(ds).restore_to(
        "dpot", LEVELS - 1, pipeline=False
    ).field
    wiped = sum(
        kill_replica(t.backend, 0) for t in h.tiers
        if t.backend.list_objects()
    )
    degraded_fields = _restore_levels(h)
    degraded_fields[LEVELS - 1] = first
    degraded_seconds = h.clock.elapsed - before
    degraded_tiers = [t.name for t in h.tiers if t.degraded]

    # --- repair back to full redundancy ---------------------------------
    # The degraded trace's failover reads already read-repaired every
    # object they touched onto mirror 0; kill mirror 1 so the
    # anti-entropy sweep has damage that no read has healed.
    for t in h.tiers:
        if t.backend.list_objects():
            kill_replica(t.backend, 1)
    repair_actions = repair_backends(h)
    problems_after = {
        t.name: t.backend.verify() for t in h.tiers
    }
    repaired_fields = _restore_levels(h)

    return {
        "vertices": src.mesh.num_vertices,
        "healthy_fields": healthy_fields,
        "healthy_seconds": healthy_seconds,
        "wiped_objects": wiped,
        "degraded_fields": degraded_fields,
        "degraded_seconds": degraded_seconds,
        "degraded_tiers": degraded_tiers,
        "repair_actions": repair_actions,
        "problems_after_repair": problems_after,
        "repaired_fields": repaired_fields,
    }


def test_replica_loss_is_survivable_and_bit_identical(durability_run):
    assert durability_run["wiped_objects"] > 0
    for level, ref in durability_run["healthy_fields"].items():
        np.testing.assert_array_equal(
            ref, durability_run["degraded_fields"][level],
            err_msg=f"degraded restore diverged at level {level}",
        )
    assert durability_run["degraded_tiers"], (
        "failover reads must flip the degraded flag"
    )


def test_degraded_slowdown_is_bounded(durability_run):
    healthy = durability_run["healthy_seconds"]
    degraded = durability_run["degraded_seconds"]
    bound = max(MAX_SLOWDOWN * healthy, healthy + SLOWDOWN_FLOOR_SECONDS)
    assert degraded <= bound, (
        f"degraded trace {degraded:.4f}s exceeds bound {bound:.4f}s "
        f"(healthy {healthy:.4f}s)"
    )


def test_repair_restores_redundancy(durability_run):
    assert durability_run["repair_actions"], (
        "repair after replica loss must act"
    )
    for tier, problems in durability_run["problems_after_repair"].items():
        assert problems == [], f"{tier} still damaged: {problems}"
    for level, ref in durability_run["healthy_fields"].items():
        np.testing.assert_array_equal(
            ref, durability_run["repaired_fields"][level],
        )


def test_report(durability_run, record_result):
    healthy = durability_run["healthy_seconds"]
    degraded = durability_run["degraded_seconds"]
    rows = [
        {
            "phase": "healthy trace (all mirrors up)",
            "sim_io_s": f"{healthy:.4f}",
        },
        {
            "phase": "mirror killed mid-trace (failover reads)",
            "sim_io_s": f"{degraded:.4f}",
        },
        {
            "phase": "post-repair trace (redundancy restored)",
            "sim_io_s": "-",
        },
    ]
    record_result(
        "durability_replica_loss",
        format_table(
            rows,
            title=(
                f"replica-loss trace, xgc1 scale {SCALE} "
                f"({durability_run['vertices']} vertices), "
                f"{SHARDS} shards x {REPLICAS} replicas — "
                f"degraded/healthy = {degraded / healthy:.2f}"
            ),
        ),
    )
