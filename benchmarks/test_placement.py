"""Cost-based placement vs the seed fastest-first walk (skewed access).

The seed placed products with the paper's §III-D walk: fastest tier
first, bypass when full. Under a *skewed* read workload that is the
wrong bet — whatever was encoded first hogs the fast tier, and the
variable analysts actually hammer is served from Lustre forever.

This benchmark encodes a Fig.-9-scale XGC1 campaign with a cold
variable first (the walk fills tmpfs with it) and a hot variable second
(bypassed to Lustre), then replays a skewed read trace both ways:

* **seed walk** — static placement, every hot restore reads Lustre;
* **cost-based** — the :class:`~repro.storage.placement.PlacementEngine`
  re-plans placement from the observed
  :class:`~repro.storage.policy.AccessTracker` statistics
  (``TierManager.replan`` — the elastic re-tiering the paper defers to
  future work) and the same trace is replayed against the new layout.

Asserted: the cost-based layout serves the trace in strictly less
simulated I/O time (threshold below), and restores stay bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.harness import format_table
from repro.harness.experiment import stack_planes
from repro.io import BPDataset
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan
from repro.storage.policy import TierManager

SCALE = 0.5  # Fig. 9's XGC1 scale
PLANES = 2
LEVELS = 3
CHUNKS = 4
REL_TOL = 1e-4
HOT_SESSIONS = 5  # hot variable read 5x as often as the cold one
MAX_COST_FRACTION = 0.7  # cost-based trace must cost < 70% of the walk's


def _restore(hierarchy, name):
    ds = BPDataset.open(name, hierarchy, cache_bytes=0)
    return CanopusDecoder(ds).restore_to("dpot", 0, pipeline=False).field


def _trace_seconds(hierarchy):
    """Simulated I/O seconds for the skewed trace; returns (s, fields)."""
    clock = hierarchy.clock
    before = clock.elapsed
    fields = {}
    for _ in range(HOT_SESSIONS):
        fields["hot"] = _restore(hierarchy, "hot")
    fields["cold"] = _restore(hierarchy, "cold")
    return clock.elapsed - before, fields


@pytest.fixture(scope="module")
def placement_run(tmp_path_factory):
    src = make_xgc1(scale=SCALE, seed=11)
    base = stack_planes(src, PLANES)
    rng = np.random.default_rng(11)
    cold_field = base
    hot_field = 0.7 * base + 0.05 * rng.standard_normal(base.shape)

    def encoder_for(h):
        return CanopusEncoder(
            h, codec="zfp",
            codec_params={"tolerance": REL_TOL, "mode": "relative"},
            chunks=CHUNKS,
        )

    # Calibrate: how many compressed bytes does the cold variable take?
    probe = two_tier_titan(
        tmp_path_factory.mktemp("probe"), fast_capacity=1 << 34,
        slow_capacity=1 << 38,
    )
    report, _ = encoder_for(probe).encode(
        "probe", "cold", src.mesh, cold_field, LevelScheme(LEVELS)
    )
    cold_bytes = sum(report.compressed_bytes.values())

    # Fast tier sized so the cold campaign (encoded first) fills it and
    # the walk bypasses the hot campaign down to Lustre. The campaigns
    # are separate datasets so each has its own subfiles — the unit the
    # migration machinery moves between tiers.
    hierarchy = two_tier_titan(
        tmp_path_factory.mktemp("placement"),
        fast_capacity=int(1.15 * cold_bytes) + (64 << 10),
        slow_capacity=1 << 38,
    )
    enc = encoder_for(hierarchy)
    enc.encode("cold", "dpot", src.mesh, cold_field, LevelScheme(LEVELS))
    enc.encode("hot", "dpot", src.mesh, hot_field, LevelScheme(LEVELS))

    ds = BPDataset.open("hot", hierarchy)
    hot_subfiles = sorted({ds.inq(k).subfile for k in ds.keys()})
    walk_tiers = {s: hierarchy.locate(s).name for s in hot_subfiles}

    # --- seed walk: static placement, skewed trace ----------------------
    walk_seconds, walk_fields = _trace_seconds(hierarchy)

    # --- cost-based: replan from observed reads, replay the trace -------
    mgr = TierManager(hierarchy, high_water=0.9, low_water=0.6)
    now = hierarchy.clock.elapsed
    for sub in hot_subfiles:
        for _ in range(HOT_SESSIONS):
            mgr.tracker.note(sub, now)
    moves = mgr.replan()
    cost_seconds, cost_fields = _trace_seconds(hierarchy)
    cost_tiers = {s: hierarchy.locate(s).name for s in hot_subfiles}

    return {
        "walk_seconds": walk_seconds,
        "cost_seconds": cost_seconds,
        "moves": moves,
        "walk_tiers": walk_tiers,
        "cost_tiers": cost_tiers,
        "walk_fields": walk_fields,
        "cost_fields": cost_fields,
        "vertices": src.mesh.num_vertices,
    }


def test_walk_starves_the_hot_variable(placement_run):
    # Precondition for the whole comparison: the seed walk left the hot
    # variable on the slow tier because cold data got there first.
    assert "lustre" in set(placement_run["walk_tiers"].values())


def test_replan_promotes_hot_data(placement_run):
    moves = placement_run["moves"]
    assert moves, "replan must migrate something under skewed access"
    promoted = {m[0] for m in moves if m[2] == "tmpfs"}
    assert promoted & set(placement_run["cost_tiers"]), (
        "at least one hot subfile must reach tmpfs"
    )
    assert "tmpfs" in set(placement_run["cost_tiers"].values())


def test_restores_bit_identical_across_layouts(placement_run):
    for var in ("hot", "cold"):
        np.testing.assert_array_equal(
            placement_run["walk_fields"][var],
            placement_run["cost_fields"][var],
        )


def test_cost_beats_walk_and_report(placement_run, record_result):
    walk_s = placement_run["walk_seconds"]
    cost_s = placement_run["cost_seconds"]
    rows = [
        {
            "policy": "seed walk (fastest-first, static)",
            "sim_read_s": f"{walk_s:.4f}",
            "hot_tier": ",".join(
                sorted(set(placement_run["walk_tiers"].values()))
            ),
        },
        {
            "policy": "cost-based (replan from access stats)",
            "sim_read_s": f"{cost_s:.4f}",
            "hot_tier": ",".join(
                sorted(set(placement_run["cost_tiers"].values()))
            ),
        },
    ]
    record_result(
        "placement_skewed",
        format_table(
            rows,
            title=(
                f"skewed trace ({HOT_SESSIONS}:1 hot:cold), xgc1 scale "
                f"{SCALE} ({placement_run['vertices']} vertices, "
                f"{PLANES} planes) — cost/walk = {cost_s / walk_s:.2f}"
            ),
        ),
    )
    assert cost_s < MAX_COST_FRACTION * walk_s, (
        f"cost-based trace {cost_s:.4f}s not under "
        f"{MAX_COST_FRACTION:.0%} of walk {walk_s:.4f}s"
    )
