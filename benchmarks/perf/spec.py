"""The benchmark's fixed vocabulary: sizing, workloads, metric names.

Later performance and simplicity PRs are judged by these names, so they
change only in a PR of their own that claims no gain. ``BENCHMARK.json``
at the repo root is the driver-facing subset; ``test_perf_harness.py``
checks that the two agree.
"""

from __future__ import annotations

# -- sizing (library defaults everywhere these do not reach) -------------
SCALE = 1.0  # synthetic XGC1 plane: 20,664 vertices (paper: 20,694)
PLANES = 4
LEVELS = 3
CHUNKS = 8
STEPS = 16
CODEC = "zfp"
CODEC_PARAMS = {"tolerance": 1e-4, "mode": "relative"}
VARIABLES = ("dpot", "apar", "dden")
REQUEST_LEVELS = (2, 1, 0)
DATASET = "xgc1-multi"
CAMPAIGN = "xgc1-steps"
TENANTS = (("tenant-a", "token-a"), ("tenant-b", "token-b"))

#: A tail percentile is printed only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: name -> loop description, connection count, tail percentile at the
#: sized run length, and the one-line reason the workload exists.
WORKLOADS = {
    "write_cold": {
        "loop": "closed, 1 caller",
        "connections": 1,
        "tail_pct": None,
        "why": "first output of a run: fresh hierarchy, empty plan cache, "
        "CanopusEncoder.encode of 3 variables; decimation dominates, "
        "codec/placement/backend should leave it flat",
    },
    "write_steady": {
        "loop": "closed, 1 caller",
        "connections": 1,
        "tail_pct": 75,
        "why": "per-step cost with geometry amortised: write_campaign of 16 "
        "steps on a warm plan cache; codec, delta, catalog and backend "
        "show here and not in write_cold",
    },
    "read_cold": {
        "loop": "closed, 1 caller",
        "connections": 1,
        "tail_pct": 75,
        "why": "paper Fig. 9: caches cleared, new Session, restore 3 variables "
        "at levels 2,1,0; decode and geometry show, result caches must not",
    },
    "serve_hot": {
        "loop": "closed, 2 keep-alive connections, 2 tenants",
        "connections": 2,
        "tail_pct": 99,
        "why": "popular campaign in steady state: 9 resident products over "
        "HTTP; all time is parse, tenant, executor hop, cache lookup, "
        "npy serialise, socket",
    },
    "serve_roi": {
        "loop": "closed, 2 keep-alive connections, 2 tenants",
        "connections": 2,
        "tail_pct": 95,
        "why": "exploration traffic: every request a unique seeded region, so "
        "the restored cache always misses while range and geometry "
        "caches hit; planner + chunk decode per request",
    },
}

ALL = tuple(WORKLOADS)
WRITES = ("write_cold", "write_steady")
SERVED = ("serve_hot", "serve_roi")

#: The ten end-to-end metrics. ``driver`` marks the ones every workload
#: reports as a non-zero number, which is what BENCHMARK.json's
#: ``end_to_end`` list can hold; the rest apply to some workloads only
#: (or are expected to be exactly 0) and live in result.json alone.
#: A wall metric's bound is the smallest of 0.1, 0.15, 0.2, 0.25 that is
#: three times its widest ten-seed spread on any workload (README,
#: "Bounds and spread"); ``setup_s`` gets the largest, as one sample per run.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "applies": ALL, "driver": True,
     "definition": "wall time of everything before the first timed op: "
     "data generation, encoding the read dataset, plan warm-up, server "
     "boot to first 200 on /healthz, warm-up op"},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
     "applies": ALL, "driver": True,
     "definition": "correct ops completed / wall seconds of the timed loop"},
    {"name": "lat_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "applies": ALL, "driver": True,
     "definition": "median op latency from raw sorted samples"},
    {"name": "lat_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "applies": ("write_steady", "read_cold") + SERVED, "driver": False,
     "definition": "the workload's fixed tail percentile (WORKLOADS[..]"
     "['tail_pct']); printed only with >= 10 samples beyond it"},
    {"name": "preview_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1,
     "applies": ("read_cold",), "driver": False,
     "definition": "median time from Session(...) to all three base-level "
     "fields in hand"},
    {"name": "fail_ratio", "unit": "ratio", "better": "lower", "bound": 0.0,
     "applies": ALL, "driver": False,
     "definition": "(failed + refused + incorrect ops) / attempted; "
     "expected exactly 0 (the driver reads it as failed/attempted)"},
    {"name": "sim_io_s_per_op", "unit": "s", "better": "lower", "bound": 0.0,
     "applies": ALL, "driver": False,
     "definition": "SimClock seconds charged per op (write + read); served "
     "workloads read it from /v1/metrics tenant usage"},
    {"name": "tier_bytes_per_op", "unit": "B", "better": "lower",
     "bound": 0.0, "applies": ALL, "driver": False,
     "definition": "bytes moved to/from tiers per op"},
    {"name": "stored_bytes_per_user_byte", "unit": "ratio",
     "better": "lower", "bound": 0.0, "applies": WRITES, "driver": False,
     "definition": "bytes resident on tiers after close (payloads + "
     "geometry + catalog) / raw field bytes"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1,
     "applies": ALL, "driver": True,
     "definition": "VmHWM of the process that runs the program (the "
     "server process for serve_*)"},
]

#: (name, unit, better, how measured, what it is predicted to move).
#: A workload that never enters a layer reports 0 for that layer.
PER_LAYER = [
    ("mesh.decimate_s", "s", "lower",
     "build_plan(mesh, scheme), library default, per op",
     "write_cold ops_per_s, lat_p50_ms; nothing on write_steady"),
    ("mesh.decimate_batched_s", "s", "lower",
     "build_plan(method='batched'), the best existing alternative",
     "what write_cold would pay if the default changed"),
    ("mesh.collapses", "count", "lower",
     "sum of CollapseLineage.num_merges over the default plan",
     "mesh.decimate_s"),
    ("core.replay_s_per_step", "s", "lower",
     "DecimationPlan.coarsen self time per call",
     "write_steady ops_per_s (about 10% with delta)"),
    ("core.delta_s_per_step", "s", "lower",
     "DecimationPlan.deltas_for self time per call",
     "write_steady ops_per_s"),
    ("core.plan_cache_hit_ratio", "ratio", "higher",
     "get_plan_cache().stats around the untraced write loop",
     "1 on write_steady; 2/3 on write_cold (1 miss + 2 hits per op); "
     "a flip means the workload is broken"),
    ("compress.encode_mb_s", "MB/s", "higher",
     "get_codec('zfp', ..).encode on the base and delta arrays",
     "write_steady; not serve_hot"),
    ("compress.decode_mb_s", "MB/s", "higher",
     "decode_auto on the stored base and delta payloads",
     "read_cold, serve_roi; not serve_hot"),
    ("compress.ratio_base", "ratio", "lower",
     "compressed / raw bytes of the base arrays (exact)",
     "stored_bytes_per_user_byte, tier_bytes_per_op, sim_io_s_per_op"),
    ("compress.ratio_delta", "ratio", "lower",
     "compressed / raw bytes of the delta arrays (exact)",
     "stored_bytes_per_user_byte, tier_bytes_per_op, sim_io_s_per_op"),
    ("core.geometry_encode_s", "s", "lower",
     "mesh_to_bytes + LevelMapping.to_bytes per op",
     "write_steady (about 30%)"),
    ("core.geometry_decode_s", "s", "lower",
     "mesh_from_bytes + LevelMapping.from_bytes per op",
     "read_cold lat_p50_ms and preview_p50_ms (about 28%)"),
    ("io.write_s_per_step", "s", "lower",
     "BPDataset.write self time per step (per variable on write_cold)",
     "write_steady"),
    ("io.close_s", "s", "lower", "BPDataset.close per op", "write_steady"),
    ("io.catalog_bytes", "B", "lower",
     "size of the catalog object on the slowest tier (exact)",
     "stored_bytes_per_user_byte"),
    ("io.open_s", "s", "lower", "BPDataset.open per op",
     "read_cold preview_p50_ms, lat_p50_ms"),
    ("io.read_chain_cold_s", "s", "lower",
     "read_many of one variable's chain on an empty range cache",
     "read_cold preview_p50_ms, lat_p50_ms"),
    ("io.fetched_bytes", "B", "lower",
     "engine_stats() bytes_from_tier per op (exact)",
     "tier_bytes_per_op"),
    ("io.range_cache_hit_ratio", "ratio", "higher",
     "engine_stats() hits / lookups",
     "about 0.5 on read_cold (prefetch then read), to 1 on serve_roi"),
    ("storage.sim_write_s.tmpfs", "s", "lower",
     "SimClock.by_tier('write') per op (exact)", "sim_io_s_per_op"),
    ("storage.sim_write_s.lustre", "s", "lower",
     "SimClock.by_tier('write') per op (exact)", "sim_io_s_per_op"),
    ("storage.sim_read_s.tmpfs", "s", "lower",
     "SimClock.by_tier('read') per op (exact)", "sim_io_s_per_op"),
    ("storage.sim_read_s.lustre", "s", "lower",
     "SimClock.by_tier('read') per op (exact)", "sim_io_s_per_op"),
    ("storage.bytes.tmpfs", "B", "lower",
     "SimClock.bytes_moved(tier=..) per op (exact)", "tier_bytes_per_op"),
    ("storage.bytes.lustre", "B", "lower",
     "SimClock.bytes_moved(tier=..) per op (exact)", "tier_bytes_per_op"),
    ("storage.put_calls", "count", "lower",
     "SimClock write events per op (exact)", "sim_io_s_per_op"),
    ("storage.get_calls", "count", "lower",
     "SimClock read events per op (exact)", "sim_io_s_per_op"),
    ("storage.backend_put_mb_s", "MB/s", "higher",
     "FilesystemBackend.put of 1 MB objects",
     "write_steady io.close_s share only"),
    ("storage.backend_get_mb_s", "MB/s", "higher",
     "FilesystemBackend.get of 1 MB objects",
     "about nothing end to end today"),
    ("core.restore_s_per_level", "s", "lower",
     "apply_delta self time per call over the decoded chain",
     "read_cold, serve_roi (about 8%)"),
    ("core.restored_cache_hit_ratio", "ratio", "higher",
     "get_restored_cache().stats() (datanode.restored_cache when served)",
     "0 on read_cold and serve_roi, about 1 on serve_hot"),
    ("core.warm_restore_us", "us", "lower",
     "warm CampaignHandle.restore p50 in-process",
     "the floor under serve_hot lat_p50_ms"),
    ("query.plan_ms", "ms", "lower",
     "CampaignHandle.plan over the serve_roi request stream, in-process",
     "serve_roi lat_p50_ms"),
    ("query.pruned_product_ratio", "ratio", "higher",
     "skipped / all plan decisions over that stream (exact)",
     "serve_roi tier_bytes_per_op"),
    ("session.restore_cold_ms.L2", "ms", "lower",
     "per-level split of the read_cold op (p50)", "preview_p50_ms"),
    ("session.restore_cold_ms.L1", "ms", "lower",
     "per-level split of the read_cold op (p50)", "read_cold lat_p50_ms"),
    ("session.restore_cold_ms.L0", "ms", "lower",
     "per-level split of the read_cold op (p50)", "read_cold lat_p50_ms"),
    ("service.healthz_rtt_ms", "ms", "lower",
     "p50 of GET /healthz on the warm server (HTTP parse + route)",
     "serve_hot lat_p50_ms"),
    ("service.metadata_rtt_ms", "ms", "lower",
     "p50 of the plan endpoint (+ tenants + data-node hop + JSON)",
     "serve_hot lat_p50_ms"),
    ("service.hot_rtt_ms.L2", "ms", "lower",
     "warm restore p50 at the smallest body", "serve_hot ops_per_s"),
    ("service.hot_rtt_ms.L0", "ms", "lower",
     "warm restore p50 at the largest body", "serve_hot ops_per_s"),
    ("service.body_ms_per_mb", "ms/MB", "lower",
     "(rtt.L0 - rtt.L2) / (MB.L0 - MB.L2): serialise + socket per MB",
     "serve_hot ops_per_s; pre-serialised bodies cut the slope"),
    ("service.server_p50_ms", "ms", "lower",
     "median wall_seconds of the restore route in the traced server's "
     "access log (raw samples)",
     "server-side share of lat_p50_ms on both serve_*"),
    ("service.cache_hit_ratio", "ratio", "higher",
     "x-canopus-cache: hit / restore responses",
     "about 1 on serve_hot, 0 on serve_roi"),
    ("service.client_decode_ms", "ms", "lower",
     "p50 time the generator spends in np.load per body",
     "generator share of both serve_*"),
    ("obs.bench_trace_overhead_ratio", "ratio", "lower",
     "traced op p50 / untraced op p50 in the same run",
     "no end-to-end metric (tracing is off in the headline runs)"),
    ("obs.server_tracing_overhead_ratio", "ratio", "lower",
     "serve_hot p50 with --tracing --trace-sample-rate 1.0 / without",
     "no end-to-end metric; the ROADMAP's overhead budget, measured"),
    # End-to-end metrics that cannot sit in BENCHMARK.json's end_to_end
    # list (0 or absent on some workload); exact for library workloads.
    ("sim_io_s_per_op", "s", "lower", "see END_TO_END", "itself"),
    ("tier_bytes_per_op", "B", "lower", "see END_TO_END", "itself"),
    ("stored_bytes_per_user_byte", "ratio", "lower", "see END_TO_END",
     "itself"),
    ("preview_p50_ms", "ms", "lower", "see END_TO_END", "itself"),
]

DRIVER_END_TO_END = [m["name"] for m in END_TO_END if m["driver"]]
PER_LAYER_NAMES = [row[0] for row in PER_LAYER]
