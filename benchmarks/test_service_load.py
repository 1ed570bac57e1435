"""Service elasticity: hundreds of concurrent clients vs serial reads.

The pre-service world is every consumer linking the library and
restoring for itself — a fresh decoder per read, no shared restored
state, one request at a time. The read tier's pitch is that one
deployment absorbs hundreds of concurrent analytics clients against
the same campaign, amortizing decode work through the process-wide
restored-level cache. This harness boots a :class:`CanopusService` on
its own thread (fig9-scale XGC1 campaign, 3 variables, 3 levels) and
measures

* the **serial library baseline** — one consumer, one request at a
  time, a fresh engine per request with the restored cache off (the
  seed world every service request would otherwise pay);
* a **serial HTTP baseline** — one keep-alive client against the warm
  service (recorded for transparency; shows per-request wire cost);
* the **concurrent run** — ``REPRO_SERVICE_CLIENTS`` (default 200)
  async clients split across four tenants, each issuing a
  deterministic (var, level) mix.

Every concurrent payload is verified bit-for-bit against a direct
in-process :class:`DecodeEngine` restore, and the aggregate concurrent
throughput must be ≥3× the serial library baseline. The structured
result (all reports, p50/p95/p99 latency via the obs bucketed
histograms, per-tenant ``repro.obs`` counters) lands in
``benchmarks/results/BENCH_service.json``.

A second, *traced* pass re-runs the same concurrent mix against a
fresh service with ``tracing=True`` and ``sample_rate=1.0`` (the
headline numbers above stay untraced — the disabled-tracing fast path
is the thing being benchmarked). Its assertions are the PR's
end-to-end attribution acceptance: every kept request is a single
span tree rooted on the service loop and spanning data-node/engine
threads, and the per-request SimClock read-seconds sum (within
rounding) to the per-tenant ``service.sim_read_seconds`` counters.
The slowest request's span tree is exported as a Chrome/Perfetto
trace (``results/trace_sample.json``) for the CI artifact.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.core import CanopusEncoder, LevelScheme
from repro.core.restored_cache import get_geometry_cache, get_restored_cache
from repro.harness import format_table, json_report
from repro.harness.experiment import stack_planes
from repro.harness.report import write_json_report
from repro.io import BPDataset
from repro.obs import get_registry
from repro.obs.sinks import write_chrome_trace
from repro.service import CanopusService, TenantConfig
from repro.service.loadgen import LoadReport, ServiceThread, run_load, serial_baseline
from repro.session import Session
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

from pipeline_common import RESULTS_DIR

SCALE = 0.5  # Fig. 9's XGC1 scale
PLANES = 4
LEVELS = 3
CHUNKS = 8
VARIABLES = ["dpot", "apar", "dden"]
REQUEST_LEVELS = [0, 1, 2]
REL_TOL = 1e-4
MIN_SPEEDUP = 3.0

#: Concurrent client count; CI's smoke job scales this down to 50.
CLIENTS = int(os.environ.get("REPRO_SERVICE_CLIENTS", "200"))
REQUESTS_PER_CLIENT = int(os.environ.get("REPRO_SERVICE_REQUESTS", "3"))
SERIAL_REQUESTS = int(os.environ.get("REPRO_SERVICE_SERIAL_REQUESTS", "45"))

TENANTS = [
    TenantConfig(name=f"tenant-{i}", token=f"tok-{i}") for i in range(4)
]


def _serial_library_baseline(
    hierarchy, expected: dict[tuple[str, int], np.ndarray], requests: int
):
    """The pre-service world: fresh engine per request, no shared cache."""
    import time

    from repro.core.decode_engine import DecodeEngine

    mismatches = 0
    t0 = time.perf_counter()
    for i in range(requests):
        var = VARIABLES[i % len(VARIABLES)]
        level = REQUEST_LEVELS[i % len(REQUEST_LEVELS)]
        engine = DecodeEngine(
            BPDataset.open("fig9-multi", hierarchy),
            use_restored_cache=False, pipeline=False,
        )
        state = engine.restore(var, level)
        if not np.array_equal(state.field, expected[(var, level)]):
            mismatches += 1
    wall = time.perf_counter() - t0
    return {
        "requests": requests,
        "mismatches": mismatches,
        "wall_seconds": wall,
        "rps": requests / wall if wall else 0.0,
    }


def _traced_metrics(load_results) -> dict:
    """JSON-ready summary of the traced pass for BENCH_service.json."""
    traces = load_results["traced_traces"]
    usage = load_results["traced_usage"]
    return {
        "requests": sum(r.requests for r in load_results["traced_reports"]),
        "failures": sum(r.failures for r in load_results["traced_reports"]),
        "kept_traces": len(traces),
        "buffer": load_results["traced_stats"],
        "trace_sim_read_seconds": sum(t.sim_read_seconds for t in traces),
        "tenant_sim_read_seconds": sum(
            u["total_sim_read_seconds"] for u in usage.values()
        ),
        "threads": sorted({s.thread for t in traces for s in t.spans}),
    }


@pytest.fixture(scope="module")
def load_results(tmp_path_factory):
    src = make_xgc1(scale=SCALE, seed=9)
    base = stack_planes(src, PLANES)
    rng = np.random.default_rng(9)
    fields = {
        "dpot": base,
        "apar": 0.5 * base + 0.05 * rng.standard_normal(base.shape),
        "dden": np.abs(base) + 0.01,
    }

    root = tmp_path_factory.mktemp("service-load")
    hierarchy = two_tier_titan(
        root, fast_capacity=256 << 20, slow_capacity=1 << 38
    )
    encoder = CanopusEncoder(
        hierarchy,
        codec="zfp",
        codec_params={"tolerance": REL_TOL, "mode": "relative"},
        chunks=CHUNKS,
    )
    ds_w = BPDataset.create("fig9-multi", hierarchy)
    for var, field in fields.items():
        encoder.encode(
            "fig9-multi", var, src.mesh, field, LevelScheme(LEVELS),
            dataset=ds_w, close=False,
        )
    ds_w.close()

    get_restored_cache().clear()
    get_geometry_cache().clear()

    # Reference payloads from a direct in-process engine (what every
    # wire payload must equal bit-for-bit).
    expected: dict[tuple[str, int], np.ndarray] = {}
    ref_h = two_tier_titan(root, fast_capacity=256 << 20,
                           slow_capacity=1 << 38)
    with Session(ref_h) as session:
        camp = session.open("fig9-multi")
        for var in VARIABLES:
            for level in REQUEST_LEVELS:
                expected[(var, level)] = camp.restore(
                    var, level=level
                ).field.copy()

    # Pre-service world, measured before the service warms anything.
    lib_h = two_tier_titan(root, fast_capacity=256 << 20,
                           slow_capacity=1 << 38)
    serial_library = _serial_library_baseline(
        lib_h, expected, SERIAL_REQUESTS
    )

    svc_h = two_tier_titan(root, fast_capacity=256 << 20,
                           slow_capacity=1 << 38)
    service = CanopusService(
        svc_h, tenants=list(TENANTS), executor_workers=8
    )

    async def _measure(host: str, port: int):
        # Warm pass: one client touches every (var, level) once so both
        # measured runs hit the same steady-state (restored caches hot).
        warm = await serial_baseline(
            host, port, "fig9-multi", VARIABLES,
            requests=len(VARIABLES) * len(REQUEST_LEVELS),
            levels=REQUEST_LEVELS, token=TENANTS[0].token,
            expected=expected,
        )
        serial = await serial_baseline(
            host, port, "fig9-multi", VARIABLES,
            requests=SERIAL_REQUESTS, levels=REQUEST_LEVELS,
            token=TENANTS[0].token, expected=expected,
        )
        per_tenant = max(1, CLIENTS // len(TENANTS))
        reports = await asyncio.gather(*(
            run_load(
                host, port, "fig9-multi", VARIABLES,
                clients=per_tenant, requests_per_client=REQUESTS_PER_CLIENT,
                levels=REQUEST_LEVELS, token=t.token, expected=expected,
            )
            for t in TENANTS
        ))
        return warm, serial, reports

    with ServiceThread(service):
        warm, serial, reports = asyncio.run(
            _measure(service.host, service.port)
        )
        tenant_usage = service.tenants.usage()
        obs_snapshot = get_registry().prefix_snapshot("service")
        datanode_metrics = service.datanode.metrics()

    get_restored_cache().clear()
    get_geometry_cache().clear()

    # -- traced pass: same mix, tracing on, every request kept ----------
    # Fresh hierarchy + tenants so counters start from zero, cold
    # process caches so the run actually charges simulated reads.
    traced_tenants = [
        TenantConfig(name=t.name, token=t.token) for t in TENANTS
    ]
    traced_service = CanopusService(
        two_tier_titan(root, fast_capacity=256 << 20, slow_capacity=1 << 38),
        tenants=traced_tenants,
        executor_workers=8,
        tracing=True,
        trace_capacity=8192,
        trace_sample_rate=1.0,
    )

    async def _traced(host: str, port: int):
        per_tenant = max(1, CLIENTS // len(TENANTS))
        return await asyncio.gather(*(
            run_load(
                host, port, "fig9-multi", VARIABLES,
                clients=per_tenant, requests_per_client=REQUESTS_PER_CLIENT,
                levels=REQUEST_LEVELS, token=t.token, expected=expected,
            )
            for t in traced_tenants
        ))

    with ServiceThread(traced_service):
        traced_reports = asyncio.run(
            _traced(traced_service.host, traced_service.port)
        )
        buffer = traced_service.trace_buffer
        traced_traces = buffer.list(limit=100000)
        traced_stats = buffer.stats()
        traced_usage = traced_service.tenants.usage()
        slowest = buffer.slowest(1)
        if slowest:
            write_chrome_trace(
                RESULTS_DIR / "trace_sample.json", slowest[0].spans
            )

    get_restored_cache().clear()
    get_geometry_cache().clear()

    total_requests = sum(r.requests for r in reports)
    total_failures = sum(r.failures for r in reports)
    total_mismatches = sum(r.mismatches for r in reports)
    total_bytes = sum(r.bytes_served for r in reports)
    wall = max(r.wall_seconds for r in reports)
    concurrent_rps = total_requests / wall if wall else 0.0
    merged = LoadReport(clients=len(TENANTS) * max(1, CLIENTS // len(TENANTS)))
    for r in reports:
        merged.latencies.extend(r.latencies)

    return {
        "warm": warm,
        "serial_library": serial_library,
        "serial": serial,
        "reports": reports,
        "clients": len(TENANTS) * max(1, CLIENTS // len(TENANTS)),
        "total_requests": total_requests,
        "total_failures": total_failures,
        "total_mismatches": total_mismatches,
        "total_bytes": total_bytes,
        "wall_seconds": wall,
        "concurrent_rps": concurrent_rps,
        "latency": merged.latency_summary(),
        "tenant_usage": tenant_usage,
        "obs_snapshot": obs_snapshot,
        "datanode_metrics": datanode_metrics,
        "vertices": src.mesh.num_vertices,
        "traced_reports": traced_reports,
        "traced_traces": traced_traces,
        "traced_stats": traced_stats,
        "traced_usage": traced_usage,
    }


def test_load_and_report(load_results, record_result):
    serial_lib = load_results["serial_library"]
    serial_http = load_results["serial"]
    speedup = (
        load_results["concurrent_rps"] / serial_lib["rps"]
        if serial_lib["rps"] else 0.0
    )

    rows = [
        {
            "mode": "serial library (fresh engine/request, no cache)",
            "clients": 1,
            "requests": serial_lib["requests"],
            "wall_s": f"{serial_lib['wall_seconds']:.3f}",
            "rps": f"{serial_lib['rps']:.1f}",
        },
        {
            "mode": "serial HTTP (1 keep-alive client, warm tier)",
            "clients": 1,
            "requests": serial_http.requests,
            "wall_s": f"{serial_http.wall_seconds:.3f}",
            "rps": f"{serial_http.rps:.1f}",
        },
        {
            "mode": f"concurrent ({len(TENANTS)} tenants)",
            "clients": load_results["clients"],
            "requests": load_results["total_requests"],
            "wall_s": f"{load_results['wall_seconds']:.3f}",
            "rps": f"{load_results['concurrent_rps']:.1f}",
        },
    ]
    record_result(
        "service_load",
        format_table(
            rows,
            title=(
                f"read-tier throughput, xgc1 scale {SCALE} "
                f"({load_results['vertices']} vertices, {PLANES} planes, "
                f"{len(VARIABLES)} vars x levels {REQUEST_LEVELS}) — "
                f"{speedup:.1f}x aggregate over serial"
            ),
        ),
    )

    report = json_report(
        "service_load",
        rows,
        meta={
            "dataset": "xgc1",
            "scale": SCALE,
            "planes": PLANES,
            "vertices": load_results["vertices"],
            "levels": LEVELS,
            "chunks": CHUNKS,
            "variables": VARIABLES,
            "request_levels": REQUEST_LEVELS,
            "clients": load_results["clients"],
            "requests_per_client": REQUESTS_PER_CLIENT,
            "tenants": [t.name for t in TENANTS],
            "codec": "zfp",
            "rel_tolerance": REL_TOL,
        },
        metrics={
            "serial_library": serial_lib,
            "serial_http": serial_http.to_dict(),
            "concurrent": {
                "clients": load_results["clients"],
                "requests": load_results["total_requests"],
                "failures": load_results["total_failures"],
                "mismatches": load_results["total_mismatches"],
                "bytes_served": load_results["total_bytes"],
                "wall_seconds": load_results["wall_seconds"],
                "rps": load_results["concurrent_rps"],
                "latency": load_results["latency"],
                "per_tenant": [r.to_dict() for r in load_results["reports"]],
            },
            "traced": _traced_metrics(load_results),
            "throughput_speedup": speedup,
            "min_speedup_required": MIN_SPEEDUP,
            "tenant_usage": load_results["tenant_usage"],
            "obs_service_counters": load_results["obs_snapshot"],
            "restored_cache": load_results["datanode_metrics"][
                "restored_cache"
            ],
            "bit_identical": load_results["total_mismatches"] == 0,
        },
    )
    write_json_report(RESULTS_DIR / "BENCH_service.json", report)

    assert load_results["total_failures"] == 0
    assert serial_lib["mismatches"] == 0
    assert speedup >= MIN_SPEEDUP, (
        f"concurrent {load_results['concurrent_rps']:.1f} rps vs serial "
        f"library {serial_lib['rps']:.1f} rps — only {speedup:.2f}x"
    )


def test_payloads_bit_identical(load_results):
    """Every concurrent wire payload equals the direct engine restore."""
    assert load_results["total_mismatches"] == 0
    assert load_results["warm"].mismatches == 0


def test_per_tenant_metrics_visible(load_results):
    """Each tenant's usage shows up in both the registry and obs."""
    usage = load_results["tenant_usage"]
    obs = load_results["obs_snapshot"]
    for tenant in TENANTS:
        assert usage[tenant.name]["total_requests"] > 0
        assert usage[tenant.name]["total_bytes"] > 0
        assert obs.get(f"service.requests{{tenant={tenant.name}}}", 0) > 0


def test_traced_requests_are_single_span_trees(load_results):
    """Every kept request is one tree spanning service/datanode threads."""
    traces = load_results["traced_traces"]
    stats = load_results["traced_stats"]
    assert sum(r.failures for r in load_results["traced_reports"]) == 0
    assert stats["dropped"] == 0  # sample_rate=1.0 keeps everything
    assert stats["kept"] == stats["finished"]
    restores = [t for t in traces if t.route.endswith("/restore")]
    assert restores
    for t in restores:
        roots = [s for s in t.spans if s.parent_id is None]
        assert len(roots) == 1, t.to_summary()
        assert roots[0].name.startswith("http GET"), roots[0].name
        assert all(s.trace_id == t.trace_id for s in t.spans)
    threads = {s.thread for t in restores for s in t.spans}
    assert any(th.startswith("repro-datanode") for th in threads), threads


def test_traced_sim_read_matches_tenant_counters(load_results):
    """Per-request SimClock read-seconds sum to the tenant counters."""
    import math

    traced = _traced_metrics(load_results)
    assert traced["trace_sim_read_seconds"] > 0
    assert math.isclose(
        traced["trace_sim_read_seconds"],
        traced["tenant_sim_read_seconds"],
        rel_tol=1e-6,
        abs_tol=1e-9,
    ), traced
