"""Command-line interface: generate, encode, inspect, restore.

A thin operational layer over the library, mirroring the utilities an
ADIOS install ships (``bpls``-style inspection, plus Canopus encode /
restore). All state lives under a ``--root`` directory holding the
two-tier storage hierarchy.

Examples
--------
::

    python -m repro.cli generate xgc1 --scale 0.3 --out plane.npz
    python -m repro.cli encode plane.npz --field dpot --dataset run \
        --root /tmp/store --levels 3 --tolerance 1e-4
    python -m repro.cli info run --root /tmp/store
    python -m repro.cli restore run --var dpot --level 0 \
        --root /tmp/store --out restored.npz
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.core import (
    CanopusDecoder,
    CanopusEncoder,
    LevelScheme,
    encode_partitioned,
)
from repro.errors import ReproError
from repro.io.dataset import DEFAULT_PLACEMENT, PLACEMENTS, BPDataset
from repro.mesh.edge_collapse import DEFAULT_METHOD, KERNELS
from repro.mesh.io import load_mesh, save_mesh
from repro.storage import BACKEND_KINDS, two_tier_titan

__all__ = ["main", "build_parser"]

# ``repro.simulations.dataset_names()``; building the parser imports no generator.
_DATASETS = ("cfd", "genasis", "xgc1")


def _add_backend_arg(sub) -> None:
    sub.add_argument(
        "--backend", choices=BACKEND_KINDS, default="filesystem",
        help="object-store backend for each tier (use the same value "
        "for every command touching one --root; 'memory' does not "
        "persist across commands)",
    )
    sub.add_argument(
        "--shards", type=int, default=4,
        help="sub-stores per tier for --backend sharded (layout "
        "parameter: reuse the writing value when reopening a root)",
    )
    sub.add_argument(
        "--replicas", type=int, default=None,
        help="N-way mirroring of sharded/replicated leaves (default: "
        "no mirroring for sharded, 2 for replicated; reuse the writing "
        "value when reopening a root)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Canopus reproduction CLI (generate/encode/info/restore)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset to .npz")
    gen.add_argument("dataset", choices=_DATASETS)
    gen.add_argument("--scale", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)

    enc = sub.add_parser("encode", help="Canopus-encode a mesh field")
    enc.add_argument("mesh", help=".npz produced by generate/save_mesh")
    enc.add_argument("--field", required=True, help="field name in the .npz")
    enc.add_argument("--dataset", required=True, help="output dataset name")
    enc.add_argument("--root", required=True, help="storage root directory")
    enc.add_argument("--levels", type=int, default=3)
    enc.add_argument("--codec", default="zfp")
    enc.add_argument("--tolerance", type=float, default=1e-4)
    enc.add_argument("--chunks", type=int, default=1)
    enc.add_argument(
        "--method", choices=KERNELS, default=DEFAULT_METHOD,
        help="decimation kernel (serial heap loop or batched rounds)",
    )
    enc.add_argument(
        "--workers", type=int, default=None,
        help="encode threads: a level's codec encodes overlap the next "
        "level, or patches run side by side with --parts (default: inline)",
    )
    enc.add_argument(
        "--parts", type=int, default=None,
        help="write a partitioned dataset: split the mesh into N spatial "
        "patches, each refactored on its own",
    )
    enc.add_argument(
        "--fast-capacity", type=int, default=64 << 20,
        help="fast-tier capacity in bytes",
    )
    enc.add_argument(
        "--placement", choices=PLACEMENTS, default=DEFAULT_PLACEMENT,
        help="product placement: fastest-first capacity walk (paper "
        "default) or close-time cost-based plan",
    )
    _add_backend_arg(enc)

    info = sub.add_parser("info", help="list a dataset's products (bpls-like)")
    info.add_argument("dataset")
    info.add_argument("--root", required=True)
    _add_backend_arg(info)

    fsck = sub.add_parser(
        "fsck",
        help="verify a dataset's integrity (catalog products + per-tier "
        "backend inventory), optionally repairing backend damage",
    )
    fsck.add_argument("dataset")
    fsck.add_argument("--root", required=True)
    fsck.add_argument(
        "--repair", action="store_true",
        help="self-heal before checking: re-replicate from surviving "
        "mirrors, roll interrupted-put journals forward or collect "
        "them, rebuild manifests, garbage-collect orphaned chunks "
        "(unrecoverable damage is still reported BAD)",
    )
    _add_backend_arg(fsck)

    res = sub.add_parser("restore", help="restore variable(s) to a level")
    res.add_argument(
        "dataset",
    )
    res.add_argument(
        "--var", required=True,
        help="variable name, or comma-separated list for a concurrent "
        "multi-variable restore",
    )
    res.add_argument("--level", type=int, default=0)
    res.add_argument(
        "--step", type=int, default=None,
        help="timestep of a campaign (write_campaign) dataset",
    )
    res.add_argument("--root", required=True)
    res.add_argument(
        "--out", required=True,
        help="output .npz (mesh + field); with several --var names, "
        "a '{var}' placeholder is substituted (default: var suffix "
        "before the extension)",
    )
    _add_backend_arg(res)

    qry = sub.add_parser(
        "query",
        help="accuracy-aware queries over a dataset (plan/stats/blobs)",
    )
    qry.add_argument("dataset")
    qry.add_argument("--root", required=True)
    qry.add_argument("--var", required=True)
    qry.add_argument(
        "--mode", choices=("plan", "stats", "blobs"), default="stats",
        help="plan: explain a restore without executing it; stats: "
        "pushdown min/max/mean/rms from per-chunk summaries; blobs: "
        "summary-pruned blob detection",
    )
    qry.add_argument(
        "--region", default=None,
        help="spatial window 'x0,y0:x1,y1' (all modes)",
    )
    qry.add_argument(
        "--tolerance", type=float, default=None,
        help="RMS tolerance for --mode plan",
    )
    qry.add_argument(
        "--level", type=int, default=None,
        help="explicit level for --mode plan",
    )
    qry.add_argument(
        "--min-significance", type=float, default=0.0,
        help="bounded-lossy chunk pruning threshold for --mode plan",
    )
    qry.add_argument(
        "--threshold", type=float, default=None,
        help="field-value threshold (required for --mode blobs)",
    )
    qry.add_argument(
        "--shape", default="128,128",
        help="raster grid 'ny,nx' for --mode blobs",
    )
    _add_backend_arg(qry)

    srv = sub.add_parser(
        "serve",
        help="serve the read tier over HTTP (asyncio, multi-tenant)",
    )
    srv.add_argument("--root", required=True, help="storage root directory")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8686,
        help="listen port (0 picks a free one)",
    )
    srv.add_argument(
        "--executor-workers", type=int, default=8,
        help="bounded executor size for blocking decode work (the read "
        "side's one thread pool)",
    )
    srv.add_argument(
        "--tenants", default=None,
        help="JSON file: [{\"name\":..., \"token\":..., "
        "\"max_requests\":..., \"max_bytes\":..., \"max_inflight\":..., "
        "\"window_seconds\":...}, ...]; omitted = open access (dev only)",
    )
    srv.add_argument(
        "--tracing", action="store_true",
        help="enable request tracing (traceparent, /v1/trace* endpoints)",
    )
    srv.add_argument(
        "--trace-capacity", type=int, default=256,
        help="trace ring-buffer size (kept requests)",
    )
    srv.add_argument(
        "--trace-sample-rate", type=float, default=0.1,
        help="head-sampling rate; errors and the slow tail are always kept",
    )
    srv.add_argument(
        "--trace-slow-seconds", type=float, default=1.0,
        help="requests at/above this wall time are always kept",
    )
    srv.add_argument(
        "--access-log", default=None,
        help="write one JSONL access-log line per request to this file",
    )
    srv.add_argument(
        "--slo-target-seconds", type=float, default=0.5,
        help="per-route latency SLO target (seconds)",
    )
    _add_backend_arg(srv)

    tr = sub.add_parser(
        "trace",
        help="progressively read a variable under the dual-clock tracer",
    )
    tr.add_argument("dataset")
    tr.add_argument("--var", default=None, help="variable (default: first)")
    tr.add_argument("--level", type=int, default=0, help="stop at this level")
    tr.add_argument("--root", required=True)
    tr.add_argument(
        "--out", default=None,
        help="write a Chrome trace-event JSON (load in Perfetto / "
        "chrome://tracing)",
    )
    tr.add_argument(
        "--jsonl", default=None, help="write spans as JSON lines"
    )
    tr.add_argument(
        "--no-pipeline", action="store_true",
        help="disable I/O/compute overlap in the progressive read",
    )
    _add_backend_arg(tr)

    obs = sub.add_parser(
        "obs", help="observability utilities over a running service"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    rep = obs_sub.add_parser(
        "report",
        help="render the top-N slowest traces + SLO status from a live "
        "server (--url) or an access-log JSONL file (--jsonl)",
    )
    rep.add_argument(
        "--url", default=None,
        help="live service base URL, e.g. http://127.0.0.1:8686",
    )
    rep.add_argument(
        "--token", default="", help="bearer token for --url requests"
    )
    rep.add_argument(
        "--jsonl", default=None,
        help="access-log JSONL file written by 'serve --access-log'",
    )
    rep.add_argument(
        "--top", type=int, default=10, help="how many slow requests to show"
    )
    rep.add_argument(
        "--slo-target", type=float, default=0.5,
        help="SLO target seconds when computing offline from --jsonl",
    )
    rep.add_argument(
        "--slo-objective", type=float, default=0.95,
        help="SLO objective fraction for offline burn-rate computation",
    )
    return parser


def _hierarchy(
    root: str,
    fast_capacity: int = 64 << 20,
    backend: str = "filesystem",
    *,
    shards: int = 4,
    replicas: int | None = None,
):
    return two_tier_titan(
        Path(root), fast_capacity=fast_capacity, slow_capacity=1 << 40,
        backend=backend, shards=shards, replicas=replicas,
    )


def _args_hierarchy(args, fast_capacity: int = 64 << 20):
    return _hierarchy(
        args.root, fast_capacity, args.backend,
        shards=args.shards, replicas=args.replicas,
    )


def _cmd_generate(args) -> int:
    from repro.simulations import make_dataset

    params = {"scale": args.scale}
    if args.seed is not None:
        params["seed"] = args.seed
    ds = make_dataset(args.dataset, **params)
    save_mesh(args.out, ds.mesh, {ds.variable: ds.field})
    print(
        f"wrote {args.out}: {ds.mesh.num_vertices} vertices, "
        f"{ds.mesh.num_triangles} triangles, field {ds.variable!r}"
    )
    return 0


def _cmd_encode(args) -> int:
    from repro.harness.report import format_table

    mesh, fields = load_mesh(args.mesh)
    if args.field not in fields:
        raise ReproError(
            f"{args.mesh} has no field {args.field!r}; found {sorted(fields)}"
        )
    hierarchy = _args_hierarchy(args, args.fast_capacity)
    params = {"tolerance": args.tolerance}
    if args.codec == "zfp":
        params["mode"] = "relative"
    if args.parts:
        report, _ = encode_partitioned(
            hierarchy, args.dataset, args.field, mesh, fields[args.field],
            LevelScheme(args.levels), parts=args.parts, workers=args.workers,
            codec=args.codec, codec_params=params, method=args.method,
        )
        rows = [
            {"part": i, "encode_seconds": round(s, 4)}
            for i, s in enumerate(report.per_part_seconds)
        ]
        print(
            format_table(
                rows,
                title=(
                    f"encoded {args.dataset!r} ({report.parts} patches on "
                    f"{args.workers or 1} workers)"
                ),
            )
        )
        print(
            f"products {report.compressed_bytes} B incl. per-part geometry "
            f"(original field {report.original_bytes} B)"
        )
        return 0
    encoder = CanopusEncoder(
        hierarchy, codec=args.codec, codec_params=params, chunks=args.chunks,
        method=args.method, workers=args.workers, placement=args.placement,
    )
    report, _ = encoder.encode(
        args.dataset, args.field, mesh, fields[args.field],
        LevelScheme(args.levels),
    )
    rows = [
        {
            "key": key,
            "bytes": report.compressed_bytes[key],
            "tier": report.placed_tiers[key],
        }
        for key in sorted(report.compressed_bytes)
    ]
    print(format_table(rows, title=f"encoded {args.dataset!r}"))
    print(
        f"payloads {report.payload_bytes} B (original "
        f"{report.original_bytes} B, {report.original_bytes / max(1, report.payload_bytes):.1f}x)"
    )
    return 0


def _cmd_info(args) -> int:
    from repro.harness.report import format_table

    hierarchy = _args_hierarchy(args)
    ds = BPDataset.open(args.dataset, hierarchy)
    rows = [
        {
            "key": rec.key,
            "kind": rec.kind,
            "level": rec.level,
            "bytes": rec.length,
            "codec": rec.codec or "-",
            "tier": rec.tier,
        }
        for rec in (ds.inq(k) for k in ds.keys())
    ]
    print(format_table(rows, title=f"dataset {args.dataset!r}"))
    variables = ds.catalog.attrs.get("variables", {})
    for var, meta in sorted(variables.items()):
        coords = "".join(
            f", {plural} {meta[plural]}"
            for plural in ("steps", "parts")
            if plural in meta
        )
        print(
            f"variable {var!r}: {meta['num_levels']} levels, "
            f"codec {meta['codec']}, counts {meta['counts']}{coords}"
        )
    return 0


def _cmd_fsck(args) -> int:
    from repro.io.fsck import check_dataset, repair_backends

    hierarchy = _args_hierarchy(args)
    repairs = []
    if args.repair:
        # Repair below the catalog first: a damaged catalog manifest
        # would otherwise prevent even opening the dataset.
        repairs = repair_backends(hierarchy)
    result = check_dataset(BPDataset.open(args.dataset, hierarchy))
    result.repairs = repairs
    print(result.report())
    return 0 if result.healthy else 2


def _out_path(template: str, var: str, multi: bool) -> str:
    if "{var}" in template:
        return template.replace("{var}", var)
    if not multi:
        return template
    stem, dot, ext = template.rpartition(".")
    if not dot:
        return f"{template}.{var}"
    return f"{stem}.{var}.{ext}"


def _cmd_restore(args) -> int:
    from repro.session import Session

    hierarchy = _args_hierarchy(args)
    variables = [v for v in args.var.split(",") if v]
    io_before = hierarchy.clock.elapsed
    with Session(hierarchy) as session:
        results = session.open(args.dataset).restore_many(
            variables, step=args.step, level=args.level
        )
    # The engine charges the overlapped prefetch batch up front, outside
    # any one variable's PhaseTimings — report the aggregate clock delta.
    io_ms = (hierarchy.clock.elapsed - io_before) * 1e3
    for var, state in results.items():
        field = state.plane(0) if state.field.ndim == 2 else state.field
        out = _out_path(args.out, var, multi=len(variables) > 1)
        save_mesh(out, state.mesh, {var: np.asarray(field)})
        print(
            f"restored {state.var!r} to level {args.level} "
            f"({state.mesh.num_vertices} vertices) -> {out}"
        )
    print(f"simulated I/O {io_ms:.3f} ms ({len(variables)} variable(s))")
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.query import parse_region, parse_shape
    from repro.session import Session

    hierarchy = _args_hierarchy(args)
    region = parse_region(args.region)
    with Session(hierarchy) as session:
        campaign = session.open(args.dataset)
        if args.mode == "plan":
            plan = campaign.plan(
                args.var,
                level=args.level,
                tolerance=args.tolerance,
                region=region,
                min_significance=args.min_significance,
            )
            print(plan.explain())
        elif args.mode == "stats":
            result = campaign.query_stats(args.var, region=region)
            print(json.dumps(result, indent=2))
        else:
            if args.threshold is None:
                raise ReproError("query --mode blobs needs --threshold")
            result = campaign.query_blobs(
                args.var,
                threshold=args.threshold,
                region=region,
                shape=parse_shape(args.shape),
            )
            print(json.dumps(result, indent=2))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.obs.logs import JsonlLogger
    from repro.service import CanopusService, TenantRegistry

    hierarchy = _args_hierarchy(args)
    if args.tenants:
        registry = TenantRegistry.from_file(args.tenants)
    else:
        registry = TenantRegistry.open_access()
    service = CanopusService(
        hierarchy,
        tenants=registry,
        host=args.host,
        port=args.port,
        executor_workers=args.executor_workers,
        tracing=args.tracing,
        trace_capacity=args.trace_capacity,
        trace_sample_rate=args.trace_sample_rate,
        trace_slow_seconds=args.trace_slow_seconds,
        slo_target_seconds=args.slo_target_seconds,
        access_log=(
            JsonlLogger(args.access_log) if args.access_log else None
        ),
    )

    async def _serve() -> None:
        host, port = await service.start()
        names = ", ".join(t.name for t in registry.tenants())
        print(f"serving {args.root} on http://{host}:{port} (tenants: {names})")
        try:
            await service._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_trace(args) -> int:
    from repro.harness.report import format_table
    from repro.obs import trace_session

    hierarchy = _args_hierarchy(args)
    with trace_session(
        hierarchy, chrome_path=args.out, jsonl_path=args.jsonl
    ) as tracer:
        ds = BPDataset.open(args.dataset, hierarchy)
        decoder = CanopusDecoder(ds)
        var = args.var or decoder.variables()[0]
        state = decoder.restore_to(
            var, args.level, pipeline=not args.no_pipeline
        )
        ds.close()

    rows = [
        {
            "phase": cat,
            "spans": agg["spans"],
            "wall_ms": f"{agg['wall_seconds'] * 1e3:.3f}",
            "sim_io_ms": f"{agg['sim_charged'] * 1e3:.3f}",
        }
        for cat, agg in sorted(tracer.summary().items())
    ]
    print(format_table(rows, title=f"trace of {args.dataset!r}:{var!r}"))
    print(
        f"{len(tracer.spans)} spans, {len(tracer.io_records)} tier I/O "
        f"transfers; restored {var!r} to level {state.level}"
    )
    for name, value in sorted(tracer.metrics.snapshot().items()):
        print(f"  {name} = {value}")
    if args.out:
        print(f"chrome trace -> {args.out}")
    if args.jsonl:
        print(f"span jsonl -> {args.jsonl}")
    return 0


def _trace_rows(summaries: list[dict], top: int) -> list[dict]:
    """Table rows for the slowest ``top`` request summaries."""
    ranked = sorted(
        summaries, key=lambda t: t.get("wall_seconds", 0.0), reverse=True
    )
    return [
        {
            "trace_id": t.get("trace_id", "")[:16],
            "route": t.get("route", ""),
            "tenant": t.get("tenant", "") or "-",
            "status": t.get("status", 0),
            "wall_ms": f"{t.get('wall_seconds', 0.0) * 1e3:.2f}",
            "sim_read_ms": f"{t.get('sim_read_seconds', 0.0) * 1e3:.3f}",
            "kept": t.get("kept", "-"),
        }
        for t in ranked[: max(0, top)]
    ]


def _slo_rows(snapshots: dict[str, dict]) -> list[dict]:
    """Table rows for per-route :meth:`SLO.snapshot` dicts."""
    return [
        {
            "route": route,
            "target_s": s["target_seconds"],
            "window": s["window_requests"],
            "compliance": f"{s['compliance']:.4f}",
            "burn_rate": f"{s['burn_rate']:.2f}",
            "healthy": s["healthy"],
        }
        for route, s in sorted(snapshots.items())
    ]


def _report_from_server(args) -> int:
    import asyncio
    from urllib.parse import urlsplit

    from repro.harness.report import format_table
    from repro.service.client import ServiceClient

    split = urlsplit(args.url if "//" in args.url else f"//{args.url}")
    if not split.hostname or not split.port:
        raise ReproError(
            f"--url must include host and port, got {args.url!r}"
        )

    async def _fetch():
        client = ServiceClient(
            split.hostname, split.port, token=args.token or ""
        )
        try:
            traces = await client.traces(limit=max(args.top * 5, 100))
            metrics = await client.metrics()
        finally:
            await client.close()
        return traces, metrics

    traces, metrics = asyncio.run(_fetch())
    if not traces.get("tracing"):
        print("tracing is disabled on this server (serve --tracing)")
    else:
        rows = _trace_rows(traces.get("traces", []), args.top)
        if rows:
            print(format_table(rows, title=f"slowest requests ({args.url})"))
        stats = traces.get("stats", {})
        print(
            f"trace buffer: {stats.get('kept', 0)} kept / "
            f"{stats.get('finished', 0)} finished "
            f"({stats.get('dropped', 0)} dropped by sampling)"
        )
    slo_rows = _slo_rows(metrics.get("slo", {}))
    if slo_rows:
        print(format_table(slo_rows, title="SLO status (rolling window)"))
    return 0


def _report_from_jsonl(args) -> int:
    import json

    from repro.harness.report import format_table
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import SLO

    requests: list[dict] = []
    with open(args.jsonl, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if rec.get("event") == "service.request":
                requests.append(rec)
    if not requests:
        print(f"no service.request records in {args.jsonl}")
        return 0
    rows = _trace_rows(requests, args.top)
    print(format_table(rows, title=f"slowest requests ({args.jsonl})"))
    # Offline SLO: replay each route's logged requests through the
    # service's own SLO, on a registry of this report's own; the window
    # holds the whole log.
    registry = MetricsRegistry()
    slos: dict[str, SLO] = {}
    for rec in requests:
        route = rec.get("route", "other")
        if route not in slos:
            slos[route] = SLO(
                route,
                target_seconds=args.slo_target,
                objective=args.slo_objective,
                window=len(requests),
                registry=registry,
            )
        slos[route].observe(
            rec.get("wall_seconds", 0.0),
            error=rec.get("error") is not None or rec.get("status", 0) >= 500,
        )
    print(
        format_table(
            _slo_rows({route: slo.snapshot() for route, slo in slos.items()}),
            title=(
                f"SLO status (offline, target {args.slo_target}s, "
                f"objective {args.slo_objective:.0%})"
            ),
        )
    )
    return 0


def _cmd_obs(args) -> int:
    if args.obs_command != "report":  # pragma: no cover - argparse guards
        raise ReproError(f"unknown obs command {args.obs_command!r}")
    if bool(args.url) == bool(args.jsonl):
        raise ReproError("obs report needs exactly one of --url or --jsonl")
    if args.url:
        return _report_from_server(args)
    return _report_from_jsonl(args)


_COMMANDS = {
    "generate": _cmd_generate,
    "encode": _cmd_encode,
    "info": _cmd_info,
    "fsck": _cmd_fsck,
    "restore": _cmd_restore,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
