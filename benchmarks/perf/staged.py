"""The traced pass: staged ops built from each layer's public calls.

For the three library workloads the op is rebuilt here, one span per
call into a layer (build_plan -> coarsen -> deltas_for -> codec.encode
-> BPDataset.write -> close; open -> read_many -> decode_auto ->
geometry decode -> apply_delta), and its outputs are checked against
the end-to-end call's: product CRCs for the writes, bit-identical
fields for the read. For the served workloads the spans are
client-side and are joined with the traced server's access log.

The one private import is ``repro.core.encoder._spatial_chunks``: the
chunk layout has no public name, and re-deriving it here would only
hide a change that the CRC check is there to catch.
"""

from __future__ import annotations

import io
import json
import time
import zlib

import numpy as np

from repro.api import BPDataset, two_tier_titan
from repro.compress import decode_auto, get_codec
from repro.core.decimation_plan import build_plan, get_plan_cache
from repro.core.delta import apply_delta
from repro.core.encoder import _spatial_chunks
from repro.core.mapping import LevelMapping
from repro.core.notation import (
    GEOM_VAR,
    chunk_key,
    level_key,
    mapping_key,
    mesh_key,
    step_key,
)
from repro.core.plan import plan_placement
from repro.core.restored_cache import get_geometry_cache, get_restored_cache
from repro.io.query import ChunkStats, attach_stats
from repro.mesh.io import mesh_from_bytes, mesh_to_bytes
from repro.storage.backend import FilesystemBackend

import inputs
from server import Server
from spec import (
    CAMPAIGN,
    CHUNKS,
    CODEC,
    CODEC_PARAMS,
    DATASET,
    PLANES,
    REQUEST_LEVELS,
    VARIABLES,
)
from stats import SpanRecorder, by_call, percentile
from workloads import SCHEME, closed_loop, product_crcs

RESTORE_ROUTE = "/v1/campaigns/{name}/vars/{var}/restore"


# -- staged library ops ----------------------------------------------------
def _put(rec, op, dataset, key, payload, values=None, **meta):
    with rec.span("BPDataset.write", "io", op) as span:
        span["bytes_in"] = len(payload)
        record = dataset.write(key, payload, **meta)
    if values is not None:
        with rec.span("attach_stats", "io", op):
            attach_stats(record, values)


def _encode(rec, op, codec, array, kind):
    with rec.span("codec.encode", "compress", op, kind=kind) as span:
        blob = codec.encode(array.ravel())
        span["bytes_in"], span["bytes_out"] = array.nbytes, len(blob)
    return blob


def _geometry(rec, op, mesh=None, mapping=None) -> bytes:
    name = "mesh_to_bytes" if mesh is not None else "LevelMapping.to_bytes"
    with rec.span(name, "core", op) as span:
        blob = mesh_to_bytes(mesh) if mesh is not None else mapping.to_bytes()
        span["bytes_out"] = len(blob)
    return blob


def staged_write_cold(wl, rec: SpanRecorder, op: int):
    """CanopusEncoder.encode x3, spelled out call by call."""
    root = wl.fresh_root()
    hierarchy = two_tier_titan(root)
    with rec.span("op", "bench", op):
        with rec.span("build_plan", "mesh", op):
            plan = build_plan(wl.mesh, SCHEME)
        dataset = BPDataset.create(DATASET, hierarchy)
        tiers = plan_placement(SCHEME, len(hierarchy))
        base_level = SCHEME.base_level
        for var, data in wl.fields.items():
            with rec.span("DecimationPlan.coarsen", "core", op):
                levels = plan.coarsen(data)
            with rec.span("DecimationPlan.deltas_for", "core", op):
                deltas = plan.deltas_for(levels)
            with rec.span("ChunkStats.of", "io", op):
                ChunkStats.of(data)
            # A relative tolerance resolves once against the variable's
            # range and applies as the same absolute bound per product.
            codec = get_codec(
                CODEC, mode="absolute",
                tolerance=CODEC_PARAMS["tolerance"] * float(np.ptp(data)),
            )
            groups = {
                lvl: _spatial_chunks(plan.meshes[lvl].vertices, CHUNKS)
                for lvl in SCHEME.delta_levels()
            }
            base_blob = _encode(rec, op, codec, levels[-1], "base")
            chunk_blobs = {
                (lvl, c): _encode(rec, op, codec, deltas[lvl][..., idx],
                                  "delta")
                for lvl, parts in groups.items()
                for c, idx in enumerate(parts)
            }
            _put(rec, op, dataset, level_key(var, base_level), base_blob,
                 levels[-1], kind="base", level=base_level,
                 count=levels[-1].size, codec=CODEC,
                 preferred_tier=tiers.base_tier)
            _put(rec, op, dataset, mesh_key(var, base_level),
                 _geometry(rec, op, mesh=plan.meshes[-1]),
                 kind="mesh", level=base_level,
                 preferred_tier=tiers.base_tier)
            for lvl in SCHEME.delta_levels():
                tier = tiers.preferred_tier_for_delta(lvl)
                for c, idx in enumerate(groups[lvl]):
                    piece = deltas[lvl][..., idx]
                    if lvl == 0:
                        with rec.span("ChunkStats.of", "io", op):
                            ChunkStats.of(data[..., idx])
                    _put(rec, op, dataset, chunk_key(var, lvl, c),
                         chunk_blobs[lvl, c], piece, kind="delta",
                         level=lvl, count=piece.size, codec=CODEC,
                         preferred_tier=tier)
                    with rec.span("zlib.compress(idx)", "core", op):
                        packed = zlib.compress(idx.astype("<i8").tobytes(), 6)
                    _put(rec, op, dataset, chunk_key(var, lvl, c) + "/idx",
                         packed, kind="mapping", level=lvl,
                         preferred_tier=tier)
                _put(rec, op, dataset, mapping_key(var, lvl),
                     _geometry(rec, op, mapping=plan.mappings[lvl]),
                     kind="mapping", level=lvl, preferred_tier=tier)
                _put(rec, op, dataset, mesh_key(var, lvl),
                     _geometry(rec, op, mesh=plan.meshes[lvl]),
                     kind="mesh", level=lvl, preferred_tier=tier)
        with rec.span("BPDataset.close", "io", op):
            dataset.close()
    return root, plan


def staged_write_steady(wl, rec: SpanRecorder, op: int):
    """write_campaign, spelled out call by call (plan cache warm)."""
    root = wl.fresh_root()
    hierarchy = two_tier_titan(root)
    with rec.span("op", "bench", op):
        with rec.span("PlanCache.get_or_build", "core", op):
            plan = get_plan_cache().get_or_build(wl.mesh, SCHEME)
        codec = get_codec(CODEC, **CODEC_PARAMS)
        tiers = plan_placement(SCHEME, len(hierarchy))
        base_level = SCHEME.base_level
        dataset = BPDataset.create(CAMPAIGN, hierarchy)
        for lvl, mesh in enumerate(plan.meshes):
            tier = (tiers.base_tier if lvl == base_level
                    else tiers.preferred_tier_for_delta(lvl))
            _put(rec, op, dataset, mesh_key(GEOM_VAR, lvl),
                 _geometry(rec, op, mesh=mesh),
                 kind="mesh", level=lvl, preferred_tier=tier)
        for lvl, mapping in enumerate(plan.mappings):
            _put(rec, op, dataset, mapping_key(GEOM_VAR, lvl),
                 _geometry(rec, op, mapping=mapping), kind="mapping",
                 level=lvl,
                 preferred_tier=tiers.preferred_tier_for_delta(lvl))
        for step, data in enumerate(wl.steps):
            with rec.span("DecimationPlan.coarsen", "core", op):
                levels = plan.coarsen(data)
            with rec.span("DecimationPlan.deltas_for", "core", op):
                deltas = plan.deltas_for(levels)
            _put(rec, op, dataset, step_key("dpot", step, base_level, "base"),
                 _encode(rec, op, codec, levels[-1], "base"), levels[-1],
                 kind="base", level=base_level, codec=CODEC,
                 preferred_tier=tiers.base_tier)
            for lvl in SCHEME.delta_levels():
                _put(rec, op, dataset, step_key("dpot", step, lvl, "delta"),
                     _encode(rec, op, codec, deltas[lvl], "delta"),
                     deltas[lvl], kind="delta", level=lvl, codec=CODEC,
                     preferred_tier=tiers.preferred_tier_for_delta(lvl))
        with rec.span("BPDataset.close", "io", op):
            dataset.close()
    return root, plan


def staged_read_cold(wl, rec: SpanRecorder, op: int):
    """The read_cold op from open / read_many / decode / apply_delta."""
    get_restored_cache().clear()
    get_geometry_cache().clear()
    hierarchy = two_tier_titan(wl.root)
    fields: dict[tuple[str, int], np.ndarray] = {}

    def fetch(keys, var):
        with rec.span("BPDataset.read_many", "io", op, var=var) as span:
            blobs = dataset.read_many(keys)
            span["bytes_out"] = sum(len(b) for b in blobs.values())
        return blobs

    def decode(blob):
        with rec.span("decode_auto", "compress", op) as span:
            values = decode_auto(blob)
            span["bytes_in"], span["bytes_out"] = len(blob), values.nbytes
        return values

    def mesh_of(blob):
        with rec.span("mesh_from_bytes", "core", op):
            return mesh_from_bytes(blob)

    with rec.span("op", "bench", op):
        with rec.span("BPDataset.open", "io", op):
            dataset = BPDataset.open(DATASET, hierarchy)
        meta = dataset.catalog.attrs["variables"]
        base_level = SCHEME.base_level
        for level in REQUEST_LEVELS:
            for var in VARIABLES:
                if level == base_level:
                    keys = [level_key(var, level), mesh_key(var, level)]
                    blobs = fetch(keys, var)
                    fields[var, level] = decode(blobs[keys[0]]).reshape(
                        PLANES, -1
                    )
                    mesh_of(blobs[keys[1]])
                    continue
                n_chunks = int(meta[var]["chunks_per_level"][str(level)])
                parts = [chunk_key(var, level, c) for c in range(n_chunks)]
                blobs = fetch(
                    [mapping_key(var, level), mesh_key(var, level)]
                    + [k for part in parts for k in (part + "/idx", part)],
                    var,
                )
                with rec.span("LevelMapping.from_bytes", "core", op):
                    mapping = LevelMapping.from_bytes(
                        blobs[mapping_key(var, level)]
                    )
                mesh_of(blobs[mesh_key(var, level)])
                delta = np.zeros((PLANES, mapping.n_fine))
                for part in parts:
                    with rec.span("zlib.decompress(idx)", "core", op):
                        idx = np.frombuffer(
                            zlib.decompress(blobs[part + "/idx"]), dtype="<i8"
                        )
                    delta[..., idx] = decode(blobs[part]).reshape(
                        PLANES, len(idx)
                    )
                with rec.span("apply_delta", "core", op):
                    fields[var, level] = apply_delta(
                        fields[var, level + 1], delta, mapping
                    )
        dataset.close()
    return fields


# -- driving the traced pass -------------------------------------------------
def _self_s(calls, *names) -> float:
    return sum(calls[n]["self_s"] for n in names if n in calls)


def _per_call(calls, name) -> float:
    row = calls.get(name)
    return row["self_s"] / row["calls"] if row else 0.0


def _write_layers(calls, ops: int, steps_per_op: int) -> dict[str, float]:
    encode = calls["compress:codec.encode"]
    return {
        "core.replay_s_per_step": _per_call(
            calls, "core:DecimationPlan.coarsen"),
        "core.delta_s_per_step": _per_call(
            calls, "core:DecimationPlan.deltas_for"),
        "compress.encode_mb_s": encode["bytes_in"] / encode["self_s"] / 1e6,
        "core.geometry_encode_s": _self_s(
            calls, "core:mesh_to_bytes", "core:LevelMapping.to_bytes") / ops,
        "io.write_s_per_step": _self_s(
            calls, "io:BPDataset.write") / (ops * steps_per_op),
        "io.close_s": _self_s(calls, "io:BPDataset.close") / ops,
    }


def _ratios(spans) -> dict[str, float]:
    out = {}
    for kind in ("base", "delta"):
        rows = [s for s in spans
                if s["name"] == "codec.encode" and s["kind"] == kind]
        out[f"compress.ratio_{kind}"] = (
            sum(s["bytes_out"] for s in rows)
            / sum(s["bytes_in"] for s in rows)
        )
    return out


def _backend_probe(workdir) -> dict[str, float]:
    """FilesystemBackend.put/get on 1 MB objects."""
    backend = FilesystemBackend(workdir / "backend-probe")
    payload = np.random.default_rng(0).bytes(1 << 20)
    puts, gets = [], []
    for i in range(32):
        start = time.perf_counter()
        backend.put(f"object{i}", payload)
        puts.append(time.perf_counter() - start)
    for i in range(32):
        start = time.perf_counter()
        backend.get(f"object{i}")
        gets.append(time.perf_counter() - start)
    mb = len(payload) / 1e6
    return {
        "storage.backend_put_mb_s": mb / percentile(puts, 50),
        "storage.backend_get_mb_s": mb / percentile(gets, 50),
    }


def trace_write(wl, rec: SpanRecorder, seconds: float):
    """Traced pass of write_cold / write_steady."""
    cold = wl.name == "write_cold"
    stage = staged_write_cold if cold else staged_write_steady
    expected = product_crcs(wl.roots[0], wl.dataset)
    plans = []

    def check(conn, i, result):
        root, plan = result
        plans.append(plan)
        if product_crcs(root, wl.dataset) != expected:
            wl.fail(f"staged op {i}: product CRCs differ from end to end")

    loop = closed_loop(
        wl, seconds, op=lambda conn, i: stage(wl, rec, i), account=check
    )
    calls = by_call(rec.spans)
    ops = len(loop.samples)
    steps = len(wl.fields) if cold else len(wl.steps)
    layers = {**_write_layers(calls, ops, steps), **_ratios(rec.spans)}
    if cold:
        layers["mesh.decimate_s"] = _self_s(calls, "mesh:build_plan") / ops
        layers["mesh.collapses"] = sum(
            lineage.num_merges for lineage in plans[0].lineages
        )
        start = time.perf_counter()
        build_plan(wl.mesh, SCHEME, method="batched")
        layers["mesh.decimate_batched_s"] = time.perf_counter() - start
    else:
        layers.update(_backend_probe(wl.workdir))
    return loop, layers


def trace_read(wl, rec: SpanRecorder, seconds: float):
    """Traced pass of read_cold."""

    def check(conn, i, fields):
        for key, ref in wl.refs.items():
            if fields[key].tobytes() != ref.tobytes():
                wl.fail(f"staged op {i}: {key} differs from Session.restore")
                break

    loop = closed_loop(
        wl, seconds, op=lambda conn, i: staged_read_cold(wl, rec, i),
        account=check,
    )
    calls = by_call(rec.spans)
    decode = calls["compress:decode_auto"]
    ops = len(loop.samples)
    return loop, {
        "io.open_s": _self_s(calls, "io:BPDataset.open") / ops,
        "io.read_chain_cold_s": _self_s(
            calls, "io:BPDataset.read_many") / (ops * len(VARIABLES)),
        "compress.decode_mb_s": decode["bytes_out"] / decode["self_s"] / 1e6,
        "core.geometry_decode_s": _self_s(
            calls, "core:mesh_from_bytes", "core:LevelMapping.from_bytes"
        ) / ops,
        "core.restore_s_per_level": _per_call(calls, "core:apply_delta"),
    }


# -- served workloads: client-side spans + server access log ----------------
def _traced_get(rec, connection, target, op_id):
    with rec.span("request", "client", op_id, target=target):
        with rec.span("request.write", "client", op_id):
            connection.send(target)
        with rec.span("wait", "client", op_id):
            status, headers = connection.read_head()
        with rec.span("body.read", "client", op_id) as span:
            body = connection.read_body(headers)
            span["bytes_out"] = len(body)
        if status == 200 and body[:6] == b"\x93NUMPY":
            with rec.span("np.load", "client", op_id):
                np.load(io.BytesIO(body))
    return status, headers, body


def _rtt_ms(connection, target, count=200) -> float:
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        status = connection.get(target)[0]
        samples.append(time.perf_counter() - start)
        if status != 200:
            raise RuntimeError(f"GET {target} -> {status}")
    return percentile(samples, 50) * 1e3


def _access_log_p50_ms(path, skip_lines: int) -> float:
    lines = path.read_text().splitlines()[skip_lines:]
    walls = [
        line["wall_seconds"] for line in map(json.loads, lines)
        if line.get("route") == RESTORE_ROUTE and line.get("status") == 200
    ]
    return percentile(walls, 50) * 1e3 if walls else 0.0


def trace_served(wl, rec: SpanRecorder, seconds: float, untraced):
    """Traced pass of serve_hot / serve_roi.

    ``untraced`` is the untraced half's LoopResult: its op count keeps
    serve_roi on regions the server has not seen, and its p50 is the
    base of the tracing-overhead ratios.
    """
    skip = len(wl.access_log.read_text().splitlines())
    wl.fetch = lambda connection, target, op_id: _traced_get(
        rec, connection, target, op_id
    )
    with rec.span("connect", "client", "setup"):
        wl.server.connect(0).close()
    try:
        loop = closed_loop(wl, seconds, first=untraced.attempted)
    finally:
        del wl.fetch
    layers = {
        "service.server_p50_ms": _access_log_p50_ms(wl.access_log, skip),
        "service.client_decode_ms": percentile(
            [s["end"] - s["start"] for s in rec.spans
             if s["name"] == "np.load"] or [0.0], 50) * 1e3,
    }
    if wl.name == "serve_hot":
        layers.update(_hot_probes(wl, percentile(untraced.samples, 50)))
    else:
        wl.check_kept()  # the traced half's bodies; finish() did the rest
        layers.update(_roi_probes(wl))
    return loop, layers


def _hot_probes(wl, untraced_p50: float) -> dict[str, float]:
    connection = wl.control
    small, large = (
        inputs.restore_target(DATASET, {"var": "dpot", "level": level})
        for level in (REQUEST_LEVELS[0], REQUEST_LEVELS[-1])
    )
    rtt_small, rtt_large = _rtt_ms(connection, small), _rtt_ms(connection, large)
    mb = [len(connection.get(t)[2]) / 1e6 for t in (small, large)]
    plan_target = f"/v1/campaigns/{DATASET}/vars/dpot/plan?level=0"
    out = {
        "service.healthz_rtt_ms": _rtt_ms(connection, "/healthz"),
        "service.metadata_rtt_ms": _rtt_ms(connection, plan_target),
        "service.hot_rtt_ms.L2": rtt_small,
        "service.hot_rtt_ms.L0": rtt_large,
        "service.body_ms_per_mb": (rtt_large - rtt_small) / (mb[1] - mb[0]),
    }
    # The floor under serve_hot: the same warm restore with no wire.
    campaign = wl.oracle()
    campaign.restore("dpot", level=0)
    warm = []
    for _ in range(2000):
        start = time.perf_counter()
        campaign.restore("dpot", level=0)
        warm.append(time.perf_counter() - start)
    out["core.warm_restore_us"] = percentile(warm, 50) * 1e6
    # The same two-connection loop against a second server with request
    # tracing fully on.
    traced = Server(
        wl.root, wl.workdir, ("--tracing", "--trace-sample-rate", "1.0")
    )
    own = wl.conns
    try:
        wl.conns = [traced.connect(c) for c in range(wl.connections)]
        for target in wl.targets:
            wl.conns[0].get(target)
        samples = closed_loop(wl, 2.0).samples
        for connection in wl.conns:
            connection.close()
    finally:
        wl.conns = own
        traced.stop()
    out["obs.server_tracing_overhead_ratio"] = (
        percentile(samples, 50) / untraced_p50
    )
    return out


def _roi_probes(wl) -> dict[str, float]:
    """CampaignHandle.plan over the request stream, in-process."""
    campaign = wl.oracle()
    times, skipped, decided = [], 0, 0
    for request in wl.requests[:200]:
        kwargs = inputs.restore_kwargs(request)
        start = time.perf_counter()
        plan = campaign.plan(request["var"], **kwargs)
        times.append(time.perf_counter() - start)
        skipped += sum(not d.fetched for d in plan.decisions)
        decided += len(plan.decisions)
    return {
        "query.plan_ms": percentile(times, 50) * 1e3,
        "query.pruned_product_ratio": skipped / decided,
    }
