"""One catalog model, one walker each way: the two references.

``reference_restore`` is Algorithm 3 written out against the stored
format — raw ``dataset.read`` + ``decode_auto`` + ``apply_delta``, with
the catalog keys spelled by hand — and is the oracle for every writer's
output: single-shot (monolithic and chunked), ``write_campaign`` and
``encode_partitioned``.

``reference_refactor`` / ``reference_products`` are its write-side
mirror: Algorithms 1–2 from the layers below ``repro.core``'s writers
(``decimate`` with the field carried through the collapse, level by
level, ``build_mapping``, ``compute_delta``, ``codec.encode``), giving
the ``{key: payload bytes}`` every writer on every executor must store.
"""

import ast
import asyncio
import pathlib
import threading
import zlib

import numpy as np
import pytest

from repro.api import (
    BPDataset,
    CampaignReader,
    CanopusEncoder,
    LevelScheme,
    Session,
    encode_partitioned,
    get_geometry_cache,
    get_restored_cache,
    trace_session,
    two_tier_titan,
    write_campaign,
)
from repro.compress import decode_auto, get_codec
from repro.core.campaign import CampaignWriter
from repro.core.delta import apply_delta, compute_delta
from repro.core.encoder import _spatial_chunks
from repro.core.mapping import LevelMapping, build_mapping
from repro.core.plan import plan_placement
from repro.errors import (
    QueryError,
    RestorationError,
    VariableNotFoundError,
    http_status,
)
from repro.harness.experiment import stack_planes
from repro.mesh.edge_collapse import decimate
from repro.mesh.io import mesh_from_bytes, mesh_to_bytes
from repro.mesh.partition import MeshPartition, gather_field, partition_mesh
from repro.obs import context as obs_context
from repro.obs import trace
from repro.service import (
    CanopusService,
    ServiceClient,
    ServiceThread,
    TenantConfig,
)
from repro.simulations import make_xgc1

SCHEME = LevelScheme(3)
PARAMS = {"tolerance": 1e-4, "mode": "relative"}
STEPS = 3
PARTS = 4  # partition_mesh tiles a square grid
PLANES = 3

#: layout name -> (key prefix of one chain, its geometry owner, the
#: Session coordinate that selects it)
LAYOUTS = {
    "mono": [("dpot", "dpot", {})],
    "chunked": [("dpot", "dpot", {})],
    "campaign": [
        (f"dpot/step{s}", "geometry", {"step": s}) for s in range(STEPS)
    ],
    "partitioned": [
        (f"dpot/part{p}", f"dpot/part{p}", {"part": p}) for p in range(PARTS)
    ],
}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    src = make_xgc1(scale=0.15)
    h = two_tier_titan(tmp_path_factory.mktemp("layouts"))
    CanopusEncoder(h, codec_params=PARAMS).encode(
        "mono", "dpot", src.mesh, src.field, SCHEME
    )
    CanopusEncoder(h, codec_params=PARAMS, chunks=16).encode(
        "chunked", "dpot", src.mesh, stack_planes(src, PLANES), SCHEME
    )
    steps = [src.field * (1.0 + 0.1 * s) for s in range(STEPS)]
    write_campaign(
        h, "campaign", "dpot", src.mesh, steps, SCHEME,
        codec_params={"tolerance": 1e-4},
    )
    encode_partitioned(
        h, "partitioned", "dpot", src.mesh, src.field, SCHEME,
        parts=PARTS, codec_params=PARAMS,
    )
    return src, h


@pytest.fixture(autouse=True)
def cold_caches():
    get_restored_cache().clear()
    get_geometry_cache().clear()


def reference_restore(
    ds, prefix, owner, level, *, region=None, min_significance=0.0
):
    """Algorithm 3 over the stored format; returns ``(field, mesh)``."""
    meta = ds.catalog.attrs["variables"]["dpot"]
    planes = int(meta.get("planes", 0))

    def shaped(flat, n):
        return flat.reshape(planes, n) if planes else flat

    base = SCHEME.base_level
    field = decode_auto(ds.read(f"{prefix}/L{base}"))
    field = shaped(field, field.size // max(planes, 1))
    for lvl in range(base - 1, level - 1, -1):
        mapping = LevelMapping.from_bytes(ds.read(f"{owner}/mapping{lvl}"))
        delta_key = f"{prefix}/delta{lvl}-{lvl + 1}"
        if int(meta.get("chunks", 1)) == 1:
            delta = shaped(decode_auto(ds.read(delta_key)), mapping.n_fine)
        else:
            delta = np.zeros(
                (planes, mapping.n_fine) if planes else (mapping.n_fine,)
            )
            for c in range(int(meta["chunks_per_level"][str(lvl)])):
                rec = ds.inq(f"{delta_key}/chunk{c}")
                x0, y0, x1, y1 = rec.attrs["bbox"]
                if region is not None and (
                    x1 < region[0][0] or x0 > region[1][0]
                    or y1 < region[0][1] or y0 > region[1][1]
                ):
                    continue
                if rec.attrs["stats"]["vabs_max"] < min_significance:
                    continue
                idx = np.frombuffer(
                    zlib.decompress(ds.read(f"{rec.key}/idx")), dtype="<i8"
                )
                delta[..., idx] = shaped(decode_auto(ds.read(rec.key)), len(idx))
        field = apply_delta(field, delta, mapping)
    return field, mesh_from_bytes(ds.read(f"{owner}/mesh{level}"))


def _filters(src, ds, layout):
    yield "unfiltered", {}
    if layout != "chunked":
        return
    center = src.mesh.vertices[int(np.argmax(src.field))]
    yield "region", {"region": (center - 0.4, center + 0.4)}
    # A threshold between the recorded chunk maxima drops some chunks.
    maxima = [
        ds.inq(f"dpot/delta0-1/chunk{c}").attrs["stats"]["vabs_max"]
        for c in range(
            ds.catalog.attrs["variables"]["dpot"]["chunks_per_level"]["0"]
        )
    ]
    yield "min_significance", {"min_significance": float(np.median(maxima))}


@pytest.mark.parametrize("level", [2, 1, 0])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_session_restore_equals_reference_loop(store, layout, level):
    src, h = store
    ds = BPDataset.open(layout, h)
    with Session(h) as session:
        handle = session.open(layout)
        assert handle.variables() == ["dpot"]
        for prefix, owner, coord in LAYOUTS[layout]:
            for label, flt in _filters(src, ds, layout):
                want, mesh = reference_restore(ds, prefix, owner, level, **flt)
                got = handle.restore("dpot", level=level, **coord, **flt)
                where = (layout, prefix, level, label)
                assert got.var == prefix, where
                assert got.level == level, where
                assert got.field.tobytes() == want.tobytes(), where
                assert np.array_equal(got.mesh.triangles, mesh.triangles)
                if flt and level < SCHEME.base_level:
                    # The filter really dropped chunks.
                    assert not got.refined_mask.all(), where


def test_campaign_reader_shim_equals_session(store):
    """``CampaignReader(h, name).restore(step, level)`` — kept for the
    perf harness — restores exactly what the session does."""
    _, h = store
    with Session(h) as session:
        reader = CampaignReader(h, "campaign")
        campaign = session.open("campaign")
        assert reader.var == "dpot"
        for step in range(STEPS):
            assert reader.restore(step).field.tobytes() == campaign.restore(
                "dpot", step=step, level=0
            ).field.tobytes()
            for level in SCHEME.levels():
                assert np.array_equal(
                    reader.restore(step, level).field,
                    campaign.restore("dpot", step=step, level=level).field,
                )


def test_restore_chains_equal_session(store):
    _, h = store
    with Session(h) as session:
        batch = Session(h, use_restored_cache=False).open("partitioned")
        parts = session.open("partitioned")
        chains = [parts.chain("dpot", part=part) for part in range(PARTS)]
        restored = batch.restore_chains(chains, 1)
        assert list(restored) == chains
        for part, chain in enumerate(chains):
            state = parts.restore("dpot", part=part, level=1)
            assert np.array_equal(restored[chain].field, state.field)
            assert restored[chain].mesh.num_vertices == state.mesh.num_vertices
        for bad in (-1.0, float("nan")):
            with pytest.raises(QueryError):
                batch.restore_chains(chains, min_significance=bad)


def test_gather_equals_gather_field_over_part_restores(store):
    src, h = store
    with Session(h) as session:
        handle = session.open("partitioned")
        patches = partition_mesh(src.mesh, PARTS)
        states = [
            handle.restore("dpot", part=p.index, level=0) for p in patches
        ]
        want = gather_field(
            [
                MeshPartition(p.index, s.mesh, p.global_vertices, p.owned)
                for p, s in zip(patches, states)
            ],
            [s.field for s in states],
            src.mesh.num_vertices,
        )
        assert handle.gather("dpot").tobytes() == want.tobytes()
        with pytest.raises(QueryError):
            session.open("mono").gather("dpot")
        with pytest.raises(VariableNotFoundError):
            handle.gather("apar")


def test_gather_charges_what_the_partitioned_view_charged(store):
    """Cold caches, restored cache skipped: one prefetch batch over
    every patch, then the patches one by one. The figure is what
    ``PartitionedDecoder(h, name).gather_full_accuracy()`` charged on
    this fixture before the handle absorbed it."""
    _, h = store
    before = h.clock.elapsed
    Session(h, use_restored_cache=False).open("partitioned").gather("dpot")
    assert h.clock.elapsed - before == pytest.approx(
        0.0015317433675130204, rel=1e-9
    )


def test_campaign_plans_and_queries(store):
    _, h = store
    with Session(h) as session:
        campaign = session.open("campaign")
        assert campaign.describe()["variables"]["dpot"]["steps"] == [0, 1, 2]
        plan = campaign.plan("dpot", step=1, tolerance=1e-3)
        assert plan.complete and plan.var == "dpot/step1"
        assert {d.key for d in plan.decisions if d.fetched} >= {
            "dpot/step1/L2", "geometry/mapping1", "geometry/mesh2",
        }
        by_tolerance = campaign.restore("dpot", step=1, tolerance=1e-3)
        assert by_tolerance.level == plan.target_level
        exact = campaign.restore("dpot", step=1, level=0)
        stats = campaign.query_stats("dpot", step=1)
        assert stats["stats"]["vmax"] == float(exact.field.max())
        many = campaign.restore_many(["dpot"], step=2, level=1)
        assert np.array_equal(
            many["dpot"].field,
            campaign.restore("dpot", step=2, level=1).field,
        )


def test_coordinate_errors(store):
    _, h = store
    with Session(h) as session:
        campaign = session.open("campaign")
        with pytest.raises(VariableNotFoundError):
            campaign.restore("dpot", step=99)
        with pytest.raises(VariableNotFoundError):
            campaign.restore("nope", step=0)
        with pytest.raises(QueryError):
            campaign.restore("dpot")  # a campaign needs its step
        with pytest.raises(QueryError):
            session.open("mono").restore("dpot", step=0)
        with pytest.raises(QueryError):
            session.open("mono").plan("dpot", part=0)
        with pytest.raises(VariableNotFoundError):
            session.open("partitioned").restore("dpot", part=PARTS)


def test_campaign_geometry_decoded_once(tmp_path):
    src = make_xgc1(scale=0.1)
    h = two_tier_titan(tmp_path)
    write_campaign(
        h, "long", "dpot", src.mesh, [src.field + s for s in range(16)],
        SCHEME, codec_params={"tolerance": 1e-4},
    )
    get_geometry_cache().clear()
    before = get_geometry_cache().stats()["decodes"]
    with Session(h) as session:
        campaign = session.open("long")
        reads_before = h.clock.bytes_moved(op="read")
        for step in range(16):
            campaign.restore("dpot", step=step, level=0)
        geometry_bytes = sum(
            campaign.inq(key).length
            for key in campaign.keys()
            if key.startswith("geometry/")
        )
        payload_bytes = sum(
            campaign.inq(key).length
            for key in campaign.keys()
            if key.startswith("dpot/")
        )
    # 3 meshes + 2 mappings, once for all 16 steps — decoded and read.
    assert get_geometry_cache().stats()["decodes"] - before == 5
    assert (
        h.clock.bytes_moved(op="read") - reads_before
        == geometry_bytes + payload_bytes
    )


class TestServedStep:
    @pytest.fixture(scope="class")
    def service(self, store):
        _, h = store
        svc = CanopusService(
            h, tenants=[TenantConfig(name="alice", token="tok")]
        )
        with ServiceThread(svc):
            yield svc

    @staticmethod
    def _client(svc, call):
        async def go():
            async with ServiceClient(svc.host, svc.port, token="tok") as c:
                return await call(c)

        return asyncio.run(go())

    def test_step_body_equals_in_process_field(self, store, service):
        _, h = store
        with Session(h) as session:
            want = session.open("campaign").restore(
                "dpot", step=2, level=0
            )
        field, meta = self._client(
            service, lambda c: c.restore("campaign", "dpot", step=2, level=0)
        )
        assert field.tobytes() == want.field.tobytes()
        assert meta["level"] == 0
        assert ".dpot/step2.L0." in meta["cursor"]
        # The cursor of one step says nothing about another.
        again, meta2 = self._client(
            service,
            lambda c: c.restore(
                "campaign", "dpot", step=1, level=0,
                if_none_match=meta["cursor"],
            ),
        )
        assert again is not None and meta2["cursor"] != meta["cursor"]

    def test_plan_and_stats_over_http(self, service):
        plan = self._client(
            service, lambda c: c.plan("campaign", "dpot", step=0, level=1)
        )
        assert plan["var"] == "dpot/step0" and plan["target_level"] == 1
        stats = self._client(
            service, lambda c: c.query_stats("campaign", "dpot", step=0)
        )
        assert stats["var"] == "dpot/step0" and stats["stats"]["count"] > 0

    def test_wire_errors(self, service):
        with pytest.raises(VariableNotFoundError):
            self._client(
                service, lambda c: c.restore("campaign", "dpot", step=99)
            )
        with pytest.raises(RestorationError):  # 400 on the wire
            self._client(service, lambda c: c.restore("mono", "dpot", step=0))
        assert http_status(VariableNotFoundError("x")) == 404
        assert http_status(QueryError("x")) == 400


def test_partitioned_products_follow_plan_placement(store):
    _, h = store
    ds = BPDataset.open("partitioned", h)
    plan = plan_placement(SCHEME, len(h))
    tiers = [t.name for t in h.tiers]
    base = SCHEME.base_level
    seen = 0
    for part in range(PARTS):
        prefix = f"dpot/part{part}"
        expected = {f"{prefix}/L{base}": (base, "base")}
        for lvl in SCHEME.levels():
            expected[f"{prefix}/mesh{lvl}"] = (lvl, "mesh")
        for lvl in SCHEME.delta_levels():
            expected[f"{prefix}/delta{lvl}-{lvl + 1}"] = (lvl, "delta")
            expected[f"{prefix}/mapping{lvl}"] = (lvl, "mapping")
        for key, (lvl, kind) in expected.items():
            rec = ds.inq(key)
            tier = plan.base_tier if lvl == base else plan.delta_tiers[lvl]
            assert (rec.tier, rec.level, rec.kind) == (tiers[tier], lvl, kind)
            seen += 1
    assert seen == len(ds.keys())
    # delta1-2 is not a base-level product (it used to land on tmpfs).
    assert ds.inq("dpot/part0/delta1-2").tier == ds.inq("dpot/part0/mapping1").tier


@pytest.mark.parametrize("view", ["campaign", "partitioned"])
def test_view_fanout_stays_in_callers_trace(tmp_path, view):
    src = make_xgc1(scale=0.1)
    h = two_tier_titan(tmp_path)
    if view == "campaign":
        write_campaign(
            h, "v", "dpot", src.mesh, [src.field + s for s in range(4)],
            SCHEME, codec_params={"tolerance": 1e-4},
        )

        def run():
            handle = Session(h, use_restored_cache=False).open("v")
            handle.decoder.prefetch_geometry(handle.chain("dpot", step=0))
            return handle.restore_chains(
                [handle.chain("dpot", step=step) for step in range(4)]
            )
    else:
        encode_partitioned(
            h, "v", "dpot", src.mesh, src.field, SCHEME, parts=4,
            codec_params=PARAMS,
        )

        def run():
            return Session(h, use_restored_cache=False).open("v").gather("dpot")

    ctx = obs_context.TraceContext(trace_id=obs_context.new_trace_id())
    with trace_session(h) as tracer:
        token = obs_context.activate(ctx)
        try:
            with trace.span("test.request", "test"):
                before = h.clock.elapsed
                run()
                charged = h.clock.elapsed - before
        finally:
            obs_context.deactivate(token)
    mine = [s for s in tracer.spans if s.trace_id == ctx.trace_id]
    assert charged > 0
    assert sum(s.sim_read for s in mine) == pytest.approx(charged, rel=1e-9)
    # The four restores are the caller's spans, and they and every span
    # fetch behind them run on the caller's thread.
    restores = [s for s in tracer.spans if s.name == "decode.restore"]
    assert len(restores) == 4
    assert all(s.trace_id == ctx.trace_id for s in restores)
    work = [s for s in tracer.spans
            if s.name in ("decode.restore", "engine.fetch_span")]
    assert {s.name for s in work} == {"decode.restore", "engine.fetch_span"}
    assert {s.thread for s in work} == {threading.current_thread().name}


def test_key_spellings_live_in_notation_and_layout():
    """No module but notation/layout builds a catalog key by hand."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    allowed = {src / "core" / "notation.py", src / "core" / "layout.py"}
    spellings = ("/mesh", "/mapping", "/delta", "/step", "/part", "/idx",
                 "/chunk", "/L")
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.JoinedStr):
                literal = "".join(
                    part.value
                    for part in node.values
                    if isinstance(part, ast.Constant)
                )
                # An f-string that continues a path after a "{...}".
                hit = any(
                    isinstance(prev, ast.FormattedValue)
                    and isinstance(part, ast.Constant)
                    and part.value.startswith(spellings)
                    for prev, part in zip(node.values, node.values[1:])
                )
            elif isinstance(node, ast.Constant) and node.value == "/idx":
                literal, hit = node.value, True
            else:
                continue
            if hit:
                offenders.append(f"{path.relative_to(src)}:{node.lineno} {literal!r}")
    assert not offenders, offenders


# ---------------------------------------------------------------------------
# write side: the reference every writer's stored bytes must equal
def reference_refactor(
    mesh, data, scheme, *, method="serial", priority="length", estimator="mean"
):
    """Algorithms 1–2 spelled out: ``(meshes, levels, mappings, deltas)``.

    Algorithm 1 runs level by level with the field carried through the
    collapse (``decimate(mesh, fields)``), so nothing here replays a
    lineage or consults a plan.
    """
    data = np.asarray(data, dtype=np.float64)
    fields = {str(p): row for p, row in enumerate(np.atleast_2d(data))}
    meshes, levels = [mesh], [data]
    for _ in scheme.delta_levels():
        step = decimate(
            meshes[-1], fields, ratio=scheme.step_ratio,
            priority=priority, method=method,
        )
        fields = step.fields
        meshes.append(step.mesh)
        rows = [fields[str(p)] for p in range(len(fields))]
        levels.append(np.stack(rows) if data.ndim == 2 else rows[0])
    mappings = [
        build_mapping(meshes[lvl], meshes[lvl + 1], estimator=estimator)
        for lvl in scheme.delta_levels()
    ]
    deltas = [
        compute_delta(levels[lvl], levels[lvl + 1], mappings[lvl])
        for lvl in scheme.delta_levels()
    ]
    return meshes, levels, mappings, deltas


def reference_products(prefix, owner, refactored, codec, chunks=1):
    """``{key: payload bytes}`` of one chain, plus the geometry it owns."""
    meshes, levels, mappings, deltas = refactored
    out = {f"{prefix}/L{len(deltas)}": codec.encode(levels[-1].ravel())}
    for lvl, delta in enumerate(deltas):
        key = f"{prefix}/delta{lvl}-{lvl + 1}"
        if chunks == 1:
            out[key] = codec.encode(delta.ravel())
            continue
        groups = _spatial_chunks(meshes[lvl].vertices, chunks)
        for c, idx in enumerate(groups):
            out[f"{key}/chunk{c}"] = codec.encode(delta[..., idx].ravel())
            out[f"{key}/chunk{c}/idx"] = zlib.compress(
                idx.astype("<i8").tobytes(), 6
            )
    if owner:
        for lvl, mesh in enumerate(meshes):
            out[f"{owner}/mesh{lvl}"] = mesh_to_bytes(mesh)
        for lvl, mapping in enumerate(mappings):
            out[f"{owner}/mapping{lvl}"] = mapping.to_bytes()
    return out


WRITE_TOLERANCE = {"tolerance": 1e-4}
WRITE_PLANES = 4
WRITE_STEPS = 2

#: (writer, executor): every executor each writer has.
WRITERS = [
    ("encoder", "inline"), ("encoder", "workers"),
    ("encoder-chunked", "inline"), ("encoder-chunked", "workers"),
    ("campaign", "inline"), ("campaign", "workers"),
    ("partitioned", "inline"), ("partitioned", "workers"),
]


@pytest.fixture(scope="module")
def write_reference():
    """``(src, refactored)``; ``refactored(mesh, data, method, priority)``
    memoises :func:`reference_refactor` across the matrix."""
    src = make_xgc1(scale=0.2, seed=5)
    memo = {}

    def refactored(mesh, data, method, priority):
        key = (mesh.num_vertices, data.tobytes(), method, priority)
        if key not in memo:
            memo[key] = reference_refactor(
                mesh, data, SCHEME, method=method, priority=priority
            )
        return memo[key]

    return src, refactored


@pytest.mark.parametrize("priority", ["length", "data_aware"])
@pytest.mark.parametrize("planes", [0, WRITE_PLANES])
@pytest.mark.parametrize("method", ["serial", "batched"])
@pytest.mark.parametrize("writer,executor", WRITERS)
def test_every_writer_stores_the_reference_products(
    tmp_path, write_reference, writer, executor, method, planes, priority
):
    src, refactored = write_reference
    h = two_tier_titan(tmp_path)
    mesh = src.mesh
    field = stack_planes(src, planes) if planes else src.field
    steps = [field * (1.0 + 0.1 * s) for s in range(WRITE_STEPS)]
    codec = get_codec("zfp", **WRITE_TOLERANCE)
    config = {
        "codec_params": WRITE_TOLERANCE, "method": method, "priority": priority,
    }
    workers = 2 if executor == "workers" else None
    # Only the single-shot encoder has its field when it decimates; the
    # others decimate from geometry alone, where "data_aware" orders
    # edges as "length" does.
    steered = priority if writer.startswith("encoder") else "length"
    want = {}
    if writer.startswith("encoder"):
        chunks = 8 if writer == "encoder-chunked" else 1
        CanopusEncoder(h, chunks=chunks, workers=workers, **config).encode(
            "w", "dpot", mesh, field, SCHEME
        )
        want = reference_products(
            "dpot", "dpot", refactored(mesh, field, method, steered),
            codec, chunks,
        )
    elif writer == "partitioned":
        encode_partitioned(
            h, "w", "dpot", mesh, field, SCHEME, parts=PARTS, workers=workers,
            **config,
        )
        for patch in partition_mesh(mesh, PARTS):
            chain = f"dpot/part{patch.index}"
            want |= reference_products(
                chain, chain,
                refactored(patch.mesh, patch.restrict(field), method, steered),
                codec,
            )
    else:
        with CampaignWriter(
            h, "w", "dpot", mesh, SCHEME, workers=workers, **config
        ) as campaign:
            for step, data in enumerate(steps):
                campaign.write_step(step, data)
        for step, data in enumerate(steps):
            want |= reference_products(
                f"dpot/step{step}", "geometry" if step == 0 else None,
                refactored(mesh, data, method, steered), codec,
            )
    ds = BPDataset.open("w", h)
    assert sorted(ds.keys()) == sorted(want)
    for key, payload in want.items():
        assert ds.read(key) == payload, key
