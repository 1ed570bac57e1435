"""Tests for the multi-tenant HTTP read tier (repro.service).

One in-process :class:`CanopusService` (hosted on a dedicated thread by
:class:`ServiceThread`) serves an XGC1-style campaign; every assertion
goes over a real socket through the hand-rolled HTTP layer. Covers the
endpoint surface, bearer auth, the stable error-code → status contract,
resumable delta cursors (304 / 409), quota enforcement (429 +
Retry-After), and the per-tenant obs counters.
"""

import asyncio
import json
import logging
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import CanopusEncoder, LevelScheme
from repro.core.restored_cache import get_geometry_cache, get_restored_cache
from repro.errors import (
    AuthError,
    ConflictError,
    QueryError,
    QuotaError,
    RestorationError,
    VariableNotFoundError,
)
from repro.io import BPDataset
from repro.obs import get_registry
from repro.service import (
    CanopusService,
    ServiceClient,
    ServiceThread,
    TenantConfig,
    TenantRegistry,
)
from repro.service.http import COALESCE_BYTES, Request, Response
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

VARS = ["dpot", "apar"]
TOL = 1e-5


def _drive(coro):
    """Run one client coroutine against the threaded service."""
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def campaign_root(tmp_path_factory):
    src = make_xgc1(scale=0.2)
    rng = np.random.default_rng(7)
    fields = {
        "dpot": src.field,
        "apar": 0.5 * src.field + 0.1 * rng.standard_normal(src.field.shape),
    }
    root = tmp_path_factory.mktemp("svc")
    h = two_tier_titan(root, fast_capacity=64 << 20, slow_capacity=1 << 36)
    enc = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": TOL, "mode": "relative"},
        chunks=4,
    )
    ds = BPDataset.create("camp", h)
    for var, f in fields.items():
        enc.encode("camp", var, src.mesh, f, LevelScheme(3),
                   dataset=ds, close=False)
    ds.close()
    return root, fields


@pytest.fixture(scope="module")
def service(campaign_root):
    root, fields = campaign_root
    get_restored_cache().clear()
    get_geometry_cache().clear()
    h = two_tier_titan(root, fast_capacity=64 << 20, slow_capacity=1 << 36)
    tenants = [
        TenantConfig(name="alice", token="tok-alice"),
        TenantConfig(name="bob", token="tok-bob"),
        TenantConfig(
            name="cheap", token="tok-cheap",
            max_requests=2, window_seconds=3600.0,
        ),
    ]
    svc = CanopusService(h, tenants=tenants, executor_workers=4)
    with ServiceThread(svc):
        yield svc, fields
    get_restored_cache().clear()
    get_geometry_cache().clear()


class TestHttpPrimitives:
    def test_response_roundtrip_via_parse(self):
        resp = Response.json({"a": 1}, status=200)
        frames = []
        resp.write_to(SimpleNamespace(write=frames.append), keep_alive=True)
        wire = b"".join(frames)
        assert wire.startswith(b"HTTP/1.1 200 OK\r\n")
        assert f"content-length: {len(resp.body)}\r\n".encode() in wire
        assert wire.endswith(b"\r\n\r\n" + resp.body)

    def test_large_buffers_are_written_uncopied(self):
        big = memoryview(bytes(COALESCE_BYTES + 1))
        resp = Response.binary((b"npy-header", big, b"tail"))
        frames = []
        resp.write_to(SimpleNamespace(write=frames.append))
        # Small buffers ride with their neighbours; the big one is the
        # very object the response was given.
        assert len(frames) == 3 and frames[1] is big
        assert frames[0].endswith(b"\r\n\r\nnpy-header")
        assert frames[2] == b"tail"
        length = len(b"npy-header") + len(big) + len(b"tail")
        assert f"content-length: {length}\r\n".encode() in frames[0]

    def test_request_query_parsing(self):
        req = Request(
            method="GET", path="/x", query={"level": "2"},
            headers={"authorization": "Bearer t"}, body=b"",
        )
        assert req.header("Authorization") == "Bearer t"
        assert req.query["level"] == "2"


class TestEndpoints:
    def test_healthz_unauthenticated(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port) as c:
                return await c.healthz()

        assert _drive(go()) is True

    def test_open_and_describe(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                return await c.open_campaign("camp")

        info = _drive(go())
        assert info["name"] == "camp"
        assert sorted(info["variables"]) == sorted(VARS)
        assert info["variables"]["dpot"]["num_levels"] == 3
        assert len(info["fingerprint"]) == 32

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_restore_levels_bit_identical(self, service, level):
        """Wire payloads equal a direct in-process handle restore."""
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                return await c.restore("camp", "dpot", level=level)

        field, meta = _drive(go())
        direct = svc.datanode.session.open("camp").restore_chain(
            "dpot", level
        )
        assert meta["level"] == level
        assert field.dtype == direct.field.dtype
        assert np.array_equal(field, direct.field)

    def test_restore_tolerance_mode(self, service):
        svc, fields = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                return await c.restore("camp", "apar", tolerance=1e-2)

        field, meta = _drive(go())
        assert field.shape == fields["apar"].shape
        # refine_until stops at the tolerance or at full accuracy,
        # whichever comes first.
        assert meta["rms"] <= 1e-2 or meta["level"] == 0

    def test_stats_pushdown_rows(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-bob") as c:
                return await c.stats("camp", "dpot")

        rows = _drive(go())
        assert rows, "expected per-chunk stat rows"
        for row in rows:
            assert row["key"].split("/")[0] == "dpot"
            assert {"vmin", "vmax", "vabs_max"} <= set(row["stats"])

    def test_raw_range_read(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-bob") as c:
                info = await c.open_campaign("camp")
                full, meta = await c.read_raw("camp", "dpot/L2")
                part, _ = await c.read_raw(
                    "camp", "dpot/L2", start=4, length=8
                )
                return full, part, meta

        full, part, meta = _drive(go())
        assert part == full[4:12]
        assert int(meta["total-bytes"]) == len(full)

    def test_metrics_endpoint_per_tenant(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                await c.restore("camp", "dpot", level=2)
                return await c.metrics()

        payload = _drive(go())
        assert "alice" in payload["tenants"]
        assert payload["tenants"]["alice"]["total_requests"] > 0
        assert payload["tenants"]["alice"]["total_bytes"] > 0
        service_keys = list(payload["service"])
        assert any(k.startswith("service.requests") for k in service_keys)
        assert "camp" in payload["datanode"]["campaigns"]
        assert "hit_ratio" in payload["datanode"]["engine"]["camp"]


class TestErrorTaxonomy:
    def test_unknown_token_401(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port, token="nope") as c:
                await c.open_campaign("camp")

        with pytest.raises(AuthError):
            _drive(go())

    def test_missing_token_401(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port) as c:
                await c.open_campaign("camp")

        with pytest.raises(AuthError):
            _drive(go())

    def test_unknown_campaign_404(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                await c.open_campaign("ghost")

        with pytest.raises(VariableNotFoundError):
            _drive(go())

    def test_unknown_variable_404(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                await c.restore("camp", "ghost", level=0)

        with pytest.raises(VariableNotFoundError):
            _drive(go())

    def test_level_and_tolerance_400(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                await c.restore("camp", "dpot", level=0, tolerance=1e-3)

        with pytest.raises(RestorationError):
            _drive(go())

    def test_bad_query_param_400(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                resp = await c._get(
                    "/v1/campaigns/camp/vars/dpot/restore?level=abc"
                )
                return resp

        resp = _drive(go())
        assert resp.status == 400
        assert resp.parsed_json()["code"] == "bad-request"

    @pytest.mark.parametrize("route", ["restore", "plan"])
    @pytest.mark.parametrize("level", [7, -1])
    def test_out_of_range_level_400(self, service, route, level):
        """A level outside [0, N) is the client's mistake, not a 500."""
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                return await c._get(
                    f"/v1/campaigns/camp/vars/dpot/{route}?level={level}"
                )

        resp = _drive(go())
        assert resp.status == 400
        assert resp.parsed_json()["code"] == "bad-request"

    @pytest.mark.parametrize("route", ["restore", "plan"])
    @pytest.mark.parametrize("selection", [
        "tolerance=nan",
        "min_significance=-1",
        "min_significance=nan",
        "level=0&min_significance=nan",
    ])
    def test_nan_tolerance_and_bad_significance_400(
        self, service, route, selection
    ):
        """A NaN target or filter is refused, never restored at full
        accuracy, and leaves no resolution in the planner's memo."""
        svc, _ = service
        planner = svc.datanode.session.open("camp").planner
        before = len(planner.resolutions)

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                return [
                    await c._get(
                        f"/v1/campaigns/camp/vars/dpot/{route}?{selection}"
                    )
                    for _ in range(4)
                ]

        for resp in _drive(go()):
            assert resp.status == 400
            assert resp.parsed_json()["code"] == "bad-request"
        assert len(planner.resolutions) == before

    @pytest.mark.parametrize("selection", [
        {"tolerance": float("nan")},
        {"level": 0, "min_significance": -1.0},
        {"level": 0, "min_significance": float("nan")},
    ])
    def test_datanode_rejects_nan_before_resident_path(
        self, service, selection
    ):
        """Refused in-process too, even for a target already resident."""
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                await c.restore("camp", "dpot", level=0)

        _drive(go())
        with pytest.raises(QueryError):
            asyncio.run(svc.datanode.restore("camp", "dpot", **selection))

    def test_unknown_route_404(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                return await c._get("/v1/nothing/here")

        resp = _drive(go())
        assert resp.status == 404
        assert resp.parsed_json()["code"] == "not-found"


class TestMalformedFrames:
    """A frame the parser refuses is answered 400, never a bare close."""

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3", "\u00b2"])
    def test_unparsable_content_length_400(self, service, caplog, length):
        svc, _ = service

        async def go():
            reader, writer = await asyncio.open_connection(svc.host, svc.port)
            writer.write(
                f"GET /healthz HTTP/1.1\r\ncontent-length: {length}\r\n\r\n"
                .encode("latin-1")
            )
            await writer.drain()
            wire = await reader.read()  # the server closes after a 400
            writer.close()
            await writer.wait_closed()
            return wire

        with caplog.at_level(logging.WARNING):
            wire = _drive(go())
        head, _, body = wire.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"connection: close" in head.lower()
        payload = json.loads(body)
        assert payload["code"] == "service"
        assert "content-length" in payload["error"]
        assert not caplog.records, [r.getMessage() for r in caplog.records]


class TestDeltaCursors:
    def test_if_none_match_304(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                _, meta = await c.restore("camp", "dpot", level=1)
                again = await c.restore(
                    "camp", "dpot", level=1, if_none_match=meta["cursor"]
                )
                return meta, again

        meta, (body, meta2) = _drive(go())
        assert body is None
        assert meta2["status"] == 304
        assert meta2["cursor"] == meta["cursor"]
        assert meta2["bytes"] == 0

    def test_cursor_resume_to_finer_level(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                _, coarse = await c.restore("camp", "apar", level=2)
                field, fine = await c.restore(
                    "camp", "apar", level=0, cursor=coarse["cursor"]
                )
                return coarse, fine, field

        coarse, fine, field = _drive(go())
        assert coarse["cursor"].endswith(".apar.L2." + coarse["cursor"].split(".")[-1])
        assert fine["level"] == 0
        direct = svc.datanode.session.open("camp").restore_chain("apar", 0)
        assert np.array_equal(field, direct.field)

    def test_stale_cursor_409(self, service):
        svc, _ = service
        bogus = "0" * 12 + ".dpot.L1.deadbeef"

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                await c.restore("camp", "dpot", level=1, cursor=bogus)

        with pytest.raises(ConflictError):
            _drive(go())

    def test_cursor_carries_filter_state(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                _, plain = await c.restore("camp", "dpot", level=1)
                _, sig = await c.restore(
                    "camp", "dpot", level=1, min_significance=0.5
                )
                return plain, sig

        plain, sig = _drive(go())
        assert plain["cursor"] != sig["cursor"]


class TestQuotas:
    def test_rate_quota_429_with_retry_after(self, service):
        svc, _ = service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-cheap") as c:
                for _ in range(2):
                    await c.restore("camp", "dpot", level=2)
                await c.restore("camp", "dpot", level=2)

        with pytest.raises(QuotaError) as err:
            _drive(go())
        assert err.value.retry_after > 0

    def test_quota_rejection_counted(self, service):
        svc, _ = service
        usage = svc.tenants.usage("cheap")
        assert usage["rejected"] >= 1
        reg = get_registry()
        assert reg.value("service.quota_rejections", tenant="cheap") >= 1


class TestTenantRegistryUnit:
    def test_duplicate_token_rejected(self):
        from repro.errors import ConfigError

        reg = TenantRegistry([TenantConfig(name="a", token="t")])
        with pytest.raises(ConfigError):
            reg.add(TenantConfig(name="b", token="t"))

    def test_byte_quota_window(self):
        clock = {"now": 0.0}
        reg = TenantRegistry(
            [TenantConfig(name="a", token="t", max_bytes=100,
                          window_seconds=10.0)],
            metrics=get_registry(), clock=lambda: clock["now"],
        )
        t = reg.authenticate("Bearer t")
        reg.admit(t)
        reg.charge_bytes(t, 150)
        reg.release(t)
        with pytest.raises(QuotaError):
            reg.admit(t)
        clock["now"] = 11.0  # window rolls over -> admitted again
        reg.admit(t)
        reg.release(t)

    def test_inflight_quota(self):
        reg = TenantRegistry(
            [TenantConfig(name="a", token="t", max_inflight=1)]
        )
        t = reg.authenticate("Bearer t")
        reg.admit(t)
        with pytest.raises(QuotaError):
            reg.admit(t)
        reg.release(t)
        reg.admit(t)

    def test_tenants_file_roundtrip(self, tmp_path):
        import json

        path = tmp_path / "tenants.json"
        path.write_text(json.dumps([
            {"name": "a", "token": "ta", "max_requests": 5},
            {"name": "b", "token": "tb"},
        ]))
        reg = TenantRegistry.from_file(path)
        assert [t.name for t in reg.tenants()] == ["a", "b"]
        assert reg.authenticate("Bearer ta").max_requests == 5
