"""End-to-end tests for request tracing across the service path (PR 7).

A traced :class:`CanopusService` runs on its own thread; every
assertion goes over a real socket. Covers: W3C ``traceparent``
round-trips client→service→datanode→engine into ONE span tree whose
spans run on the service, datanode-executor, and engine-pool threads;
the sampling policy always capturing 5xx and slow-tail requests even at
``sample_rate=0.0``; trace-context isolation between concurrent
requests sharing the executor; the Prometheus exposition; and exact
per-request SimClock read-seconds parity with the per-tenant counters.
"""

import asyncio
import math
import re

import pytest

from repro.core import CanopusEncoder, LevelScheme
from repro.core.restored_cache import get_geometry_cache, get_restored_cache
from repro.errors import VariableNotFoundError
from repro.io import BPDataset
from repro.obs import MetricsRegistry
from repro.obs import context as obs_context
from repro.obs.context import TraceContext, new_span_id, new_trace_id
from repro.service import (
    CanopusService,
    ServiceClient,
    ServiceThread,
    TenantConfig,
)
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

TOL = 1e-5


def _drive(coro):
    return asyncio.run(coro)


def _hierarchy(root):
    return two_tier_titan(root, fast_capacity=64 << 20, slow_capacity=1 << 36)


@pytest.fixture(scope="module")
def campaign_root(tmp_path_factory):
    src = make_xgc1(scale=0.2)
    root = tmp_path_factory.mktemp("traced-svc")
    h = _hierarchy(root)
    enc = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": TOL, "mode": "relative"},
        chunks=4,
    )
    ds = BPDataset.create("camp", h)
    enc.encode("camp", "dpot", src.mesh, src.field, LevelScheme(3),
               dataset=ds, close=False)
    ds.close()
    return root


@pytest.fixture(scope="module")
def traced_service(campaign_root):
    """Keep-everything service: sample_rate=1.0, roomy ring."""
    get_restored_cache().clear()
    get_geometry_cache().clear()
    svc = CanopusService(
        _hierarchy(campaign_root),
        tenants=[
            TenantConfig(name="alice", token="tok-alice"),
            TenantConfig(name="bob", token="tok-bob"),
        ],
        executor_workers=4,
        metrics=MetricsRegistry(),
        tracing=True,
        trace_capacity=4096,
        trace_sample_rate=1.0,
        trace_slow_seconds=3600.0,
    )
    with ServiceThread(svc):
        yield svc
    get_restored_cache().clear()
    get_geometry_cache().clear()


@pytest.fixture(scope="module")
def sampled_out_service(campaign_root):
    """Keep-nothing-by-default service: sample_rate=0.0."""
    svc = CanopusService(
        _hierarchy(campaign_root),
        tenants=[TenantConfig(name="alice", token="tok-alice")],
        executor_workers=2,
        metrics=MetricsRegistry(),
        tracing=True,
        trace_capacity=64,
        trace_sample_rate=0.0,
        trace_slow_seconds=3600.0,
    )
    with ServiceThread(svc):
        yield svc


def _assert_single_span_tree(trace: dict) -> None:
    spans = trace["spans"]
    roots = [s for s in spans if s["parent_id"] is None]
    assert len(roots) == 1, [s["name"] for s in roots]
    assert roots[0]["name"].startswith("http "), roots[0]["name"]
    ids = {s["span_id"] for s in spans}
    for span in spans:
        assert span["trace_id"] == trace["trace_id"]
        if span["parent_id"] is not None:
            assert span["parent_id"] in ids, span["name"]


class TestTraceparentRoundtrip:
    def test_restore_is_one_span_tree_across_thread_pools(
        self, traced_service
    ):
        svc = traced_service
        trace_id = new_trace_id()
        ctx = TraceContext(trace_id=trace_id, parent_span=new_span_id())
        # A miss: a resident product is answered on the service thread
        # alone (tests/test_service_resident.py).
        get_restored_cache().clear()

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                token = obs_context.activate(ctx)
                try:
                    _, meta = await c.restore("camp", "dpot", level=0)
                    request_id = c.last_request_id
                finally:
                    # Fetch the trace OUTSIDE the forwarded context —
                    # requests reusing one trace id share one ring slot.
                    obs_context.deactivate(token)
                return request_id, meta, await c.trace(trace_id)

        request_id, meta, trace = _drive(go())
        # The id we minted client-side is the id the server answered
        # under — echoed both in x-request-id and in restore meta.
        assert request_id == trace_id
        assert meta["request_id"] == trace_id
        assert trace["trace_id"] == trace_id
        assert trace["tenant"] == "alice"
        assert trace["status"] == 200
        assert trace["route"] == "/v1/campaigns/{name}/vars/{var}/restore"
        _assert_single_span_tree(trace)
        # One coherent tree spanning the asyncio thread and the datanode
        # executor, the read side's one pool: the restore and every span
        # fetch behind it run on the executor thread.
        work = [s for s in trace["spans"]
                if s["name"] in ("decode.restore", "engine.fetch_span")]
        assert {s["name"] for s in work} == {
            "decode.restore", "engine.fetch_span"
        }
        threads = {s["thread"] for s in work}
        assert all(t.startswith("repro-datanode") for t in threads), threads

    def test_fresh_trace_id_minted_and_echoed_when_absent(
        self, traced_service
    ):
        svc = traced_service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                await c.open_campaign("camp")
                return c.last_request_id

        request_id = _drive(go())
        assert request_id is not None
        assert re.fullmatch(r"[0-9a-f]{32}", request_id)
        trace = _drive(self._fetch(svc, request_id))
        assert trace["route"] == "/v1/campaigns/{name}/open"
        assert trace["tenant"] == "alice"
        _assert_single_span_tree(trace)

    @staticmethod
    async def _fetch(svc, trace_id):
        async with ServiceClient(svc.host, svc.port,
                                 token="tok-alice") as c:
            return await c.trace(trace_id)

    def test_unknown_trace_id_is_404(self, traced_service):
        svc = traced_service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                await c.trace("ff" * 16)

        with pytest.raises(VariableNotFoundError):
            _drive(go())


class TestContextIsolation:
    def test_concurrent_requests_keep_their_own_context(
        self, traced_service
    ):
        """Interleaved tenants on the shared executor never cross."""
        svc = traced_service
        rounds = 4

        async def tenant_run(tenant: str):
            ids = []
            async with ServiceClient(svc.host, svc.port,
                                     token=f"tok-{tenant}") as c:
                for _ in range(rounds):
                    await c.restore("camp", "dpot", level=1)
                    ids.append(c.last_request_id)
            return tenant, ids

        async def go():
            results = await asyncio.gather(
                tenant_run("alice"), tenant_run("bob")
            )
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                traces = {}
                for tenant, ids in results:
                    for tid in ids:
                        traces[tid] = (tenant, await c.trace(tid))
            return traces

        traces = _drive(go())
        assert len(traces) == 2 * rounds
        for tid, (tenant, trace) in traces.items():
            # Attribution follows the bearer token of the request that
            # minted the trace — never the concurrent neighbour's.
            assert trace["tenant"] == tenant, tid
            assert trace["status"] == 200
            _assert_single_span_tree(trace)
            assert all(s["trace_id"] == tid for s in trace["spans"])


class TestSamplingPolicy:
    @staticmethod
    def _unsampled_ctx():
        return TraceContext(
            trace_id=new_trace_id(),
            parent_span=new_span_id(),
            sampled=False,
        )

    def test_fast_success_is_dropped(self, sampled_out_service):
        svc = sampled_out_service

        async def go():
            token = obs_context.activate(self._unsampled_ctx())
            try:
                async with ServiceClient(svc.host, svc.port,
                                         token="tok-alice") as c:
                    assert await c.healthz()
                    tid = c.last_request_id
                    with pytest.raises(VariableNotFoundError):
                        await c.trace(tid)
            finally:
                obs_context.deactivate(token)

        _drive(go())

    def test_5xx_always_kept(self, sampled_out_service):
        svc = sampled_out_service
        original = svc.node._dispatch

        async def broken(request, route, *resolved):
            if route == "/healthz":
                raise RuntimeError("injected datanode failure")
            return await original(request, route, *resolved)

        svc.node._dispatch = broken
        try:
            async def go():
                async with ServiceClient(svc.host, svc.port,
                                         token="tok-alice") as c:
                    token = obs_context.activate(self._unsampled_ctx())
                    try:
                        resp = await c._get("/healthz")
                        assert resp.status == 500
                        failed_id = c.last_request_id
                    finally:
                        obs_context.deactivate(token)
                    return await c.trace(failed_id)

            trace = _drive(go())
        finally:
            svc.node._dispatch = original
        assert trace["kept"] == "error"
        assert trace["status"] == 500
        assert "injected datanode failure" in trace["error"]

    def test_slow_tail_always_kept(self, sampled_out_service):
        svc = sampled_out_service
        svc.trace_buffer.slow_seconds = 1e-9  # everything is "slow" now
        try:
            async def go():
                async with ServiceClient(svc.host, svc.port,
                                         token="tok-alice") as c:
                    token = obs_context.activate(self._unsampled_ctx())
                    try:
                        assert await c.healthz()
                        slow_id = c.last_request_id
                    finally:
                        obs_context.deactivate(token)
                    return await c.trace(slow_id)

            trace = _drive(go())
        finally:
            svc.trace_buffer.slow_seconds = 3600.0
        assert trace["kept"] == "slow"

    def test_upstream_sampled_flag_honored(self, sampled_out_service):
        """sampled=True from upstream overrides the 0.0 head rate."""
        svc = sampled_out_service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                # The client mints sampled=True headers by default.
                assert await c.healthz()
                return await c.trace(c.last_request_id)

        trace = _drive(go())
        assert trace["kept"] == "sampled"


class TestMetricsExposition:
    def test_prometheus_lines_parse(self, traced_service):
        svc = traced_service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                return await c.metrics(format="prometheus")

        text = _drive(go())
        assert isinstance(text, str) and text.endswith("\n")
        name_re = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
        for line in text.splitlines():
            assert line, "no blank lines"
            if line.startswith("#"):
                assert re.match(rf"^# (HELP|TYPE) {name_re}( .*)?$", line)
            else:
                assert re.match(
                    rf"^{name_re}(\{{.*\}})? -?[0-9eE.+-]+$", line
                ), line
        assert "# TYPE service_request_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "service_slo_burn_rate" in text

    def test_json_metrics_include_slo_and_histograms(self, traced_service):
        svc = traced_service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                return await c.metrics()

        payload = _drive(go())
        slo = payload["slo"]
        restore_route = "/v1/campaigns/{name}/vars/{var}/restore"
        assert restore_route in slo
        snap = slo[restore_route]
        assert 0.0 <= snap["compliance"] <= 1.0
        assert snap["window_requests"] >= 1


class TestSimReadParity:
    def test_trace_sim_read_sums_to_tenant_counters(self, traced_service):
        """Per-request SimClock charge attribution is complete: summed
        over every kept trace it reproduces the per-tenant counters
        exactly (everything is kept at sample_rate=1.0)."""
        svc = traced_service

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-bob") as c:
                await c.restore("camp", "dpot", level=2)
                payload = await c.traces(limit=100000)
            return payload

        payload = _drive(go())
        stats = payload["stats"]
        assert stats["dropped"] == 0
        assert stats["kept"] == stats["finished"]
        by_trace = sum(
            t["sim_read_seconds"] for t in payload["traces"]
        )
        by_tenant = sum(
            u["total_sim_read_seconds"]
            for u in svc.tenants.usage().values()
        )
        assert by_trace > 0
        assert math.isclose(by_trace, by_tenant, rel_tol=1e-6, abs_tol=1e-9)
