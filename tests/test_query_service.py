"""Service-level pushdown query routes (/v1/query/*) and the elastic loop.

A real :class:`CanopusService` on a socket serves two campaigns; the
tests drive the new pushdown endpoints through :class:`ServiceClient`
and assert the paper's operational claims: pruned queries perform zero
restores (via the ``query.pushdown.*`` counters and per-tenant sim-read
accounting), malformed query shapes map to HTTP 400, query responses
are charged against tenant quotas, and the served workload's
:class:`AccessTracker` feedback measurably shifts
``PlacementEngine.plan_replacement`` toward the queried campaign.
"""

import asyncio

import numpy as np
import pytest

from repro.core import CanopusEncoder, LevelScheme
from repro.core.restored_cache import get_geometry_cache, get_restored_cache
from repro.errors import QuotaError, RestorationError
from repro.service import (
    CanopusService,
    ServiceClient,
    ServiceThread,
    TenantConfig,
)
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan
from repro.storage.placement import PlacementEngine
from repro.storage.policy import AccessTracker

CHUNKS = 9


def _drive(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def campaign_root(tmp_path_factory):
    src = make_xgc1(scale=0.3)
    root = tmp_path_factory.mktemp("querysvc")
    h = two_tier_titan(root, fast_capacity=48 << 20, slow_capacity=1 << 36)
    enc = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": 1e-4, "mode": "relative"},
        chunks=CHUNKS,
    )
    # Two campaigns with separate subfiles: queries hit only "hot", so
    # the access tracker must heat hot subfiles and leave "cold" alone.
    enc.encode("hot", "dpot", src.mesh, src.field, LevelScheme(3))
    enc.encode("cold", "dpot", src.mesh, src.field * 0.5, LevelScheme(3))
    return root, src


@pytest.fixture(scope="module")
def service(campaign_root):
    root, src = campaign_root
    get_restored_cache().clear()
    get_geometry_cache().clear()
    h = two_tier_titan(root, fast_capacity=48 << 20, slow_capacity=1 << 36)
    tenants = [
        TenantConfig(name="alice", token="tok-alice"),
        TenantConfig(
            name="cheap", token="tok-cheap",
            max_requests=2, window_seconds=3600.0,
        ),
    ]
    svc = CanopusService(h, tenants=tenants, executor_workers=4)
    with ServiceThread(svc):
        yield svc, src
    get_restored_cache().clear()
    get_geometry_cache().clear()


def _counters(metrics: dict) -> dict:
    return {
        k: v for k, v in metrics["metrics"].items() if k.startswith("query.")
    }


class TestStatsPushdown:
    def test_whole_variable_exact_and_restore_free(self, service):
        svc, src = service

        async def run():
            async with ServiceClient(
                svc.host, svc.port, token="tok-alice"
            ) as client:
                # First touch pays the (tiny) catalog read; the steady
                # state must then be read-free.
                await client.query_stats("hot", "dpot")
                before = await client.metrics()
                result = await client.query_stats("hot", "dpot")
                after = await client.metrics()
                return before, result, after

        before, result, after = _drive(run())
        assert result["pushdown"] is True
        assert result["restores"] == 0
        assert result["stats"]["vmax"] == pytest.approx(float(src.field.max()))
        assert result["stats"]["count"] == src.field.size
        delta = (
            after["metrics"].get("query.pushdown.fallback_restores", 0)
            - before["metrics"].get("query.pushdown.fallback_restores", 0)
        )
        assert delta == 0
        # The pushdown answer shipped no field bytes, so the tenant's
        # simulated read account did not move.
        assert (
            after["tenants"]["alice"]["total_sim_read_seconds"]
            == pytest.approx(
                before["tenants"]["alice"]["total_sim_read_seconds"]
            )
        )

    def test_windowed_stats_prune_chunks(self, service):
        svc, src = service
        center = src.mesh.vertices[int(np.argmax(src.field))]

        async def run():
            async with ServiceClient(
                svc.host, svc.port, token="tok-alice"
            ) as client:
                before = await client.metrics()
                result = await client.query_stats(
                    "hot", "dpot", region=(center - 0.2, center + 0.2)
                )
                after = await client.metrics()
                return before, result, after

        before, result, after = _drive(run())
        assert result["pushdown"] is True and result["restores"] == 0
        assert result["pruned_chunks"] > 0
        assert result["chunks"] + result["pruned_chunks"] == CHUNKS
        assert (
            _counters(after).get("query.pruned_chunks", 0)
            > _counters(before).get("query.pruned_chunks", 0)
        )

    def test_quota_accounting_charges_query_responses(self, service):
        svc, _ = service

        async def run():
            async with ServiceClient(
                svc.host, svc.port, token="tok-alice"
            ) as client:
                before = await client.metrics()
                await client.query_stats("hot", "dpot")
                after = await client.metrics()
                return before, after

        before, after = _drive(run())
        usage_b = before["tenants"]["alice"]
        usage_a = after["tenants"]["alice"]
        assert usage_a["total_requests"] > usage_b["total_requests"]
        assert usage_a["total_bytes"] > usage_b["total_bytes"]

    def test_query_routes_respect_request_quotas(self, service):
        svc, _ = service

        async def run():
            async with ServiceClient(
                svc.host, svc.port, token="tok-cheap"
            ) as client:
                seen = 0
                with pytest.raises(QuotaError):
                    for _ in range(6):
                        await client.query_stats("hot", "dpot")
                        seen += 1
                return seen

        assert _drive(run()) >= 1


class TestBlobPushdown:
    def test_unreachable_threshold_is_restore_free(self, service):
        svc, src = service
        threshold = float(src.field.max()) * 2 + 1

        async def run():
            async with ServiceClient(
                svc.host, svc.port, token="tok-alice"
            ) as client:
                await client.query_blobs("hot", "dpot", threshold=threshold)
                before = await client.metrics()
                result = await client.query_blobs(
                    "hot", "dpot", threshold=threshold
                )
                after = await client.metrics()
                return before, result, after

        before, result, after = _drive(run())
        assert result["count"] == 0
        assert result["restores"] == 0
        assert result["pruned_chunks"] == CHUNKS
        assert (
            _counters(after).get("query.pushdown.blob_restores", 0)
            == _counters(before).get("query.pushdown.blob_restores", 0)
        )
        assert (
            after["tenants"]["alice"]["total_sim_read_seconds"]
            == pytest.approx(
                before["tenants"]["alice"]["total_sim_read_seconds"]
            )
        )

    def test_surviving_threshold_pays_one_focused_restore(self, service):
        svc, src = service
        threshold = float(np.quantile(src.field, 0.995))

        async def run():
            async with ServiceClient(
                svc.host, svc.port, token="tok-alice"
            ) as client:
                return await client.query_blobs(
                    "hot", "dpot", threshold=threshold, shape=(96, 96)
                )

        result = _drive(run())
        assert result["restores"] == 1
        assert result["count"] >= 1
        lo, hi = src.mesh.bounding_box()
        for blob in result["blobs"]:
            x, y = blob["center"]
            assert lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]

    def test_threshold_is_required(self, service):
        svc, _ = service

        async def run():
            async with ServiceClient(
                svc.host, svc.port, token="tok-alice"
            ) as client:
                resp = await client._get(
                    "/v1/query/blobs?campaign=hot&var=dpot"
                )
                return resp.status, resp.parsed_json()

        status, payload = _drive(run())
        assert status == 400 and payload["code"] == "bad-request"


class TestPlanRoute:
    def test_plan_endpoint_explains_without_executing(self, service):
        svc, src = service
        center = src.mesh.vertices[int(np.argmax(src.field))]

        async def run():
            async with ServiceClient(
                svc.host, svc.port, token="tok-alice"
            ) as client:
                return await client.plan(
                    "hot", "dpot", tolerance=1e-3,
                    region=(center - 0.2, center + 0.2),
                )

        plan = _drive(run())
        assert plan["mode"] == "tolerance"
        assert plan["complete"] is True
        assert plan["pruned_chunks"] > 0
        assert plan["planned_bytes"] > 0
        actions = {d["action"] for d in plan["decisions"]}
        assert actions == {"fetch", "skip"}

    def test_tolerance_restore_routes_through_planner(self, service):
        svc, _ = service

        async def run():
            async with ServiceClient(
                svc.host, svc.port, token="tok-alice"
            ) as client:
                exact, _ = await client.restore("hot", "dpot", level=0)
                planned, meta = await client.restore(
                    "hot", "dpot", tolerance=1e-6
                )
                return exact, planned, meta

        exact, planned, meta = _drive(run())
        assert meta["level"] == 0
        assert np.array_equal(exact, planned)


class TestBadQueryShapes:
    def test_non_positive_tolerance_maps_to_400(self, service):
        svc, _ = service

        async def run():
            async with ServiceClient(
                svc.host, svc.port, token="tok-alice"
            ) as client:
                with pytest.raises(RestorationError) as exc:
                    await client.restore("hot", "dpot", tolerance=0.0)
                return str(exc.value)

        assert "tolerance must be > 0" in _drive(run())

    def test_empty_region_maps_to_400(self, service):
        svc, _ = service

        async def run():
            async with ServiceClient(
                svc.host, svc.port, token="tok-alice"
            ) as client:
                with pytest.raises(RestorationError) as exc:
                    await client.query_stats(
                        "hot", "dpot", region=((5.0, 5.0), (1.0, 1.0))
                    )
                return str(exc.value)

        assert "empty region" in _drive(run())


class TestElasticLoop:
    def test_served_queries_shift_plan_replacement(self, service):
        svc, src = service
        center = src.mesh.vertices[int(np.argmax(src.field))]

        async def run():
            async with ServiceClient(
                svc.host, svc.port, token="tok-alice"
            ) as client:
                for _ in range(3):
                    await client.restore("hot", "dpot", tolerance=1e-3)
                    await client.query_stats(
                        "hot", "dpot", region=(center - 0.2, center + 0.2)
                    )
                return await client.metrics()

        metrics = _drive(run())
        qlog = metrics["datanode"]["query"]["log"]
        assert qlog, "served queries must be recorded"
        assert {e["campaign"] for e in qlog} == {"hot"}
        assert metrics["datanode"]["query"]["tracked_reads"] > 0

        tracker = svc.datanode.tracker
        hierarchy = svc.hierarchy
        cold_plan = PlacementEngine(hierarchy).plan_replacement(
            AccessTracker()
        )
        hot_plan = PlacementEngine(hierarchy).plan_replacement(tracker)
        assert all(d.weight == 0.0 for d in cold_plan.decisions)
        weights = {d.key: d.weight for d in hot_plan.decisions}
        hot_subfiles = {k for k in weights if k.startswith("hot.")}
        cold_subfiles = {k for k in weights if k.startswith("cold.")}
        assert hot_subfiles and cold_subfiles
        assert any(weights[k] > 0 for k in hot_subfiles)
        assert all(weights[k] == 0 for k in cold_subfiles)
        # The shift is measurable: the served workload changes the plan's
        # expected read cost relative to the unobserved baseline.
        assert hot_plan.est_read_seconds != cold_plan.est_read_seconds
