"""Concurrency tests for the read tier: many clients, shared caches.

The ISSUE acceptance points exercised here: N async clients × M
variables receive payloads bit-identical to a direct
:class:`~repro.session.Session` restore, the bounded executor never deadlocks
even when client concurrency far exceeds its width, concurrent
sessions share the process-wide restored-level cache without
cross-tenant interference, and a tenant exceeding its budget gets 429
while other tenants keep being served.
"""

import asyncio
import gc
import logging
import socket

import numpy as np
import pytest

from repro.core import CanopusEncoder, LevelScheme
from repro.core.restored_cache import get_geometry_cache, get_restored_cache
from repro.errors import QuotaError
from repro.io import BPDataset
from repro.service import (
    CanopusService,
    ServiceClient,
    TenantConfig,
)
from repro.service.loadgen import ServiceThread, run_load
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

VARS = ["dpot", "apar", "dden"]
LEVELS = [0, 1, 2]
TOL = 1e-5


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    src = make_xgc1(scale=0.2)
    rng = np.random.default_rng(3)
    fields = {
        "dpot": src.field,
        "apar": 0.5 * src.field + 0.1 * rng.standard_normal(src.field.shape),
        "dden": np.abs(src.field),
    }
    root = tmp_path_factory.mktemp("conc")
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

    get_restored_cache().clear()
    get_geometry_cache().clear()
    # Reference restores from a plain in-process session over a separate
    # hierarchy handle — what the service payloads must equal bit-wise.
    ref_h = two_tier_titan(root, fast_capacity=64 << 20,
                           slow_capacity=1 << 36)
    from repro.session import Session

    expected = {}
    with Session(ref_h) as session:
        camp = session.open("camp")
        for var in VARS:
            for level in LEVELS:
                expected[(var, level)] = camp.restore(
                    var, level=level
                ).field.copy()

    svc_h = two_tier_titan(root, fast_capacity=64 << 20,
                           slow_capacity=1 << 36)
    tenants = [
        TenantConfig(name="alice", token="tok-a"),
        TenantConfig(name="bob", token="tok-b"),
        TenantConfig(
            name="greedy", token="tok-g",
            max_requests=3, window_seconds=3600.0,
        ),
    ]
    # Deliberately narrow executor: concurrency >> executor threads must
    # queue, not deadlock.
    svc = CanopusService(svc_h, tenants=tenants, executor_workers=2)
    with ServiceThread(svc):
        yield svc, expected
    get_restored_cache().clear()
    get_geometry_cache().clear()


class TestConcurrentClients:
    def test_many_clients_bit_identical(self, stack):
        svc, expected = stack

        async def one_client(ci):
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-a") as c:
                out = []
                for i in range(len(VARS) * len(LEVELS)):
                    var = VARS[(ci + i) % len(VARS)]
                    level = LEVELS[(ci + i) % len(LEVELS)]
                    field, meta = await c.restore("camp", var, level=level)
                    out.append((var, level, field))
                return out

        async def go():
            return await asyncio.gather(*(one_client(ci) for ci in range(12)))

        results = asyncio.run(go())
        checked = 0
        for per_client in results:
            for var, level, field in per_client:
                assert np.array_equal(field, expected[(var, level)]), (
                    f"payload mismatch for {var} L{level}"
                )
                checked += 1
        assert checked == 12 * len(VARS) * len(LEVELS)

    def test_two_tenants_share_cache_separate_accounting(self, stack):
        svc, expected = stack

        async def go():
            async with ServiceClient(svc.host, svc.port, token="tok-a") as a:
                _, first = await a.restore("camp", "dden", level=1)
            async with ServiceClient(svc.host, svc.port, token="tok-b") as b:
                field, second = await b.restore("camp", "dden", level=1)
                return first, second, field

        first, second, field = asyncio.run(go())
        # Same content -> same cursor for both tenants, and bob's
        # request is served from the restored-level cache alice warmed.
        assert first["cursor"] == second["cursor"]
        assert second["cache"] == "hit"
        assert np.array_equal(field, expected[("dden", 1)])
        usage = svc.tenants.usage()
        assert usage["alice"]["total_requests"] >= 1
        assert usage["bob"]["total_requests"] >= 1
        assert usage["bob"]["total_bytes"] > 0

    def test_bounded_executor_no_deadlock(self, stack):
        """3x oversubscribed clients against a 2-thread executor."""
        svc, expected = stack

        async def go():
            return await asyncio.wait_for(
                run_load(
                    svc.host, svc.port, "camp", VARS,
                    clients=24, requests_per_client=3,
                    levels=LEVELS, token="tok-a", expected=expected,
                ),
                timeout=120,
            )

        report = asyncio.run(go())
        assert report.requests == 24 * 3
        assert report.failures == 0
        assert report.mismatches == 0

    def test_quota_exceeded_does_not_starve_others(self, stack):
        svc, expected = stack

        async def greedy():
            hits = quota = 0
            async with ServiceClient(svc.host, svc.port, token="tok-g") as c:
                for _ in range(8):
                    try:
                        await c.restore("camp", "dpot", level=2)
                        hits += 1
                    except QuotaError as exc:
                        assert exc.retry_after > 0
                        quota += 1
            return hits, quota

        async def polite():
            async with ServiceClient(svc.host, svc.port, token="tok-b") as c:
                field, _ = await c.restore("camp", "apar", level=0)
                return field

        async def go():
            return await asyncio.gather(greedy(), polite())

        (hits, quota), field = asyncio.run(go())
        assert hits == 3  # greedy's budget
        assert quota == 5  # everything past it -> 429
        assert np.array_equal(field, expected[("apar", 0)])

    def test_sim_read_seconds_attributed(self, stack):
        """Cold restores charge simulated read time to the tenant."""
        svc, _ = stack
        # dpot L0 was already restored above, and a filter that keeps
        # every chunk is that same cached result. Take the threshold from
        # the stored chunk summaries: just above the smallest |max| drops
        # that chunk and no more than its ties, which forces chunk reads.
        with BPDataset.open("camp", svc.hierarchy) as ds:
            peaks = [
                rec.attrs["stats"]["vabs_max"]
                for key, rec in ds.catalog.records.items()
                if key.startswith("dpot/delta") and "stats" in rec.attrs
            ]
        assert len(set(peaks)) > 1
        threshold = float(np.nextafter(min(peaks), np.inf))
        before = svc.tenants.usage("alice")["total_sim_read_seconds"]

        async def go():
            async with ServiceClient(svc.host, svc.port, token="tok-a") as c:
                await c.restore("camp", "dpot", level=0,
                                min_significance=threshold)

        asyncio.run(go())
        after = svc.tenants.usage("alice")["total_sim_read_seconds"]
        assert after > before


class TestShutdown:
    def test_stop_with_idle_keepalive_connection_is_quiet(
        self, stack, caplog
    ):
        """Stopping closes idle client connections; nothing is logged."""
        running, _ = stack
        svc = CanopusService(running.hierarchy, executor_workers=1)
        thread = ServiceThread(svc)
        host, port = thread.start()
        with caplog.at_level(logging.WARNING):
            with socket.create_connection((host, port), timeout=10) as conn:
                conn.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert conn.recv(4096).startswith(b"HTTP/1.1 200 OK")
                # The connection is now idle in keep-alive: its handler
                # is parked on the next request line.
                thread.stop()
                assert conn.recv(4096) == b""  # closed by the server
            gc.collect()  # a task destroyed while pending logs from here
        assert not caplog.records, [r.getMessage() for r in caplog.records]
