"""Durability harness: faults, failover, journal, repair, degraded serving.

The fault-matrix classes run every mode in
:data:`repro.storage.FAULT_MODES` by default; the CI fault-injection
matrix narrows a job to one mode via ``REPRO_FAULTS=<mode>`` (``|``
separates several).
"""

import asyncio
import json
import os

import numpy as np
import pytest

from repro.core import CanopusEncoder, LevelScheme
from repro.core.restored_cache import get_geometry_cache, get_restored_cache
from repro.errors import StorageError
from repro.io import BPDataset, repair_backends, repair_dataset
from repro.io.fsck import check_dataset
from repro.service import CanopusService, ServiceClient, TenantConfig
from repro.service.loadgen import ServiceThread
from repro.simulations import make_xgc1
from repro.storage import (
    FAULT_MODES,
    FaultInjector,
    MemoryBackend,
    PlacementEngine,
    ProductSpec,
    RemoteBackend,
    ReplicatedBackend,
    ShardedBackend,
    StorageHierarchy,
    StorageTier,
    inject_fault,
    kill_replica,
    make_backend,
    two_tier_titan,
)
from repro.storage.simclock import SimClock

_ENV_MODES = tuple(
    m for m in os.environ.get("REPRO_FAULTS", "").split("|") if m
)
for _m in _ENV_MODES:
    assert _m in FAULT_MODES, f"REPRO_FAULTS names unknown mode {_m!r}"
ACTIVE_MODES = _ENV_MODES or FAULT_MODES


def _replicated_sharded(tmp_path, *, chunk_size=8):
    return make_backend(
        "sharded", tmp_path, shards=2, replicas=2, chunk_size=chunk_size
    )


PAYLOADS = {
    "camp/base.bp": bytes(range(256)) * 3,
    "camp/delta1.bp": b"\xaa\x55" * 40,
    "tiny": b"x",
}


class TestFaultMatrix:
    """One replicated sharded store through every durable-damage mode."""

    @pytest.fixture(params=ACTIVE_MODES)
    def damaged(self, request, tmp_path):
        be = _replicated_sharded(tmp_path)
        be.put_many(PAYLOADS)
        description = inject_fault(be, request.param)
        return be, request.param, description

    def test_verify_reports_damage(self, damaged):
        be, mode, description = damaged
        assert description
        assert be.verify() != []

    def test_reads_survive_or_fail_loud(self, damaged):
        be, mode, _ = damaged
        if mode == "truncate_manifest":
            # All replicas hold the truncated manifest consistently;
            # nothing can serve it until repair rebuilds it from chunks.
            with pytest.raises(StorageError):
                be.get("camp/base.bp")
        else:
            # Replica loss and chunk corruption are routed around
            # transparently: every object stays bit-identical.
            for key, blob in PAYLOADS.items():
                assert be.get(key) == blob

    def test_repair_restores_full_redundancy(self, damaged):
        be, mode, _ = damaged
        actions = be.repair()
        assert actions, "repair() on damaged store must act"
        assert be.verify() == []
        assert not be.degraded
        for key, blob in PAYLOADS.items():
            assert be.get(key) == blob

    def test_unreplicated_drop_is_reported_not_hidden(self, tmp_path):
        be = make_backend("sharded", tmp_path, shards=2, chunk_size=4)
        be.put("v", b"q" * 16)
        inject_fault(be, "drop_substore")
        problems = be.verify()
        assert any("missing chunk" in p for p in problems)
        be.repair()
        # No surviving copy: the damage must still be reported.
        assert be.verify() != []


class TestReplicatedBackend:
    def test_failover_read_is_bit_identical_and_flags_degraded(self):
        be = ReplicatedBackend([MemoryBackend(), MemoryBackend()])
        be.put("k", b"payload-123")
        kill_replica(be, 0)
        assert be.get("k") == b"payload-123"
        assert be.degraded

    def test_read_repair_restores_lost_copy(self):
        reps = [MemoryBackend(), MemoryBackend()]
        be = ReplicatedBackend(reps)
        be.put("k", b"payload-123")
        kill_replica(be, 0)
        be.get("k")  # failover triggers read-repair
        assert reps[0].get("k") == b"payload-123"

    def test_losing_unread_replica_does_not_flag_degraded(self):
        be = ReplicatedBackend([MemoryBackend(), MemoryBackend()])
        be.put("k", b"v")
        kill_replica(be, 1)  # reads keep hitting replica 0
        assert be.get("k") == b"v"
        assert not be.degraded
        assert any("replica 1" in p for p in be.verify())

    def test_anti_entropy_sweep_without_prior_read(self):
        reps = [MemoryBackend(), MemoryBackend(), MemoryBackend()]
        be = ReplicatedBackend(reps)
        be.put("a", b"123")
        be.put("b", b"45678")
        kill_replica(be, 1)
        actions = be.repair()
        assert any("re-replicated" in a for a in actions)
        assert be.verify() == []
        assert reps[1].get("a") == b"123"

    def test_crc_corruption_triggers_failover(self):
        reps = [MemoryBackend(), MemoryBackend()]
        be = ReplicatedBackend(reps)
        be.put("k", b"payload-123")
        blob = bytearray(reps[0].get("k"))
        blob[0] ^= 0xFF
        reps[0].put("k", bytes(blob))  # sidecar now stale -> CRC trips
        assert be.get("k") == b"payload-123"
        assert be.degraded
        be.repair()
        assert not be.degraded

    def test_all_replicas_lost_raises(self):
        be = ReplicatedBackend([MemoryBackend(), MemoryBackend()])
        be.put("k", b"v")
        for rep in be.replicas:
            for name, _ in rep.list_objects():
                rep.delete(name)
        with pytest.raises(StorageError, match="no replica survives|no object"):
            be.get("k")


class TestWriteAheadJournal:
    class _DropPuts(MemoryBackend):
        """Sub-store whose puts start failing after ``budget`` calls."""

        def __init__(self, budget):
            super().__init__()
            self.budget = budget

        def put(self, key, data):
            if self.budget <= 0:
                raise StorageError("injected crash: sub-store write lost")
            self.budget -= 1
            return super().put(key, data)

    def test_interrupted_put_is_detected_and_collected(self):
        crashy = self._DropPuts(budget=2)  # WAL + first chunk, then die
        be = ShardedBackend([crashy, MemoryBackend()], chunk_size=4)
        with pytest.raises(StorageError):
            be.put("obj", b"0123456789ab")
        crashy.budget = 10**6
        problems = be.verify()
        assert any("interrupted put" in p for p in problems)
        actions = be.repair()
        assert actions
        assert be.verify() == []
        assert not be.exists("obj")  # partial new object collected

    def test_interrupted_overwrite_keeps_old_object(self):
        subs = [MemoryBackend(), MemoryBackend()]
        be = ShardedBackend(subs, chunk_size=4)
        be.put("obj", b"OLDOLDOL")  # 2 chunks
        # Simulate a crash after journal write but before any new chunk:
        # plant the WAL for an interrupted 3-chunk overwrite by hand.
        wal = {
            "size": 12, "chunk_size": 4, "chunks": 3,
            "crc32": 0, "old_chunks": 2,
        }
        subs[0].put("obj#wal", json.dumps(wal).encode())
        assert any("interrupted put" in p for p in be.verify())
        be.repair()
        assert be.verify() == []
        assert be.get("obj") == b"OLDOLDOL"

    def test_completed_put_with_lingering_wal_rolls_forward(self):
        subs = [MemoryBackend(), MemoryBackend()]
        be = ShardedBackend(subs, chunk_size=4)
        be.put("obj", b"NEWDATA!")
        # Crash after everything but the WAL delete: re-plant the WAL.
        manifest = json.loads(subs[0].get("obj#meta"))
        subs[0].put(
            "obj#wal",
            json.dumps(dict(manifest, old_chunks=0)).encode(),
        )
        be.repair()
        assert be.verify() == []
        assert be.get("obj") == b"NEWDATA!"

    def test_journal_off_skips_wal_writes(self):
        sub = MemoryBackend()
        be = ShardedBackend([sub], chunk_size=4, journal=False)
        be.put("obj", b"0123456789")
        assert not any(
            name.endswith("#wal") for name, _ in sub.list_objects()
        )

    def test_rebuilds_manifest_from_surviving_chunks(self, tmp_path):
        be = make_backend("sharded", tmp_path, shards=2, chunk_size=4)
        payload = bytes(range(14))
        be.put("obj", payload)
        inject_fault(be, "truncate_manifest")
        with pytest.raises(StorageError):
            be.get("obj")
        actions = be.repair()
        assert any("manifest" in a for a in actions)
        assert be.get("obj") == payload
        assert be.verify() == []


class TestRemoteBackend:
    def test_transient_faults_are_retried_with_simulated_backoff(self):
        faults = FaultInjector().fail("get", times=2)
        clock = SimClock()
        be = RemoteBackend(
            MemoryBackend(), fault_injector=faults, clock=clock,
            backoff_seconds=0.002,
        )
        be.put("k", b"v" * 100)
        before = clock.elapsed
        assert be.get("k") == b"v" * 100
        assert faults.injected == 2
        # Two backoffs (2ms + 4ms) were charged, never slept.
        backoff = sum(
            e.seconds for e in clock.events if e.label.startswith("backoff")
        )
        assert backoff == pytest.approx(0.006)
        assert clock.elapsed > before

    def test_exhausted_retries_surface_storage_error(self):
        faults = FaultInjector().fail("get", times=99)
        be = RemoteBackend(MemoryBackend(), fault_injector=faults, retries=2)
        be.put("k", b"v")
        with pytest.raises(StorageError, match="after 2 retries"):
            be.get("k")

    def test_fault_scoping_by_key_substring(self):
        faults = FaultInjector().fail("get", times=99, key_substring="hot")
        be = RemoteBackend(MemoryBackend(), fault_injector=faults, retries=0)
        be.put("hot/obj", b"a")
        be.put("cold/obj", b"b")
        assert be.get("cold/obj") == b"b"
        with pytest.raises(StorageError):
            be.get("hot/obj")

    def test_network_charges_scale_with_bytes(self):
        clock = SimClock()
        be = RemoteBackend(
            MemoryBackend(), clock=clock,
            network_bandwidth=1_000_000, network_latency=0.001,
        )
        be.put("k", b"x" * 500_000)
        assert clock.elapsed == pytest.approx(0.001 + 0.5)
        before = clock.elapsed
        be.get("k")
        assert clock.elapsed - before == pytest.approx(0.001 + 0.5)

    def test_batch_ops_pay_latency_once(self):
        clock = SimClock()
        be = RemoteBackend(
            MemoryBackend(), clock=clock,
            network_bandwidth=1 << 30, network_latency=0.010,
        )
        be.put_many({f"k{i}": b"z" * 10 for i in range(8)})
        # One batched round-trip, not eight.
        latency_events = [e for e in clock.events if e.seconds >= 0.010]
        assert len(latency_events) == 1

    def test_uncharged_context_suppresses_clock(self):
        clock = SimClock()
        be = RemoteBackend(MemoryBackend(), clock=clock)
        be.put("k", b"v" * 64)
        before = clock.elapsed
        with be.uncharged():
            assert be.get("k") == b"v" * 64
        assert clock.elapsed == before

    def test_tier_peeks_over_remote_stay_uncharged(self, tmp_path):
        tier = StorageTier(
            "t", "ssd", 1 << 20, backend=RemoteBackend(MemoryBackend())
        )
        tier.write("a.bin", bytes(range(64)))
        before = tier.clock.elapsed
        assert tier.peek_range("a.bin", 10, 4) == bytes(range(10, 14))
        assert tier.clock.elapsed == before


class TestPlacementDurability:
    def _hierarchy(self):
        clock = SimClock()
        fast = StorageTier(
            "fast", "dram_tmpfs", 1 << 20, None, clock,
            backend=MemoryBackend(),
        )
        slow = StorageTier(
            "slow", "lustre", 1 << 30, None, clock,
            backend=ReplicatedBackend([MemoryBackend(), MemoryBackend()]),
        )
        return StorageHierarchy([fast, slow])

    def test_replication_factor_is_a_tier_property(self):
        h = self._hierarchy()
        assert h.tier("fast").replication_factor == 1
        assert h.tier("slow").replication_factor == 2

    def test_zero_weight_ignores_durability(self):
        h = self._hierarchy()
        plan = PlacementEngine(h).plan(
            [ProductSpec("p", 4096, weight=1.0, replicas=2)]
        )
        assert plan.tier_of("p") == "fast"

    def test_durability_weight_steers_to_replicated_tier(self):
        h = self._hierarchy()
        plan = PlacementEngine(h).plan(
            [ProductSpec("p", 4096, weight=1.0, replicas=2)],
            durability_weight=1e6,
        )
        assert plan.tier_of("p") == "slow"
        note = next(
            n for t, _, n in plan.decisions[0].considered if t == "fast"
        )
        assert "under-replicated" in note

    def test_satisfied_replicas_pay_no_risk(self):
        h = self._hierarchy()
        plan = PlacementEngine(h).plan(
            [ProductSpec("p", 4096, weight=1.0, replicas=1)],
            durability_weight=1e6,
        )
        assert plan.tier_of("p") == "fast"


def _encode_campaign(root, **titan_kwargs):
    src = make_xgc1(scale=0.15)
    h = two_tier_titan(root, fast_capacity=48 << 20, **titan_kwargs)
    enc = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": 1e-5, "mode": "relative"},
    )
    enc.encode("camp", "dpot", src.mesh, src.field, LevelScheme(3))
    return src


def _reopen(root, **titan_kwargs):
    h = two_tier_titan(root, fast_capacity=48 << 20, **titan_kwargs)
    return BPDataset.open("camp", h)


class TestFsckRepairEndToEnd:
    KW = {"backend": "sharded", "shards": 2, "chunk_size": 64 << 10,
          "replicas": 2}

    @pytest.mark.parametrize("mode", ACTIVE_MODES)
    def test_campaign_repairs_to_healthy(self, tmp_path, mode):
        _encode_campaign(tmp_path, **self.KW)
        ds = _reopen(tmp_path, **self.KW)
        for tier in ds.hierarchy.tiers:
            if tier.backend.list_objects():
                inject_fault(tier.backend, mode)
                break
        result = repair_dataset(ds)
        assert result.repairs, "damage must produce repair actions"
        assert result.healthy, result.report()
        assert "FIXED" in result.report()
        # Full redundancy restored below the catalog too.
        for tier in ds.hierarchy.tiers:
            assert tier.backend.verify() == []

    def test_repair_works_without_opening_dataset(self, tmp_path):
        _encode_campaign(tmp_path, **self.KW)
        h = two_tier_titan(tmp_path, fast_capacity=48 << 20, **self.KW)
        damaged = [
            t for t in h.tiers if t.backend.list_objects()
        ]
        kill_replica(damaged[0].backend)
        actions = repair_backends(h)
        assert actions
        assert all(t.backend.verify() == [] for t in h.tiers)
        # The catalog opens fine afterwards and checks clean.
        assert check_dataset(
            BPDataset.open("camp", h)
        ).healthy

    def test_restore_bit_identical_with_replica_down(self, tmp_path):
        from repro.core.decoder import CanopusDecoder

        _encode_campaign(tmp_path, **self.KW)
        reference = CanopusDecoder(_reopen(tmp_path, **self.KW)).restore_to(
            "dpot", 0
        ).field

        ds = _reopen(tmp_path, **self.KW)
        for tier in ds.hierarchy.tiers:
            if tier.backend.list_objects():
                kill_replica(tier.backend, 0)
        degraded = CanopusDecoder(ds).restore_to("dpot", 0).field
        np.testing.assert_array_equal(reference, degraded)


@pytest.fixture(scope="module")
def degraded_service(tmp_path_factory):
    root = tmp_path_factory.mktemp("durasvc")
    src = make_xgc1(scale=0.15)
    kw = {"backend": "sharded", "shards": 2, "chunk_size": 64 << 10,
          "replicas": 2}
    h = two_tier_titan(root, fast_capacity=48 << 20, **kw)
    enc = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": 1e-5, "mode": "relative"},
    )
    enc.encode("camp", "dpot", src.mesh, src.field, LevelScheme(3))

    get_restored_cache().clear()
    get_geometry_cache().clear()
    h = two_tier_titan(root, fast_capacity=48 << 20, **kw)
    svc = CanopusService(
        h, tenants=[TenantConfig(name="t", token="tok")],
        executor_workers=2,
    )
    with ServiceThread(svc):
        yield svc, h, root, kw
    get_restored_cache().clear()
    get_geometry_cache().clear()


class TestServiceDegradedMode:
    def _drive(self, coro):
        return asyncio.run(coro)

    def _raw_keys(self, svc):
        handle = svc.datanode.session.open("camp")
        return list(handle.keys())

    def test_raw_reads_survive_replica_loss(self, degraded_service):
        svc, h, root, kw = degraded_service
        keys = self._raw_keys(svc)
        cached_key, fresh_key = keys[0], keys[1]

        async def read(key):
            async with ServiceClient(svc.host, svc.port, token="tok") as c:
                return await c.read_raw("camp", key)

        # Healthy references: cached_key through the service (warming
        # its block cache), fresh_key via an independent local handle so
        # the service engine has never touched its bytes.
        healthy_cached, _ = self._drive(read(cached_key))
        local = BPDataset.open(
            "camp", two_tier_titan(root, fast_capacity=48 << 20, **kw)
        )
        healthy_fresh = local.read(fresh_key, verify=False)

        for tier in h.tiers:
            if tier.backend.list_objects():
                kill_replica(tier.backend, 0)

        # The never-read key must come back bit-identical via replica
        # failover — that read is what flips the degraded flag.
        degraded_fresh, _ = self._drive(read(fresh_key))
        assert degraded_fresh == healthy_fresh
        degraded_cached, _ = self._drive(read(cached_key))
        assert degraded_cached == healthy_cached

        async def metrics():
            async with ServiceClient(svc.host, svc.port, token="tok") as c:
                return await c.metrics()

        storage = self._drive(metrics())["datanode"]["storage"]
        assert storage["degraded_tiers"], storage
        assert set(storage["replication"].values()) == {2}

    def test_503_only_when_no_replica_survives(self, degraded_service):
        svc, h, _root, _kw = degraded_service
        # A key the engine has never read: the block cache must not mask
        # total storage loss.
        key = self._raw_keys(svc)[-1]
        for tier in h.tiers:
            for index in (0, 1):
                try:
                    kill_replica(tier.backend, index)
                except StorageError:
                    pass  # replica already empty

        async def read():
            async with ServiceClient(svc.host, svc.port, token="tok") as c:
                return await c.read_raw("camp", key)

        with pytest.raises(StorageError):
            self._drive(read())
