"""Tests for the simulated storage hierarchy.

The whole module runs against any object-store backend: set
``REPRO_BACKEND=filesystem|memory|sharded|remote|replicated`` (the CI
tier matrix) to
re-run it over a different byte store. Filesystem-only semantics
(on-disk persistence across handles, path escapes) are skipped where a
backend cannot express them.
"""

import os

import numpy as np
import pytest

from repro.errors import CapacityError, StorageError
from repro.storage import (
    DEVICE_PRESETS,
    DeviceModel,
    SimClock,
    StorageHierarchy,
    StorageTier,
    device_preset,
    make_backend,
    two_tier_titan,
)

#: Backend kind under test; the CI tier matrix sweeps all five.
BACKEND = os.environ.get("REPRO_BACKEND", "filesystem")

persistent_only = pytest.mark.skipif(
    BACKEND == "memory",
    reason="memory backend state dies with the handle (by design)",
)

device_clock_only = pytest.mark.skipif(
    BACKEND == "remote",
    reason="remote backend charges network time on top of the device model",
)


def _tier(name, device, capacity, root, clock=None):
    """A StorageTier over the backend kind selected for this run."""
    if BACKEND == "filesystem":
        return StorageTier(name, device, capacity, root, clock)
    backend = make_backend(BACKEND, root, shards=2, chunk_size=97)
    return StorageTier(name, device, capacity, clock=clock, backend=backend)


@pytest.fixture
def hierarchy(tmp_path):
    clock = SimClock()
    return StorageHierarchy(
        [
            _tier("fast", "dram_tmpfs", 1000, tmp_path / "fast", clock),
            _tier("mid", "ssd", 10_000, tmp_path / "mid", clock),
            _tier("slow", "lustre", 1_000_000, tmp_path / "slow", clock),
        ]
    )


class TestDeviceModel:
    def test_presets_ordered_by_speed(self):
        assert (
            DEVICE_PRESETS["dram_tmpfs"].read_bandwidth
            > DEVICE_PRESETS["ssd"].read_bandwidth
            > DEVICE_PRESETS["lustre"].read_bandwidth
        )

    def test_read_write_seconds(self):
        dev = DeviceModel("x", read_bandwidth=100.0, write_bandwidth=50.0, latency=1.0)
        assert dev.read_seconds(100) == pytest.approx(2.0)
        assert dev.write_seconds(100) == pytest.approx(3.0)

    def test_invalid_bandwidth(self):
        with pytest.raises(StorageError):
            DeviceModel("x", 0, 1, 0)

    def test_invalid_latency(self):
        with pytest.raises(StorageError):
            DeviceModel("x", 1, 1, -0.1)

    def test_unknown_preset(self):
        with pytest.raises(StorageError):
            device_preset("floppy")


class TestSimClock:
    def test_charge_accumulates(self):
        clock = SimClock()
        clock.charge("a", "write", 10, 1.5)
        clock.charge("b", "read", 20, 0.5)
        assert clock.elapsed == pytest.approx(2.0)
        assert clock.total(op="read") == pytest.approx(0.5)
        assert clock.total(tier="a") == pytest.approx(1.5)
        assert clock.bytes_moved() == 30
        assert clock.by_tier() == {"a": 1.5, "b": 0.5}

    def test_reset(self):
        clock = SimClock()
        clock.charge("a", "write", 10, 1.0)
        clock.reset()
        assert clock.elapsed == 0.0
        assert clock.events == []


class TestStorageTier:
    def test_write_read_roundtrip(self, tmp_path):
        tier = _tier("t", "ssd", 1000, tmp_path)
        tier.write("x.bin", b"hello")
        assert tier.read("x.bin") == b"hello"
        assert tier.used_bytes == 5
        assert tier.exists("x.bin")
        assert tier.file_size("x.bin") == 5

    def test_peek_range(self, tmp_path):
        tier = _tier("t", "ssd", 1000, tmp_path)
        tier.write("x.bin", b"0123456789")
        events = len(tier.clock.events)
        assert tier.peek_range("x.bin", 2, 4) == b"2345"
        # The engine charges ranges per batch; a peek charges nothing.
        assert len(tier.clock.events) == events

    def test_peek_range_out_of_bounds(self, tmp_path):
        tier = _tier("t", "ssd", 1000, tmp_path)
        tier.write("x.bin", b"abc")
        with pytest.raises(StorageError):
            tier.peek_range("x.bin", 1, 5)

    def test_capacity_enforced(self, tmp_path):
        tier = _tier("t", "ssd", 10, tmp_path)
        tier.write("a", b"12345")
        with pytest.raises(CapacityError):
            tier.write("b", b"123456")

    def test_overwrite_releases_previous(self, tmp_path):
        tier = _tier("t", "ssd", 10, tmp_path)
        tier.write("a", b"1234567890")
        tier.write("a", b"123")  # shrink in place
        assert tier.used_bytes == 3
        tier.write("b", b"1234567")

    def test_delete(self, tmp_path):
        tier = _tier("t", "ssd", 10, tmp_path)
        tier.write("a", b"12345")
        tier.delete("a")
        assert tier.used_bytes == 0
        assert not tier.exists("a")
        with pytest.raises(StorageError):
            tier.read("a")

    def test_missing_file(self, tmp_path):
        tier = _tier("t", "ssd", 10, tmp_path)
        with pytest.raises(StorageError):
            tier.read("ghost")
        with pytest.raises(StorageError):
            tier.delete("ghost")

    @pytest.mark.skipif(
        BACKEND == "memory", reason="memory backend has no paths to escape"
    )
    def test_path_escape_rejected(self, tmp_path):
        tier = _tier("t", "ssd", 1000, tmp_path / "root")
        with pytest.raises(StorageError):
            tier.write("../escape.bin", b"x")

    @device_clock_only
    def test_clock_charged_by_device_model(self, tmp_path):
        clock = SimClock()
        tier = _tier("t", "lustre", 10**9, tmp_path, clock)
        tier.write("a", b"x" * 1000)
        expect = device_preset("lustre").write_seconds(1000)
        assert clock.elapsed == pytest.approx(expect)

    def test_zero_capacity_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            _tier("t", "ssd", 0, tmp_path)

    @persistent_only
    def test_reopen_adopts_existing_files(self, tmp_path):
        """A tier's store persists like a real mount across handles."""
        t1 = _tier("t", "ssd", 1000, tmp_path)
        t1.write("sub/a.bin", b"hello")
        t2 = _tier("t", "ssd", 1000, tmp_path)
        assert t2.exists("sub/a.bin")
        assert t2.used_bytes == 5
        assert t2.read("sub/a.bin") == b"hello"

    @persistent_only
    def test_reopen_over_capacity_rejected(self, tmp_path):
        t1 = _tier("t", "ssd", 1000, tmp_path)
        t1.write("a.bin", b"x" * 100)
        with pytest.raises(StorageError):
            _tier("t", "ssd", 50, tmp_path)


class TestHierarchy:
    def test_ordering_helpers(self, hierarchy):
        assert hierarchy.fastest.name == "fast"
        assert hierarchy.slowest.name == "slow"
        assert hierarchy.tier_names() == ["fast", "mid", "slow"]
        assert len(hierarchy) == 3
        assert hierarchy[1].name == "mid"

    def test_duplicate_names_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            StorageHierarchy(
                [
                    StorageTier("x", "ssd", 10, tmp_path / "a"),
                    StorageTier("x", "ssd", 10, tmp_path / "b"),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(StorageError):
            StorageHierarchy([])

    def test_place_prefers_fast(self, hierarchy):
        tier = hierarchy.place("a.bin", b"x" * 100)
        assert tier.name == "fast"

    def test_place_bypasses_full_tier(self, hierarchy):
        """Paper §III-D: insufficient capacity → bypass to next tier."""
        tier = hierarchy.place("big.bin", b"x" * 2000)
        assert tier.name == "mid"

    def test_place_preferred_index(self, hierarchy):
        tier = hierarchy.place("a.bin", b"x" * 10, preferred_index=2)
        assert tier.name == "slow"

    def test_place_nothing_fits(self, hierarchy):
        with pytest.raises(CapacityError):
            hierarchy.place("huge.bin", b"x" * 10_000_000)

    def test_locate_and_read(self, hierarchy):
        hierarchy.place("a.bin", b"data")
        assert hierarchy.locate("a.bin").name == "fast"
        assert hierarchy.read("a.bin") == b"data"
        assert hierarchy.locate("ghost") is None
        with pytest.raises(StorageError):
            hierarchy.read("ghost")

    @device_clock_only
    def test_shared_clock(self, hierarchy):
        hierarchy.place("a.bin", b"x" * 100)
        hierarchy.place("b.bin", b"x" * 2000)  # lands on mid
        tiers_charged = {e.tier for e in hierarchy.clock.events}
        assert tiers_charged == {"fast", "mid"}

    def test_migrate(self, hierarchy):
        hierarchy.place("a.bin", b"hello")
        hierarchy.migrate("a.bin", "slow")
        assert hierarchy.locate("a.bin").name == "slow"
        assert hierarchy.read("a.bin") == b"hello"
        assert hierarchy.tier("fast").used_bytes == 0

    def test_migrate_same_tier_noop(self, hierarchy):
        hierarchy.place("a.bin", b"hello")
        before = len(hierarchy.clock.events)
        hierarchy.migrate("a.bin", "fast")
        assert len(hierarchy.clock.events) == before

    def test_evict_demotes_one_level(self, hierarchy):
        hierarchy.place("a.bin", b"hello")
        hierarchy.evict("a.bin")
        assert hierarchy.locate("a.bin").name == "mid"

    def test_evict_from_slowest_fails(self, hierarchy):
        hierarchy.place("a.bin", b"x", preferred_index=2)
        with pytest.raises(StorageError):
            hierarchy.evict("a.bin")

    def test_proportional_allocation(self, hierarchy):
        alloc = hierarchy.proportional_allocation(1_000_000)
        # fast:slow capacity ratio is 1000:1_000_000 = 1/1000.
        assert alloc["fast"] == 1000
        assert alloc["slow"] == 1_000_000

    def test_usage_reporting(self, hierarchy):
        hierarchy.place("a.bin", b"x" * 50)
        usage = hierarchy.usage()
        assert usage["fast"]["used"] == 50
        assert usage["slow"]["capacity"] == 1_000_000

    def test_two_tier_titan_factory(self, tmp_path):
        h = two_tier_titan(
            tmp_path, fast_capacity=1024, slow_capacity=10**6,
            backend=BACKEND,
        )
        assert h.tier_names() == ["tmpfs", "lustre"]
        assert h.fastest.device.name == "dram_tmpfs"
        assert h.slowest.device.name == "lustre"
        assert h.fastest.backend.kind == BACKEND
