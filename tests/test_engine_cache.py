"""Tests for the retrieval engine: range cache, batching, prefetch."""

import sys
import threading

import numpy as np
import pytest

from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.errors import BPFormatError
from repro.io import BPDataset, RangeCache
from repro.io.engine import EngineStats
from repro.io.transports import PosixTransport
from repro.mesh.generators import annulus
from repro.storage import SimClock, StorageHierarchy, StorageTier, two_tier_titan

TOL = 1e-4


@pytest.fixture
def hierarchy(tmp_path):
    return two_tier_titan(tmp_path, fast_capacity=4 << 20, slow_capacity=1 << 33)


@pytest.fixture(scope="module")
def dataset_inputs():
    mesh = annulus(40, 120)
    v = mesh.vertices
    field = np.sin(3 * v[:, 0]) * np.cos(3 * v[:, 1]) + 0.4 * np.exp(
        -((v[:, 0] - 0.8) ** 2 + v[:, 1] ** 2) / 0.05
    )
    return mesh, field


def encode(hierarchy, mesh, field, *, levels=3, **kw):
    kw.setdefault("codec", "zfp")
    kw.setdefault("codec_params", {"tolerance": TOL})
    enc = CanopusEncoder(hierarchy, **kw)
    return enc.encode("run", "dpot", mesh, field, LevelScheme(levels))


def plain_dataset(hierarchy, payloads, **open_kwargs):
    """Write raw payloads and reopen the dataset for reading."""
    ds = BPDataset.create("raw", hierarchy)
    for key, (payload, tier) in payloads.items():
        ds.write(key, payload, preferred_tier=tier)
    ds.close()
    return BPDataset.open("raw", hierarchy, **open_kwargs)


class TestRangeCache:
    def test_hit_miss_and_recency(self):
        cache = RangeCache(100)
        key = ("sub.bp", 0, 3)
        assert cache.get(key) is None
        assert cache.misses == 1
        assert cache.put(key, b"abc", "fast")
        entry = cache.get(key)
        assert entry is not None and entry.data == b"abc"
        assert entry.tier == "fast"
        assert cache.hits == 1
        assert key in cache
        assert len(cache) == 1
        assert cache.used_bytes == 3

    def test_lru_eviction_order(self):
        cache = RangeCache(10)
        a, b, c = ("s", 0, 4), ("s", 4, 4), ("s", 8, 4)
        cache.put(a, b"aaaa", "t")
        cache.put(b, b"bbbb", "t")
        cache.get(a)  # refresh a → b is now least recently used
        cache.put(c, b"cccc", "t")  # over budget → evict b
        assert a in cache and c in cache and b not in cache
        assert cache.evictions == 1
        assert cache.used_bytes <= 10

    def test_oversized_entry_bypasses(self):
        cache = RangeCache(4)
        assert not cache.put(("s", 0, 8), b"x" * 8, "t")
        assert len(cache) == 0

    def test_zero_capacity_disables(self):
        cache = RangeCache(0)
        assert not cache.put(("s", 0, 1), b"x", "t")
        assert cache.get(("s", 0, 1)) is None

    def test_replacing_entry_reclaims_bytes(self):
        cache = RangeCache(10)
        key = ("s", 0, 4)
        cache.put(key, b"aaaa", "t")
        cache.put(key, b"bb", "t")
        assert cache.used_bytes == 2

    def test_invalidate(self):
        cache = RangeCache(100)
        cache.put(("one.bp", 0, 1), b"a", "t")
        cache.put(("one.bp", 1, 1), b"b", "t")
        cache.put(("two.bp", 0, 1), b"c", "t")
        assert cache.invalidate("one.bp") == 2
        assert cache.used_bytes == 1
        assert cache.invalidate() == 1
        assert cache.used_bytes == 0

    def test_stats_dict(self):
        cache = RangeCache(100)
        cache.put(("s", 0, 1), b"x", "t")
        stats = cache.stats()
        assert stats["insertions"] == 1
        assert stats["capacity_bytes"] == 100

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            RangeCache(-1)


class TestEngineCaching:
    def test_repeated_read_hits_cache_and_charges_once(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"payload-bytes", 1)})
        first = rd.read("k")
        clock_after_first = hierarchy.clock.elapsed
        second = rd.read("k")
        assert first == second == b"payload-bytes"
        assert hierarchy.clock.elapsed == clock_after_first  # hit is free
        stats = rd.engine_stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.bytes_from_cache == len(b"payload-bytes")
        assert stats.bytes_from_tier["lustre"] == len(b"payload-bytes")

    def test_cache_disabled_recharges(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"payload", 1)}, cache_bytes=0)
        rd.read("k")
        t1 = hierarchy.clock.elapsed
        rd.read("k")
        assert hierarchy.clock.elapsed > t1
        assert rd.engine_stats().hits == 0

    def test_cold_read_charge_matches_legacy_model(self, hierarchy):
        payload = b"z" * 10_000
        rd = plain_dataset(hierarchy, {"k": (payload, 1)})
        device = hierarchy.tier("lustre").device
        before = hierarchy.clock.elapsed
        rd.read("k")
        assert hierarchy.clock.elapsed - before == pytest.approx(
            device.read_seconds(len(payload))
        )

    def test_eviction_under_tiny_budget(self, hierarchy):
        payloads = {
            f"k{i}": (bytes([65 + i]) * 4096, 1) for i in range(8)
        }
        rd = plain_dataset(hierarchy, payloads, cache_bytes=2 * 4096)
        for key in payloads:
            rd.read(key)
        cache_stats = rd.engine.cache.stats()
        assert cache_stats["evictions"] > 0
        assert cache_stats["used_bytes"] <= 2 * 4096


class TestReadMany:
    def test_batch_returns_all_and_coalesces(self, hierarchy):
        payloads = {f"k{i}": (bytes([48 + i]) * 256, 1) for i in range(6)}
        rd = plain_dataset(hierarchy, payloads)
        out = rd.read_many(sorted(payloads))
        assert out == {k: v for k, (v, _) in payloads.items()}
        stats = rd.engine_stats()
        assert stats.batches == 1
        # Adjacent ranges in one subfile coalesce into a single span.
        assert stats.coalesced_spans == 1

    def test_batch_cheaper_than_serial(self, tmp_path):
        payloads = {f"k{i}": (bytes([48 + i]) * 50_000, 1) for i in range(6)}
        h_serial = two_tier_titan(tmp_path / "a")
        rd = plain_dataset(h_serial, payloads)
        before = h_serial.clock.elapsed
        for key in sorted(payloads):
            rd.read(key)
        serial_cost = h_serial.clock.elapsed - before

        h_batch = two_tier_titan(tmp_path / "b")
        rd2 = plain_dataset(h_batch, payloads)
        before = h_batch.clock.elapsed
        rd2.read_many(sorted(payloads))
        batch_cost = h_batch.clock.elapsed - before
        assert batch_cost < serial_cost

    def test_batch_across_tiers_overlaps(self, tmp_path):
        h = two_tier_titan(tmp_path)
        ds = BPDataset.create("raw", h)
        ds.write("fastkey", b"f" * 30_000, preferred_tier=0)
        ds.write("slowkey", b"s" * 30_000, preferred_tier=1)
        ds.close()
        rd = BPDataset.open("raw", h)
        tmpfs = h.tier("tmpfs").device
        lustre = h.tier("lustre").device
        before = h.clock.elapsed
        out = rd.read_many(["fastkey", "slowkey"])
        cost = h.clock.elapsed - before
        assert out["fastkey"] == b"f" * 30_000
        # Tiers overlap: total advance is the max per-tier charge, not sum.
        expected = max(
            tmpfs.concurrent_read_seconds([30_000]),
            lustre.concurrent_read_seconds([30_000]),
        )
        assert cost == pytest.approx(expected)

    def test_duplicate_keys_fetch_once(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"abc", 1)})
        out = rd.read_many(["k", "k", "k"])
        assert out == {"k": b"abc"}
        assert rd.engine_stats().misses == 1


class TestPrefetch:
    def test_prefetch_then_read_is_useful_hit(self, hierarchy):
        payloads = {f"k{i}": (b"x" * 1000, 1) for i in range(3)}
        rd = plain_dataset(hierarchy, payloads)
        issued = rd.prefetch(sorted(payloads))
        assert issued >= 1
        charged = hierarchy.clock.elapsed
        for key in sorted(payloads):
            assert rd.read(key) == b"x" * 1000
        # Reads after the prefetch landed are free: charge was at submit.
        assert hierarchy.clock.elapsed == charged
        stats = rd.engine_stats()
        assert stats.prefetch_issued == 3
        assert stats.prefetch_useful == 3
        assert stats.hits == 3

    def test_prefetch_unknown_keys_ignored(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"abc", 1)})
        assert rd.prefetch(["ghost", "also-ghost"]) == 0

    def test_prefetch_noop_when_cache_disabled(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"abc", 1)}, cache_bytes=0)
        before = hierarchy.clock.elapsed
        assert rd.prefetch(["k"]) == 0
        assert hierarchy.clock.elapsed == before

    def test_repeated_hints_are_free(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"abc", 1)})
        rd.prefetch(["k"])
        before = hierarchy.clock.elapsed
        assert rd.prefetch(["k"]) == 0
        assert hierarchy.clock.elapsed == before


class _BarrierTransport(PosixTransport):
    """Counts uncharged range reads; each one waits (up to half a second) for
    a second caller, so two fetches of one range always overlap."""

    def __init__(self, tier):
        super().__init__(tier)
        self.barrier = threading.Barrier(2, timeout=0.5)
        self.peeks = 0
        self._lock = threading.Lock()

    def peek_range(self, relpath, offset, length):
        with self._lock:
            self.peeks += 1
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            pass  # no second fetch came: the range was fetched once
        return super().peek_range(relpath, offset, length)


class TestSingleFlight:
    """Concurrent misses of one range are fetched, charged and counted
    once: the first caller claims the range, the second waits on it."""

    PAYLOAD = b"p" * 20_000

    def _open(self, hierarchy):
        transports = {t.name: _BarrierTransport(t) for t in hierarchy}
        rd = plain_dataset(
            hierarchy, {"k": (self.PAYLOAD, 1)}, transports=transports
        )
        return rd, rd.inq("k"), transports[rd.inq("k").tier]

    @staticmethod
    def _race(call):
        """Run ``call`` on two threads at once; (results, errors)."""
        results, errors = [], []

        def worker():
            try:
                results.append(call())
            except Exception as exc:  # collected for the assertions
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        return results, errors

    def test_identical_misses_fetch_once(self, hierarchy):
        rd, rec, transport = self._open(hierarchy)
        before = hierarchy.clock.elapsed
        results, errors = self._race(lambda: rd.engine.read_many([rec]))
        assert errors == []
        assert results == [{"k": self.PAYLOAD}] * 2
        assert transport.peeks == 1
        stats = rd.engine_stats()
        assert (stats.misses, stats.hits) == (1, 1)
        device = hierarchy.tier(rec.tier).device
        assert hierarchy.clock.elapsed - before == pytest.approx(
            device.concurrent_read_seconds([rec.length])
        )

    def test_single_reads_fetch_once(self, hierarchy):
        rd, rec, transport = self._open(hierarchy)
        before = hierarchy.clock.elapsed
        results, errors = self._race(lambda: rd.engine.read(rec))
        assert errors == [] and results == [self.PAYLOAD] * 2
        assert transport.peeks == 1
        assert rd.engine_stats().misses == 1
        device = hierarchy.tier(rec.tier).device
        assert hierarchy.clock.elapsed - before == pytest.approx(
            device.read_seconds(rec.length)
        )

    def test_owner_error_is_raised_in_waiter(self, hierarchy):
        rd, rec, transport = self._open(hierarchy)
        TestChecksumVerification._corrupt(hierarchy, rd, "k")
        results, errors = self._race(lambda: rd.engine.read_many([rec]))
        assert results == [] and len(errors) == 2
        assert all(isinstance(e, BPFormatError) for e in errors)
        assert transport.peeks == 1
        # The failed claim is released: the next read fetches again.
        with pytest.raises(BPFormatError, match="checksum mismatch"):
            rd.read("k")
        assert transport.peeks == 2

    def test_stress_overlapping_batches(self, hierarchy):
        """Eight threads read, batch and prefetch overlapping key sets
        with a tiny switch interval: every range is still fetched and
        counted once, every caller gets its bytes, no claim is left."""
        payloads = {
            f"k{i:02d}": (bytes([i]) * (5_000 + 97 * i), i % 2)
            for i in range(24)
        }
        rd = plain_dataset(hierarchy, payloads)
        recs = [rd.inq(key) for key in sorted(payloads)]
        errors = []

        def worker(n):
            try:
                for round_ in range(6):
                    lo = (n * 5 + round_ * 7) % len(recs)
                    batch = (recs + recs)[lo:lo + 9]
                    if round_ % 3 == 0:
                        rd.engine.prefetch(batch)
                    out = rd.engine.read_many(batch)
                    out[batch[0].key] = rd.engine.read(batch[0])
                    for rec in batch:
                        assert out[rec.key] == payloads[rec.key][0]
            except Exception as exc:  # collected for the assertion
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert rd.engine_stats().misses == len(recs)
        assert rd.engine._inflight == {}


class TestChecksumVerification:
    @staticmethod
    def _corrupt(hierarchy, rd, key):
        rec = rd.inq(key)
        tier = hierarchy.tier(rec.tier)
        path = tier._path(rec.subfile)
        data = bytearray(path.read_bytes())
        data[rec.offset] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_corrupt_payload_raises(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"payload-bytes", 1)})
        self._corrupt(hierarchy, rd, "k")
        with pytest.raises(BPFormatError, match="checksum mismatch"):
            rd.read("k")

    def test_verify_opt_out_returns_corrupt_bytes(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"payload-bytes", 1)})
        self._corrupt(hierarchy, rd, "k")
        blob = rd.read("k", verify=False)
        assert blob != b"payload-bytes" and len(blob) == len(b"payload-bytes")

    def test_dataset_wide_opt_out(self, hierarchy):
        rd = plain_dataset(
            hierarchy, {"k": (b"payload-bytes", 1)}, verify_checksums=False
        )
        self._corrupt(hierarchy, rd, "k")
        rd.read("k")  # no raise

    def test_read_many_verifies(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"payload-bytes", 1)})
        self._corrupt(hierarchy, rd, "k")
        with pytest.raises(BPFormatError, match="checksum mismatch"):
            rd.read_many(["k"])


class TestPipelinedProgressive:
    def test_pipelined_bit_identical_to_serial(self, tmp_path, dataset_inputs):
        mesh, field = dataset_inputs
        h_serial = two_tier_titan(
            tmp_path / "serial", fast_capacity=4 << 20, slow_capacity=1 << 33
        )
        encode(h_serial, mesh, field)
        serial_start = h_serial.clock.elapsed
        serial = CanopusDecoder(BPDataset.open("run", h_serial))
        serial_states = [
            s.field.copy() for s in serial.walk("dpot", pipeline=False)
        ]
        serial_cost = h_serial.clock.elapsed - serial_start

        h_pipe = two_tier_titan(
            tmp_path / "pipe", fast_capacity=4 << 20, slow_capacity=1 << 33
        )
        encode(h_pipe, mesh, field)
        elapsed_after_encode = h_pipe.clock.elapsed
        pipe = CanopusDecoder(BPDataset.open("run", h_pipe))
        pipe_states = [s.field.copy() for s in pipe.walk("dpot")]
        pipe_cost = h_pipe.clock.elapsed - elapsed_after_encode

        assert len(serial_states) == len(pipe_states)
        for a, b in zip(serial_states, pipe_states):
            np.testing.assert_array_equal(a, b)
        # The overlapped batch model makes the pipelined read cheaper in
        # simulated time (encode cost excluded from both sides).
        assert pipe_cost < serial_cost
        assert pipe.dataset.engine_stats().prefetch_useful > 0

    def test_pipeline_timings_include_prefetch_charge(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        decoder = CanopusDecoder(BPDataset.open("run", hierarchy))
        before = hierarchy.clock.elapsed
        final = None
        for state in decoder.walk("dpot"):
            final = state
        charged = hierarchy.clock.elapsed - before
        # Timings accumulate across refinements; the cumulative io phase
        # accounts for every simulated second the pipeline charged
        # (prefetch cost folded into the issuing step).
        assert final.timings.io_seconds == pytest.approx(charged)


class TestEngineMisc:
    def test_stats_as_dict_keys(self):
        stats = EngineStats()
        d = stats.as_dict()
        assert {"hits", "misses", "bytes_from_tier", "prefetch_issued",
                "prefetch_useful", "batches"} <= set(d)

    def test_engine_repr(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"abc", 1)})
        assert "RangeCache" in repr(rd.engine)
