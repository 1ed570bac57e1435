"""Tests for the retrieval engine: range cache, batching, prefetch."""

import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.errors import BPFormatError
from repro.io import BPDataset
from repro.io.engine import EngineStats, RetrievalEngine
from repro.mesh.generators import annulus
from repro.storage import two_tier_titan

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


class TestCacheBudget:
    """The engine's range cache is one byte-budgeted LRU; recency,
    eviction and replacement are :class:`repro.lru.LRU`'s
    (``tests/test_lru.py``). What the engine adds is checked here."""

    def test_over_budget_record_is_not_cached(self, hierarchy):
        rd = plain_dataset(
            hierarchy, {"big": (b"x" * 64, 1), "small": (b"y" * 8, 1)},
            cache_bytes=16,
        )
        rd.read("big")
        rd.read("small")
        assert len(rd.engine.cache) == 1 and rd.engine.cache.weight == 8
        before = hierarchy.clock.elapsed
        assert rd.read("big") == b"x" * 64
        assert hierarchy.clock.elapsed > before  # fetched again
        assert rd.read("small") == b"y" * 8
        stats = rd.engine_stats()
        assert (stats.misses, stats.hits) == (3, 1)

    def test_zero_budget_caches_and_prefetches_nothing(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"abc", 1)}, cache_bytes=0)
        rd.read_many(["k"])
        rd.read("k")
        assert len(rd.engine.cache) == 0
        before = hierarchy.clock.elapsed
        assert rd.prefetch(["k"]) == 0
        assert hierarchy.clock.elapsed == before
        assert len(rd.engine.cache) == 0
        assert rd.engine_stats().prefetch_issued == 0

    def test_negative_budget_rejected(self, hierarchy):
        with pytest.raises(ValueError, match="cache_bytes"):
            RetrievalEngine(hierarchy, cache_bytes=-1)

    def test_hit_refreshes_recency(self, hierarchy):
        payloads = {key: (key.encode() * 4, 1) for key in "abc"}
        rd = plain_dataset(hierarchy, payloads, cache_bytes=8)
        rd.read("a")
        rd.read("b")
        rd.read("a")  # a hit: "b" is now the least recently used
        rd.read("c")  # over budget: "b" is evicted
        cached = {rd.engine._key(rd.inq(k)) for k in "ac"}
        assert {key for key, _ in rd.engine.cache.items()} == cached
        assert rd.engine.cache.evictions == 1
        before = hierarchy.clock.elapsed
        assert rd.read("a") == b"aaaa"
        assert hierarchy.clock.elapsed == before
        assert rd.read("b") == b"bbbb"
        assert hierarchy.clock.elapsed > before

    def test_hit_is_counted_on_the_charged_tier(self, hierarchy):
        rd = plain_dataset(
            hierarchy, {"fast": (b"f" * 16, 0), "slow": (b"s" * 32, 1)}
        )
        for _ in range(2):
            rd.read_many(["fast", "slow"])
        stats = rd.engine_stats()
        assert stats.hits_by_tier == {"tmpfs": 1, "lustre": 1}
        assert stats.misses_by_tier == {"tmpfs": 1, "lustre": 1}
        assert stats.bytes_from_cache == 16 + 32


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

    def test_single_read_is_a_batch_of_one(self, hierarchy, dataset_inputs):
        """``read`` charges exactly ``read_seconds`` in one event
        labelled with the key — the pre-batch cost, bit for bit."""
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        rd = BPDataset.open("run", hierarchy)
        clock = hierarchy.clock
        for rec in rd.select():
            device = hierarchy.tier(rec.tier).device
            before, events = clock.elapsed, len(clock.events)
            rd.read(rec.key)
            assert clock.elapsed == before + device.read_seconds(rec.length)
            (event,) = clock.events[events:]
            assert event.label == rec.key
            assert (event.tier, event.op, event.nbytes) == (
                rec.tier, "read", rec.length
            )
            assert event.seconds == device.read_seconds(rec.length)

    def test_eviction_under_tiny_budget(self, hierarchy):
        payloads = {
            f"k{i}": (bytes([65 + i]) * 4096, 1) for i in range(8)
        }
        rd = plain_dataset(hierarchy, payloads, cache_bytes=2 * 4096)
        for key in payloads:
            rd.read(key)
        assert rd.engine.cache.evictions > 0
        assert rd.engine.cache.weight <= 2 * 4096


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

    def test_hint_for_a_cached_range_counts_no_hit(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"abc", 1)})
        rd.read("k")
        before = hierarchy.clock.elapsed
        assert rd.prefetch(["k"]) == 0
        assert hierarchy.clock.elapsed == before
        stats = rd.engine_stats()
        assert (stats.hits, stats.misses, stats.prefetch_issued) == (0, 1, 0)

    def test_hint_skips_an_inflight_range_without_waiting(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"abc", 1), "j": (b"xyz", 1)})
        key = rd.engine._key(rd.inq("k"))
        claim = Future()  # another caller's fetch that never ends
        rd.engine._inflight[key] = claim
        try:
            assert rd.prefetch(["k", "j"]) == 1
        finally:
            del rd.engine._inflight[key]
        assert not claim.done()
        assert key not in rd.engine.cache
        stats = rd.engine_stats()
        assert (stats.hits, stats.misses, stats.prefetch_issued) == (0, 1, 1)

    def test_failed_hint_is_swallowed_and_raised_by_the_read(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"payload-bytes", 1)})
        TestChecksumVerification._corrupt(hierarchy, rd, "k")
        rd.prefetch(["k"])  # no raise
        assert rd.engine._inflight == {} and len(rd.engine.cache) == 0
        with pytest.raises(BPFormatError, match="checksum mismatch"):
            rd.read("k")


class _BarrierPeek:
    """Stands in for a tier's uncharged ``peek_range``: counts the range
    reads, and each one waits (up to half a second) for a second caller,
    so two fetches of one range always overlap."""

    def __init__(self, tier):
        self._peek_range = tier.peek_range
        self.barrier = threading.Barrier(2, timeout=0.5)
        self.peeks = 0
        self._lock = threading.Lock()

    def __call__(self, relpath, offset, length):
        with self._lock:
            self.peeks += 1
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            pass  # no second fetch came: the range was fetched once
        return self._peek_range(relpath, offset, length)


class TestSingleFlight:
    """Concurrent misses of one range are fetched, charged and counted
    once: the first caller claims the range, the second waits on it."""

    PAYLOAD = b"p" * 20_000

    @pytest.fixture
    def opened(self, hierarchy, monkeypatch):
        """``(dataset, record, peek)`` with the record's tier behind a
        :class:`_BarrierPeek`."""
        rd = plain_dataset(hierarchy, {"k": (self.PAYLOAD, 1)})
        rec = rd.inq("k")
        tier = hierarchy.tier(rec.tier)
        peek = _BarrierPeek(tier)
        monkeypatch.setattr(tier, "peek_range", peek)
        return rd, rec, peek

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

    def test_identical_misses_fetch_once(self, hierarchy, opened):
        rd, rec, peek = opened
        before = hierarchy.clock.elapsed
        results, errors = self._race(lambda: rd.engine.read_many([rec]))
        assert errors == []
        assert results == [{"k": self.PAYLOAD}] * 2
        assert peek.peeks == 1
        stats = rd.engine_stats()
        assert (stats.misses, stats.hits) == (1, 1)
        device = hierarchy.tier(rec.tier).device
        assert hierarchy.clock.elapsed - before == pytest.approx(
            device.concurrent_read_seconds([rec.length])
        )

    def test_single_reads_fetch_once(self, hierarchy, opened):
        rd, rec, peek = opened
        before = hierarchy.clock.elapsed
        results, errors = self._race(lambda: rd.engine.read(rec))
        assert errors == [] and results == [self.PAYLOAD] * 2
        assert peek.peeks == 1
        assert rd.engine_stats().misses == 1
        device = hierarchy.tier(rec.tier).device
        assert hierarchy.clock.elapsed - before == pytest.approx(
            device.read_seconds(rec.length)
        )

    def test_owner_error_is_raised_in_waiter(self, hierarchy, opened):
        rd, rec, peek = opened
        TestChecksumVerification._corrupt(hierarchy, rd, "k")
        results, errors = self._race(lambda: rd.engine.read_many([rec]))
        assert results == [] and len(errors) == 2
        assert all(isinstance(e, BPFormatError) for e in errors)
        assert peek.peeks == 1
        # The failed claim is released: the next read fetches again.
        with pytest.raises(BPFormatError, match="checksum mismatch"):
            rd.read("k")
        assert peek.peeks == 2

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
    def test_snapshot_keys(self):
        stats = EngineStats()
        d = stats.snapshot()
        assert {"hits", "misses", "bytes_from_tier", "prefetch_issued",
                "prefetch_useful", "batches"} <= set(d)

    def test_engine_repr(self, hierarchy):
        rd = plain_dataset(hierarchy, {"k": (b"abc", 1)})
        rd.read("k")
        assert repr(rd.engine) == (
            "RetrievalEngine(cached=1 ranges, 3/67108864 B, inflight=0)"
        )
