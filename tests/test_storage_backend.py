"""Tests for the pluggable object-store backends (repro.storage.backend)."""

import json
import threading

import pytest

from repro.errors import CapacityError, StorageError
from repro.storage import (
    BACKEND_KINDS,
    FilesystemBackend,
    MemoryBackend,
    ObjectStore,
    RemoteBackend,
    ReplicatedBackend,
    ShardedBackend,
    StorageTier,
    make_backend,
)


def _make(kind, tmp_path):
    if kind == "filesystem":
        return FilesystemBackend(tmp_path / "fs")
    if kind == "memory":
        return MemoryBackend()
    if kind == "sharded":
        return ShardedBackend(
            [MemoryBackend() for _ in range(3)], chunk_size=16
        )
    if kind == "remote":
        return RemoteBackend(MemoryBackend())
    if kind == "replicated":
        return ReplicatedBackend([MemoryBackend() for _ in range(2)])
    raise AssertionError(f"unknown backend kind {kind!r}")


@pytest.fixture(params=BACKEND_KINDS)
def backend(request, tmp_path):
    return _make(request.param, tmp_path)


class TestObjectStoreContract:
    """Behaviour every backend must share."""

    def test_put_get_roundtrip(self, backend):
        assert backend.put("a.bin", b"hello") == 5
        assert backend.get("a.bin") == b"hello"
        assert backend.exists("a.bin")
        assert backend.size("a.bin") == 5

    def test_overwrite(self, backend):
        backend.put("a.bin", b"x" * 40)
        backend.put("a.bin", b"short")
        assert backend.get("a.bin") == b"short"
        assert backend.size("a.bin") == 5

    def test_get_range(self, backend):
        backend.put("a.bin", bytes(range(64)))
        assert backend.get_range("a.bin", 0, 64) == bytes(range(64))
        assert backend.get_range("a.bin", 10, 30) == bytes(range(10, 40))
        assert backend.get_range("a.bin", 63, 1) == b"\x3f"
        assert backend.get_range("a.bin", 5, 0) == b""

    def test_get_range_out_of_bounds(self, backend):
        backend.put("a.bin", b"abc")
        for off, length in [(0, 4), (-1, 2), (2, -1), (4, 1)]:
            with pytest.raises(StorageError):
                backend.get_range("a.bin", off, length)

    def test_missing_key(self, backend):
        for op in (backend.get, backend.size, backend.delete):
            with pytest.raises(StorageError):
                op("ghost")
        with pytest.raises(StorageError):
            backend.get_range("ghost", 0, 1)
        assert not backend.exists("ghost")

    def test_delete(self, backend):
        backend.put("a.bin", b"data")
        backend.delete("a.bin")
        assert not backend.exists("a.bin")
        assert backend.list_objects() == []

    def test_list_objects_sorted(self, backend):
        backend.put("b", b"22")
        backend.put("a", b"1")
        backend.put("c", b"333")
        assert backend.list_objects() == [("a", 1), ("b", 2), ("c", 3)]

    def test_put_many_returns_total(self, backend):
        total = backend.put_many({"x": b"12", "y": b"345"})
        assert total == 5
        assert backend.get("x") == b"12"
        assert backend.get("y") == b"345"

    def test_get_many_preserves_order(self, backend):
        backend.put("a", bytes(range(40)))
        backend.put("b", b"zz" * 20)
        blobs = backend.get_many([("b", 0, 2), ("a", 30, 10), ("a", 0, 1)])
        assert blobs == [b"zz", bytes(range(30, 40)), b"\x00"]

    def test_empty_object(self, backend):
        backend.put("empty", b"")
        assert backend.size("empty") == 0
        assert backend.get("empty") == b""

    def test_verify_clean(self, backend):
        backend.put("a", b"x" * 100)
        backend.put("b", b"y" * 5)
        assert backend.verify() == []

    def test_nested_keys(self, backend):
        backend.put("run/sub/a.bp", b"deep")
        assert backend.get("run/sub/a.bp") == b"deep"
        assert ("run/sub/a.bp", 4) in backend.list_objects()


class TestFilesystemBackend:
    def test_persists_across_handles(self, tmp_path):
        FilesystemBackend(tmp_path).put("a", b"kept")
        assert FilesystemBackend(tmp_path).get("a") == b"kept"

    def test_key_escape_rejected(self, tmp_path):
        be = FilesystemBackend(tmp_path / "root")
        with pytest.raises(StorageError):
            be.put("../escape", b"x")

    def test_every_escape_rejected_with_root_resolved_once(self, tmp_path):
        # The root is resolved once, at construction; each key is still
        # resolved on every access, so a symlink inside the root that
        # points outside it is caught.
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "x").write_bytes(b"secret")
        be = FilesystemBackend(tmp_path / "root")
        (be.root / "link").symlink_to(outside, target_is_directory=True)
        for key in ("../x", "a/../../x", str(outside / "x"), "link/x"):
            with pytest.raises(StorageError):
                be.get(key)
            with pytest.raises(StorageError):
                be.put(key, b"y")
            assert not be.exists(key)
        assert (outside / "x").read_bytes() == b"secret"
        be.put("a/../inside", b"ok")
        assert be.get("inside") == b"ok"


class TestMemoryBackend:
    def test_contents_die_with_instance(self):
        MemoryBackend().put("a", b"x")
        assert not MemoryBackend().exists("a")

    def test_put_copies_input(self):
        be = MemoryBackend()
        buf = bytearray(b"mutable")
        be.put("a", buf)
        buf[0] = 0
        assert be.get("a") == b"mutable"

    def test_get_range_past_end_raises_not_truncates(self):
        # Pins the contract: an out-of-bounds range is a StorageError,
        # never a silent Python-slice short read.
        be = MemoryBackend()
        be.put("a", b"0123456789")
        with pytest.raises(StorageError, match="range"):
            be.get_range("a", 8, 5)
        with pytest.raises(StorageError, match="range"):
            be.get_range("a", 10, 1)

    def test_get_range_negative_offset_and_length_raise(self):
        be = MemoryBackend()
        be.put("a", b"0123456789")
        with pytest.raises(StorageError):
            be.get_range("a", -2, 3)
        with pytest.raises(StorageError):
            be.get_range("a", 3, -2)


class _CountingStore(MemoryBackend):
    """Memory sub-store that counts batched calls."""

    def __init__(self):
        super().__init__()
        self.get_many_calls = 0
        self.put_many_calls = 0

    def get_many(self, requests):
        self.get_many_calls += 1
        return super().get_many(requests)

    def put_many(self, items):
        self.put_many_calls += 1
        return super().put_many(items)


class TestShardedBackend:
    def test_chunk_layout(self):
        subs = [MemoryBackend() for _ in range(3)]
        be = ShardedBackend(subs, chunk_size=4)
        be.put("obj", b"0123456789ab")  # 3 chunks
        assert subs[0].get("obj#000000") == b"0123"
        assert subs[1].get("obj#000001") == b"4567"
        assert subs[2].get("obj#000002") == b"89ab"
        manifest = json.loads(subs[0].get("obj#meta"))
        assert manifest["size"] == 12
        assert manifest["chunks"] == 3

    def test_range_across_chunk_boundary(self):
        be = ShardedBackend([MemoryBackend() for _ in range(2)], chunk_size=8)
        payload = bytes(range(50))
        be.put("obj", payload)
        for off, length in [(0, 50), (6, 10), (7, 1), (8, 8), (15, 20)]:
            assert be.get_range("obj", off, length) == payload[off:off + length]

    def test_batched_get_one_call_per_substore(self):
        subs = [_CountingStore() for _ in range(2)]
        be = ShardedBackend(subs, chunk_size=4)
        be.put("obj", b"x" * 32)  # 8 chunks, 4 per sub-store
        subs[0].get_many_calls = subs[1].get_many_calls = 0
        be.get("obj")
        assert subs[0].get_many_calls == 1
        assert subs[1].get_many_calls == 1

    def test_batched_put_one_call_per_substore(self):
        subs = [_CountingStore() for _ in range(2)]
        be = ShardedBackend(subs, chunk_size=4)
        be.put("obj", b"x" * 32)
        assert subs[0].put_many_calls == 1
        assert subs[1].put_many_calls == 1

    def test_shrinking_overwrite_drops_stale_chunks(self):
        subs = [MemoryBackend() for _ in range(2)]
        be = ShardedBackend(subs, chunk_size=4)
        be.put("obj", b"x" * 20)  # 5 chunks
        be.put("obj", b"y" * 6)  # 2 chunks
        assert be.get("obj") == b"y" * 6
        assert be.verify() == []
        all_chunks = [
            name for s in subs for name, _ in s.list_objects()
            if not name.endswith("#meta")
        ]
        assert sorted(all_chunks) == ["obj#000000", "obj#000001"]

    def test_verify_missing_chunk(self):
        subs = [MemoryBackend() for _ in range(3)]
        be = ShardedBackend(subs, chunk_size=4)
        be.put("obj", b"x" * 12)
        subs[1].delete("obj#000001")
        problems = be.verify()
        assert any("missing chunk" in p and "obj" in p for p in problems)

    def test_verify_crc_over_chunk_boundaries(self):
        subs = [MemoryBackend() for _ in range(2)]
        be = ShardedBackend(subs, chunk_size=4)
        be.put("obj", b"abcdefgh")
        # Swap two same-size chunks: every per-chunk size check passes,
        # only the whole-object CRC can notice.
        c0, c1 = subs[0].get("obj#000000"), subs[1].get("obj#000001")
        subs[0].put("obj#000000", c1)
        subs[1].put("obj#000001", c0)
        problems = be.verify()
        assert any("crc mismatch" in p for p in problems)

    def test_verify_orphaned_chunk(self):
        subs = [MemoryBackend() for _ in range(2)]
        be = ShardedBackend(subs, chunk_size=4)
        be.put("obj", b"x" * 8)
        subs[1].put("ghost#000001", b"orphan")
        problems = be.verify()
        assert any("orphaned chunk" in p and "ghost" in p for p in problems)

    def test_verify_chunk_beyond_manifest_count(self):
        subs = [MemoryBackend() for _ in range(2)]
        be = ShardedBackend(subs, chunk_size=4)
        be.put("obj", b"x" * 8)  # 2 chunks
        subs[0].put("obj#000004", b"left")
        problems = be.verify()
        assert any("orphaned chunk" in p and "obj#000004" in p for p in problems)

    def test_invalid_construction(self):
        with pytest.raises(StorageError):
            ShardedBackend([])
        with pytest.raises(StorageError):
            ShardedBackend([MemoryBackend()], chunk_size=0)


class TestMakeBackend:
    def test_kinds(self, tmp_path):
        assert isinstance(
            make_backend("filesystem", tmp_path), FilesystemBackend
        )
        assert isinstance(make_backend("memory"), MemoryBackend)
        sharded = make_backend("sharded", tmp_path, shards=2, chunk_size=64)
        assert isinstance(sharded, ShardedBackend)
        assert len(sharded.substores) == 2
        assert sharded.chunk_size == 64
        assert (tmp_path / "shard0").is_dir()

    def test_in_memory_shards(self):
        sharded = make_backend("sharded", in_memory_shards=True, shards=3)
        assert all(isinstance(s, MemoryBackend) for s in sharded.substores)

    def test_errors(self, tmp_path):
        with pytest.raises(StorageError):
            make_backend("tape", tmp_path)
        with pytest.raises(StorageError):
            make_backend("filesystem")
        with pytest.raises(StorageError):
            make_backend("sharded")
        with pytest.raises(StorageError):
            make_backend("sharded", tmp_path, shards=0)
        with pytest.raises(StorageError):
            make_backend("replicated", tmp_path, replicas=0)
        with pytest.raises(StorageError):
            make_backend("remote")
        with pytest.raises(StorageError):
            make_backend("replicated")

    def test_remote_kind(self, tmp_path):
        be = make_backend("remote", tmp_path, network_latency=1e-3)
        assert isinstance(be, RemoteBackend)
        assert isinstance(be.inner, FilesystemBackend)
        assert be.network_latency == 1e-3
        be.put("a", b"x")
        assert be.get("a") == b"x"

    def test_replicated_kind_defaults_two_replicas(self, tmp_path):
        be = make_backend("replicated", tmp_path)
        assert isinstance(be, ReplicatedBackend)
        assert be.replication_factor == 2
        be.put("a", b"x")
        assert (tmp_path / "replica0" / "a").is_file()
        assert (tmp_path / "replica1" / "a").is_file()

    def test_sharded_with_replicas_mirrors_every_shard(self, tmp_path):
        be = make_backend(
            "sharded", tmp_path, shards=2, replicas=2, chunk_size=8
        )
        assert isinstance(be, ShardedBackend)
        assert all(
            isinstance(s, ReplicatedBackend) for s in be.substores
        )
        assert be.replication_factor == 2
        be.put("obj", b"q" * 20)
        assert be.get("obj") == b"q" * 20
        assert (tmp_path / "shard0" / "replica0").is_dir()
        assert (tmp_path / "shard1" / "replica1").is_dir()


class TestConcurrencyContract:
    """Thread-safety contract shared by every backend kind.

    Concurrent ``put_many`` rewrites of the *same* keys (same payloads,
    as the retrieval tier does when re-materialising hot products) must
    never expose torn objects to concurrent ``get_many`` readers, and
    concurrent writers on *distinct* keys must never interfere.
    """

    @pytest.fixture(params=BACKEND_KINDS)
    def backend(self, request, tmp_path):
        return _make(request.param, tmp_path)

    def _run(self, workers):
        errors = []

        def guard(fn):
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=guard, args=(fn,)) for fn in workers
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_same_key_rewrites_under_concurrent_readers(self, backend):
        payloads = {f"k{i}": bytes([65 + i]) * 37 for i in range(4)}
        backend.put_many(payloads)
        requests = [(k, 5, 17) for k in sorted(payloads)]
        expected = [payloads[k][5:22] for k in sorted(payloads)]

        def writer():
            for _ in range(20):
                backend.put_many(payloads)

        def reader():
            for _ in range(40):
                assert backend.get_many(requests) == expected

        self._run([writer] * 3 + [reader] * 3)
        for key, blob in payloads.items():
            assert backend.get(key) == blob
        assert backend.verify() == []

    def test_distinct_key_writers_do_not_interfere(self, backend):
        def writer(i):
            def go():
                for j in range(15):
                    backend.put(f"w{i}/obj", bytes([i]) * (29 + j))
            return go

        self._run([writer(i) for i in range(4)])
        for i in range(4):
            assert backend.get(f"w{i}/obj") == bytes([i]) * 43
        assert backend.verify() == []


class TestTierOverBackends:
    """StorageTier must be backend-agnostic: clock + capacity only."""

    @pytest.fixture(params=BACKEND_KINDS)
    def tier(self, request, tmp_path):
        return StorageTier(
            "t", "ssd", 1 << 20, backend=_make(request.param, tmp_path)
        )

    def test_write_read_roundtrip(self, tier):
        tier.write("x.bin", b"hello")
        assert tier.read("x.bin") == b"hello"
        assert tier.used_bytes == 5
        assert tier.file_size("x.bin") == 5

    def test_peek_range_charges_nothing(self, tier):
        tier.write("x.bin", bytes(range(100)))
        events = len(tier.clock.events)
        assert tier.peek_range("x.bin", 10, 5) == bytes(range(10, 15))
        assert len(tier.clock.events) == events

    def test_capacity_enforced(self, tmp_path):
        tier = StorageTier("t", "ssd", 10, backend=MemoryBackend())
        tier.write("a", b"12345")
        with pytest.raises(CapacityError):
            tier.write("b", b"123456")
        tier.delete("a")
        assert tier.used_bytes == 0

    def test_adoption_from_sharded_backend(self, tmp_path):
        be = make_backend("sharded", tmp_path, shards=2, chunk_size=8)
        be.put("old.bin", b"z" * 20)
        tier = StorageTier("t", "ssd", 1000, backend=be)
        assert tier.exists("old.bin")
        assert tier.used_bytes == 20
        assert tier.read("old.bin") == b"z" * 20

    def test_path_raises_for_non_filesystem(self):
        tier = StorageTier("t", "ssd", 100, backend=MemoryBackend())
        with pytest.raises(StorageError):
            tier._path("x")

    def test_repr_names_backend(self):
        tier = StorageTier("t", "ssd", 100, backend=MemoryBackend())
        assert "memory" in repr(tier)

    def test_abstract_base_not_instantiable(self):
        with pytest.raises(TypeError):
            ObjectStore()


class TestEndToEndAcrossBackends:
    def test_campaign_write_progressive_read_bit_identical(self, tmp_path):
        """The full write + progressive-read pipeline is backend-agnostic.

        The same campaign encoded over filesystem, memory, and sharded
        backends must restore bit-identical fields at every level — the
        backend moves bytes, nothing else.
        """
        import numpy as np

        from repro.api import (
            LevelScheme,
            Session,
            two_tier_titan,
            write_campaign,
        )
        from repro.mesh.generators import annulus

        mesh = annulus(12, 40)
        v = mesh.vertices
        steps = {
            0: np.sin(2 * v[:, 0]) * v[:, 1],
            1: np.cos(3 * v[:, 1]) + 0.1 * v[:, 0],
        }
        restored: dict[str, dict] = {}
        for kind in BACKEND_KINDS:
            h = two_tier_titan(
                tmp_path / kind, fast_capacity=8 << 20,
                slow_capacity=1 << 33, backend=kind, shards=2,
                chunk_size=4096,
            )
            write_campaign(
                h, "camp", "dpot", mesh, steps, LevelScheme(3),
                codec="zfp", codec_params={"tolerance": 1e-4},
            )
            handle = Session(h, use_restored_cache=False).open("camp")
            assert handle.describe()["variables"]["dpot"]["steps"] == [0, 1]
            restored[kind] = {
                (step, level): handle.restore(
                    "dpot", step=step, level=level
                ).field
                for step in (0, 1)
                for level in (2, 1, 0)
            }
        for kind in ("memory", "sharded"):
            for key, ref in restored["filesystem"].items():
                np.testing.assert_array_equal(
                    ref, restored[kind][key],
                    err_msg=f"{kind} diverged at step/level {key}",
                )
