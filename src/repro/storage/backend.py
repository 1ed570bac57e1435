"""Pluggable object-store backends for storage tiers.

A :class:`StorageTier` used to be welded to a local directory; the tier
now delegates every byte movement to an :class:`ObjectStore` backend and
keeps only the device cost model and capacity accounting for itself.
Five backends ship here, composable into a durability-aware layer cake:

* :class:`FilesystemBackend` — one file per object under a root
  directory (the seed behaviour; a tier directory persists across
  handles like a real mount);
* :class:`MemoryBackend` — tmpfs-class in-process store (bytes held in
  a dict), for DRAM-like tiers and fast tests;
* :class:`ShardedBackend` — stripes each object into fixed-size chunks
  across a ring of sub-stores with batched multi-chunk get/put and a
  write-ahead manifest journal, the shape of an object store
  (OASIS-style) or a striped PFS;
* :class:`ReplicatedBackend` — N-way mirroring over any sub-backends:
  quorum-less read-with-failover, CRC-triggered read-repair, and an
  anti-entropy :meth:`~ObjectStore.repair` sweep;
* :class:`RemoteBackend` — S3-class remote hop around an inner store,
  charging network latency/bandwidth to the simulated clock and
  retrying injected transient faults with exponential backoff.

Backends move *real* bytes — the end-to-end pipeline stays honest — and
never touch the simulated clock; transfer-time charging stays with the
tier that owns the device model. :class:`RemoteBackend` is the one
deliberate exception: the network hop is not part of any device model,
so the backend charges it directly via :meth:`ObjectStore.bind_clock`
(backoff waits are likewise simulated, never slept).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import threading
import zlib
from abc import ABC, abstractmethod
from pathlib import Path

from repro.errors import StorageError, TransientFaultError
from repro.obs import trace

__all__ = [
    "ObjectStore",
    "FilesystemBackend",
    "MemoryBackend",
    "ShardedBackend",
    "ReplicatedBackend",
    "RemoteBackend",
    "make_backend",
    "BACKEND_KINDS",
    "DEFAULT_NETWORK_BANDWIDTH",
    "DEFAULT_NETWORK_LATENCY",
]

#: Range-read request: ``(key, offset, length)``.
RangeRequest = tuple[str, int, int]

#: Simulated network defaults shared with ``io/transports.py`` (a 40 GbE
#: class link: ~5 GiB/s, 2 µs per message).
DEFAULT_NETWORK_BANDWIDTH = 5 * (1 << 30)
DEFAULT_NETWORK_LATENCY = 2e-6


#: Durability counters land in the process registry (and the tracer's).
_counter = functools.partial(trace.count, everywhere=True)


class ObjectStore(ABC):
    """Keyed byte-object storage with ranged and batched reads.

    Keys are tier-relative object names (``"run.tmpfs.bp"``); values are
    opaque byte strings. Implementations must be thread-safe for
    concurrent reads (the data node's executor threads call
    :meth:`get_range` in parallel) and must raise
    :class:`~repro.errors.StorageError` for missing keys and
    out-of-bounds ranges — never backend-native errors.
    """

    #: Short backend identifier used in metrics labels and configs.
    kind = ""
    #: The sub-stores a composite store is built over (empty for leaf
    #: stores). :attr:`replication_factor`, :attr:`degraded`,
    #: :meth:`bind_clock`, :meth:`uncharged` and :meth:`repair` forward
    #: over them unless a store overrides.
    children: tuple[ObjectStore, ...] = ()

    # -- single-object ops ----------------------------------------------
    @abstractmethod
    def put(self, key: str, data: bytes) -> int:
        """Store ``data`` under ``key`` (overwrite allowed); returns size."""

    @abstractmethod
    def get(self, key: str) -> bytes:
        """Fetch the complete object."""

    @abstractmethod
    def get_range(self, key: str, offset: int, length: int) -> bytes:
        """Fetch ``length`` bytes at ``offset`` (bounds-checked)."""

    @abstractmethod
    def delete(self, key: str) -> None:
        """Remove an object (missing key is an error)."""

    @abstractmethod
    def exists(self, key: str) -> bool: ...

    @abstractmethod
    def size(self, key: str) -> int: ...

    @abstractmethod
    def list_objects(self) -> list[tuple[str, int]]:
        """All ``(key, size)`` pairs, sorted by key (inventory scan)."""

    # -- batched ops -----------------------------------------------------
    def put_many(self, items: dict[str, bytes]) -> int:
        """Store several objects; returns total bytes stored."""
        return sum(self.put(key, data) for key, data in sorted(items.items()))

    def get_many(self, requests: list[RangeRequest]) -> list[bytes]:
        """Fetch several ranges; result order matches ``requests``."""
        return [self.get_range(k, off, length) for k, off, length in requests]

    # -- durability contract ---------------------------------------------
    @property
    def replication_factor(self) -> int:
        """How many independent copies of each byte this store holds."""
        return min((child.replication_factor for child in self.children), default=1)

    @property
    def degraded(self) -> bool:
        """True once any read or write had to route around a failure."""
        return any(child.degraded for child in self.children)

    def bind_clock(self, clock) -> None:
        """Attach a :class:`SimClock` for backends that charge sim time.

        Plain backends ignore it (the owning tier charges device time);
        :class:`RemoteBackend` uses it for network latency/bandwidth and
        retry backoff. Composite backends forward the clock downward.
        """
        for child in self.children:
            child.bind_clock(clock)

    def repair(self) -> list[str]:
        """Restore internal redundancy/consistency; returns action strings.

        A leaf store has nothing to repair. Composite stores roll
        journals forward, garbage-collect orphans, rebuild manifests,
        and re-replicate from surviving copies.
        """
        return [action for child in self.children for action in child.repair()]

    def uncharged(self):
        """Context manager suppressing simulated-clock charges.

        A no-op for local backends (they never touch the clock).
        :class:`RemoteBackend` overrides it so the tier peek path —
        where the retrieval engine accounts simulated time per
        overlapped batch itself — does not double-charge the network
        hop; composite backends forward it to their sub-stores.
        """
        stack = contextlib.ExitStack()
        for child in self.children:
            stack.enter_context(child.uncharged())
        return stack

    # -- integrity -------------------------------------------------------
    def verify(self, deep: bool = True) -> list[str]:
        """Structural self-check; returns human-readable problem strings.

        With ``deep=True`` the base implementation re-reads every listed
        object and checks the stored size; sharded stores additionally
        check chunk inventory and cross-chunk checksums. ``deep=False``
        asks for the cheapest sufficient check (metadata/size only) —
        used on tier adoption where re-reading a full store is too
        expensive.
        """
        problems: list[str] = []
        for key, size in self.list_objects():
            try:
                actual = len(self.get(key)) if deep else self.size(key)
            except StorageError as exc:
                problems.append(f"{key}: unreadable ({exc})")
                continue
            if actual != size:
                problems.append(
                    f"{key}: stored {actual} bytes, inventory says {size}"
                )
        return problems

    def _check_range(self, key: str, offset: int, length: int, size: int) -> None:
        if offset < 0 or length < 0 or offset + length > size:
            raise StorageError(
                f"{self.kind} backend: range [{offset}, {offset + length}) "
                f"outside object {key!r} of {size} bytes"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FilesystemBackend(ObjectStore):
    """One file per object under a root directory (created if missing).

    Stateless over the directory: a second handle on the same root sees
    whatever is already stored there, like a real mount.
    """

    kind = "filesystem"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        p = (self.root / key).resolve()
        root = self.root.resolve()
        if root not in p.parents and p != root:
            raise StorageError(f"object key {key!r} escapes backend root")
        return p

    def put(self, key: str, data: bytes) -> int:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so concurrent readers never observe a torn
        # (truncated mid-rewrite) object.
        tmp = path.with_name(f"{path.name}.tmp.{threading.get_ident()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        return len(data)

    def get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except OSError as exc:
            raise StorageError(f"no object {key!r}: {exc}") from exc

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        path = self._path(key)
        try:
            size = path.stat().st_size
        except OSError as exc:
            raise StorageError(f"no object {key!r}: {exc}") from exc
        self._check_range(key, offset, length, size)
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                return fh.read(length)
        except OSError as exc:
            raise StorageError(f"cannot read {key!r}: {exc}") from exc

    def delete(self, key: str) -> None:
        path = self._path(key)
        if not path.is_file():
            raise StorageError(f"no object {key!r}")
        path.unlink()

    def exists(self, key: str) -> bool:
        try:
            return self._path(key).is_file()
        except StorageError:
            return False

    def size(self, key: str) -> int:
        path = self._path(key)
        if not path.is_file():
            raise StorageError(f"no object {key!r}")
        return path.stat().st_size

    def list_objects(self) -> list[tuple[str, int]]:
        return sorted(
            (str(p.relative_to(self.root)), p.stat().st_size)
            for p in self.root.rglob("*")
            if p.is_file()
        )

    def __repr__(self) -> str:
        return f"FilesystemBackend(root={str(self.root)!r})"


class MemoryBackend(ObjectStore):
    """tmpfs-class in-process store; objects live in a dict.

    Contents die with the backend object (like tmpfs dies with the
    node), which is exactly the semantics a DRAM-tier model wants.
    Ranged reads are bounds-checked exactly like
    :class:`FilesystemBackend` — an out-of-bounds range raises
    :class:`~repro.errors.StorageError`, never a silent short read.
    """

    kind = "memory"

    def __init__(self) -> None:
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def put(self, key: str, data: bytes) -> int:
        data = bytes(data)
        with self._lock:
            self._objects[key] = data
        return len(data)

    def _get(self, key: str) -> bytes:
        try:
            return self._objects[key]
        except KeyError:
            raise StorageError(f"no object {key!r}") from None

    def get(self, key: str) -> bytes:
        with self._lock:
            return self._get(key)

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        with self._lock:
            data = self._get(key)
        self._check_range(key, offset, length, len(data))
        return data[offset:offset + length]

    def delete(self, key: str) -> None:
        with self._lock:
            if key not in self._objects:
                raise StorageError(f"no object {key!r}")
            del self._objects[key]

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._objects

    def size(self, key: str) -> int:
        with self._lock:
            return len(self._get(key))

    def list_objects(self) -> list[tuple[str, int]]:
        with self._lock:
            return sorted((k, len(v)) for k, v in self._objects.items())


#: Chunk-name suffixes: ``<key>#meta``, ``<key>#wal`` (journal) and
#: ``<key>#<index:06d>``; replicated stores add ``<key>#rcrc`` sidecars.
_CHUNK_RE = re.compile(r"^(?P<key>.+)#(?P<idx>\d{6})$")
_META_SUFFIX = "#meta"
_WAL_SUFFIX = "#wal"
_RCRC_SUFFIX = "#rcrc"


class ShardedBackend(ObjectStore):
    """Stripes objects into fixed-size chunks across sub-stores.

    Chunk ``i`` of an object lands on sub-store ``i % len(substores)``
    under the key ``"<key>#<i:06d>"``; a small JSON manifest
    (``"<key>#meta"`` on sub-store 0) records the object size, chunk
    size, chunk count, and a CRC-32 over the whole object so
    :meth:`verify` can detect missing chunks, orphaned chunks, and
    corruption across chunk boundaries. Ranged reads touch only the
    chunks overlapping the range and are issued as one batched
    multi-chunk get per sub-store.

    Writes are journalled: :meth:`put` first records the *intended*
    manifest as ``"<key>#wal"`` on sub-store 0, then writes chunks, then
    the real manifest, and deletes the journal entry last. A crash at
    any point leaves either a complete old object, a complete new object
    reachable by rolling the journal forward, or garbage-collectable
    partial chunks — :meth:`repair` (and ``repro fsck --repair``)
    resolves all three. Set ``journal=False`` to trade that crash window
    for one fewer metadata write per put.
    """

    kind = "sharded"

    def __init__(
        self,
        substores: list[ObjectStore],
        *,
        chunk_size: int = 256 * 1024,
        journal: bool = True,
    ) -> None:
        if not substores:
            raise StorageError("sharded backend needs at least one sub-store")
        if chunk_size <= 0:
            raise StorageError("chunk_size must be positive")
        self.substores = self.children = tuple(substores)
        self.chunk_size = int(chunk_size)
        self.journal = bool(journal)

    # -- layout helpers --------------------------------------------------
    def _store_for(self, index: int) -> ObjectStore:
        return self.substores[index % len(self.substores)]

    @staticmethod
    def _chunk_key(key: str, index: int) -> str:
        return f"{key}#{index:06d}"

    def _manifest(self, key: str) -> dict:
        try:
            blob = self.substores[0].get(key + _META_SUFFIX)
        except StorageError:
            raise StorageError(f"no object {key!r}") from None
        try:
            return json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise StorageError(f"corrupt manifest for {key!r}: {exc}") from exc

    # -- single-object ops ----------------------------------------------
    def put(self, key: str, data: bytes) -> int:
        data = bytes(data)
        cs = self.chunk_size
        nchunks = max(1, -(-len(data) // cs))
        old_chunks = 0
        if self.substores[0].exists(key + _META_SUFFIX):
            old_chunks = int(self._manifest(key).get("chunks", 0))
        manifest = {
            "size": len(data),
            "chunk_size": cs,
            "chunks": nchunks,
            "crc32": zlib.crc32(data) & 0xFFFFFFFF,
        }
        if self.journal:
            wal = dict(manifest, old_chunks=old_chunks)
            self.substores[0].put(
                key + _WAL_SUFFIX, json.dumps(wal, sort_keys=True).encode()
            )
        per_store: dict[int, dict[str, bytes]] = {}
        for i in range(nchunks):
            per_store.setdefault(i % len(self.substores), {})[
                self._chunk_key(key, i)
            ] = data[i * cs:(i + 1) * cs]
        for store_idx, items in sorted(per_store.items()):
            self.substores[store_idx].put_many(items)
        self.substores[0].put(
            key + _META_SUFFIX, json.dumps(manifest, sort_keys=True).encode()
        )
        # Shrinking overwrite: drop chunks beyond the new count so the
        # inventory never reports stale orphans.
        for i in range(nchunks, old_chunks):
            store = self._store_for(i)
            try:
                store.delete(self._chunk_key(key, i))
            except StorageError:
                pass  # a concurrent rewrite already dropped it
        if self.journal:
            try:
                self.substores[0].delete(key + _WAL_SUFFIX)
            except StorageError:
                pass  # a concurrent put of the same key completed first
        return len(data)

    def get(self, key: str) -> bytes:
        manifest = self._manifest(key)
        return self.get_range(key, 0, int(manifest["size"]))

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        manifest = self._manifest(key)
        size = int(manifest["size"])
        cs = int(manifest["chunk_size"])
        self._check_range(key, offset, length, size)
        if length == 0:
            return b""
        first = offset // cs
        last = (offset + length - 1) // cs
        # One batched multi-chunk get per sub-store, results re-ordered.
        per_store: dict[int, list[tuple[int, str]]] = {}
        for i in range(first, last + 1):
            per_store.setdefault(i % len(self.substores), []).append(
                (i, self._chunk_key(key, i))
            )
        chunks: dict[int, bytes] = {}
        for store_idx, wanted in sorted(per_store.items()):
            store = self.substores[store_idx]
            try:
                blobs = store.get_many(
                    [(ck, 0, store.size(ck)) for _, ck in wanted]
                )
            except StorageError as exc:
                raise StorageError(
                    f"{key!r}: missing chunk on sub-store {store_idx} ({exc})"
                ) from exc
            for (i, _), blob in zip(wanted, blobs):
                chunks[i] = blob
        blob = b"".join(chunks[i] for i in range(first, last + 1))
        lo = offset - first * cs
        return blob[lo:lo + length]

    def delete(self, key: str) -> None:
        manifest = self._manifest(key)
        for i in range(int(manifest["chunks"])):
            store = self._store_for(i)
            if store.exists(self._chunk_key(key, i)):
                store.delete(self._chunk_key(key, i))
        self.substores[0].delete(key + _META_SUFFIX)

    def exists(self, key: str) -> bool:
        return self.substores[0].exists(key + _META_SUFFIX)

    def size(self, key: str) -> int:
        return int(self._manifest(key)["size"])

    def list_objects(self) -> list[tuple[str, int]]:
        out = []
        for name, _ in self.substores[0].list_objects():
            if name.endswith(_META_SUFFIX):
                key = name[: -len(_META_SUFFIX)]
                out.append((key, self.size(key)))
        return sorted(out)

    # -- integrity -------------------------------------------------------
    def verify(self, deep: bool = True) -> list[str]:
        """Chunk-inventory + cross-chunk CRC check.

        Reports, per object: missing chunks (manifest says N, chunk i is
        gone), size drift, and — when ``deep`` — CRC-32 mismatches over
        the reassembled byte stream (detects corruption *across* chunk
        boundaries that a per-chunk check would miss). With
        ``deep=False`` chunks are never read back: per-chunk sizes must
        sum to the manifest size (the cheap adoption-time check). Chunks
        with no manifest — or with an index beyond the manifest's count
        — are reported as orphans; lingering journal entries are
        reported as interrupted puts. Replicated sub-stores are asked to
        verify themselves so under-replication surfaces here too.
        """
        problems: list[str] = []
        # Ask replicated sub-stores first: the deep pass below reads
        # through them, and a read-with-failover *heals* damaged copies
        # (read-repair) — auditing afterwards would under-report.
        for store in self.substores:
            if store.replication_factor > 1 or store.degraded:
                problems.extend(store.verify(deep=deep))
        manifests: dict[str, dict] = {}
        for name, _ in self.substores[0].list_objects():
            if name.endswith(_WAL_SUFFIX):
                problems.append(
                    f"{name[: -len(_WAL_SUFFIX)]}: interrupted put (journal "
                    "entry present; repair() rolls it forward or collects it)"
                )
            elif name.endswith(_META_SUFFIX):
                key = name[: -len(_META_SUFFIX)]
                try:
                    manifests[key] = self._manifest(key)
                except StorageError as exc:
                    problems.append(str(exc))
        for key, manifest in sorted(manifests.items()):
            nchunks = int(manifest["chunks"])
            missing = [
                i
                for i in range(nchunks)
                if not self._store_for(i).exists(self._chunk_key(key, i))
            ]
            if missing:
                problems.append(
                    f"{key}: missing chunk(s) {missing} of {nchunks}"
                )
                continue
            if not deep:
                total = sum(
                    self._store_for(i).size(self._chunk_key(key, i))
                    for i in range(nchunks)
                )
                if total != int(manifest["size"]):
                    problems.append(
                        f"{key}: chunk sizes sum to {total}, manifest says "
                        f"{manifest['size']}"
                    )
                continue
            data = b"".join(
                self._store_for(i).get(self._chunk_key(key, i))
                for i in range(nchunks)
            )
            if len(data) != int(manifest["size"]):
                problems.append(
                    f"{key}: reassembled {len(data)} bytes, manifest says "
                    f"{manifest['size']}"
                )
                continue
            crc = zlib.crc32(data) & 0xFFFFFFFF
            if crc != int(manifest["crc32"]):
                problems.append(
                    f"{key}: crc mismatch over chunk boundaries "
                    f"({crc:08x} != {int(manifest['crc32']):08x})"
                )
        for store_idx, store in enumerate(self.substores):
            for name, _ in store.list_objects():
                m = _CHUNK_RE.match(name)
                if m is None:
                    continue
                key, idx = m.group("key"), int(m.group("idx"))
                manifest = manifests.get(key)
                if manifest is None:
                    problems.append(
                        f"{name}: orphaned chunk (no manifest for {key!r}) "
                        f"on sub-store {store_idx}"
                    )
                elif idx >= int(manifest["chunks"]):
                    problems.append(
                        f"{name}: orphaned chunk (manifest records only "
                        f"{manifest['chunks']} chunks)"
                    )
        return problems

    # -- repair -----------------------------------------------------------
    def recover(self) -> list[str]:
        """Resolve journal entries left by interrupted puts.

        A complete, CRC-clean new image is rolled forward (manifest
        rebuilt from the journal record); anything else is
        garbage-collected, keeping chunks still covered by a surviving
        older manifest.
        """
        actions: list[str] = []
        wal_names = [
            name
            for name, _ in self.substores[0].list_objects()
            if name.endswith(_WAL_SUFFIX)
        ]
        for name in wal_names:
            key = name[: -len(_WAL_SUFFIX)]
            try:
                wal = json.loads(self.substores[0].get(name).decode("utf-8"))
                nchunks = int(wal["chunks"])
                size = int(wal["size"])
                cs = int(wal["chunk_size"])
                crc = int(wal["crc32"])
            except (StorageError, ValueError, KeyError, UnicodeDecodeError):
                self.substores[0].delete(name)
                actions.append(f"{key}: dropped unreadable journal entry")
                continue
            complete = all(
                self._store_for(i).exists(self._chunk_key(key, i))
                for i in range(nchunks)
            )
            if complete:
                blob = b"".join(
                    self._store_for(i).get(self._chunk_key(key, i))
                    for i in range(nchunks)
                )
                complete = (
                    len(blob) == size and zlib.crc32(blob) & 0xFFFFFFFF == crc
                )
            if complete:
                manifest = {
                    "size": size, "chunk_size": cs,
                    "chunks": nchunks, "crc32": crc,
                }
                self.substores[0].put(
                    key + _META_SUFFIX,
                    json.dumps(manifest, sort_keys=True).encode(),
                )
                for i in range(nchunks, int(wal.get("old_chunks", 0))):
                    store = self._store_for(i)
                    if store.exists(self._chunk_key(key, i)):
                        store.delete(self._chunk_key(key, i))
                actions.append(
                    f"{key}: rolled forward interrupted put "
                    f"({nchunks} chunks, manifest rebuilt)"
                )
                _counter("repair.journal", outcome="rolled_forward")
            else:
                # Partial image. Keep chunks an older manifest still
                # covers (its object may still verify); GC the rest.
                keep = 0
                if self.substores[0].exists(key + _META_SUFFIX):
                    try:
                        keep = int(self._manifest(key).get("chunks", 0))
                    except StorageError:
                        keep = 0
                for i in range(keep, nchunks):
                    store = self._store_for(i)
                    if store.exists(self._chunk_key(key, i)):
                        store.delete(self._chunk_key(key, i))
                actions.append(
                    f"{key}: garbage-collected interrupted put"
                    + (" (previous manifest kept)" if keep else "")
                )
                _counter("repair.journal", outcome="collected")
            self.substores[0].delete(key + _WAL_SUFFIX)
        return actions

    def _rebuild_manifest(self, key: str, chunk_names: list[str]) -> bool:
        """Reconstruct ``<key>#meta`` from an intact contiguous chunk run."""
        indexes = sorted(
            int(_CHUNK_RE.match(n).group("idx")) for n in chunk_names
        )
        if indexes != list(range(len(indexes))):
            return False
        data = b"".join(
            self._store_for(i).get(self._chunk_key(key, i)) for i in indexes
        )
        cs = (
            len(self._store_for(0).get(self._chunk_key(key, 0)))
            if len(indexes) > 1
            else self.chunk_size
        )
        manifest = {
            "size": len(data),
            "chunk_size": cs,
            "chunks": len(indexes),
            "crc32": zlib.crc32(data) & 0xFFFFFFFF,
        }
        self.substores[0].put(
            key + _META_SUFFIX, json.dumps(manifest, sort_keys=True).encode()
        )
        return True

    def repair(self) -> list[str]:
        """Self-heal: sub-store repair, journal recovery, manifest
        rebuild, orphan GC.

        Order matters: replicated sub-stores re-replicate first (journal
        recovery may need chunks a dead replica lost), then journal
        entries are resolved, then manifests that are corrupt — or
        missing while a contiguous chunk run survives — are rebuilt from
        the chunks themselves, and finally chunks nothing references are
        garbage-collected.
        """
        actions: list[str] = []
        for idx, store in enumerate(self.substores):
            for action in store.repair():
                actions.append(f"sub-store {idx}: {action}")
        actions.extend(self.recover())
        # Rebuild manifests that no longer parse.
        for name, _ in self.substores[0].list_objects():
            if not name.endswith(_META_SUFFIX):
                continue
            key = name[: -len(_META_SUFFIX)]
            try:
                self._manifest(key)
            except StorageError:
                chunk_names = [
                    cn
                    for store in self.substores
                    for cn, _ in store.list_objects()
                    if (m := _CHUNK_RE.match(cn)) and m.group("key") == key
                ]
                if chunk_names and self._rebuild_manifest(key, chunk_names):
                    actions.append(
                        f"{key}: rebuilt corrupt manifest from "
                        f"{len(chunk_names)} surviving chunks"
                    )
                    _counter("repair.manifests_rebuilt")
                else:
                    self.substores[0].delete(name)
                    actions.append(
                        f"{key}: dropped corrupt manifest (no intact chunk run)"
                    )
        # Orphaned chunk families with no manifest at all: a lost
        # manifest if the run is contiguous from 0 (rebuild), else junk.
        manifests: dict[str, dict] = {}
        for name, _ in self.substores[0].list_objects():
            if name.endswith(_META_SUFFIX):
                key = name[: -len(_META_SUFFIX)]
                manifests[key] = self._manifest(key)
        families: dict[str, list[tuple[int, str]]] = {}
        for store_idx, store in enumerate(self.substores):
            for name, _ in store.list_objects():
                m = _CHUNK_RE.match(name)
                if m is None:
                    continue
                families.setdefault(m.group("key"), []).append(
                    (store_idx, name)
                )
        for key, members in sorted(families.items()):
            manifest = manifests.get(key)
            if manifest is None:
                names = [n for _, n in members]
                if self._rebuild_manifest(key, names):
                    actions.append(
                        f"{key}: rebuilt missing manifest from "
                        f"{len(names)} surviving chunks"
                    )
                    _counter("repair.manifests_rebuilt")
                    continue
                for store_idx, name in members:
                    self.substores[store_idx].delete(name)
                    actions.append(
                        f"{name}: garbage-collected orphaned chunk "
                        f"(sub-store {store_idx})"
                    )
                    _counter("repair.orphans_collected")
                continue
            nchunks = int(manifest["chunks"])
            for store_idx, name in members:
                if int(_CHUNK_RE.match(name).group("idx")) >= nchunks:
                    self.substores[store_idx].delete(name)
                    actions.append(
                        f"{name}: garbage-collected orphaned chunk "
                        f"(sub-store {store_idx})"
                    )
                    _counter("repair.orphans_collected")
        return actions

    def __repr__(self) -> str:
        return (
            f"ShardedBackend(substores={len(self.substores)}, "
            f"chunk_size={self.chunk_size})"
        )


class ReplicatedBackend(ObjectStore):
    """N-way mirroring over any sub-backends.

    Every :meth:`put` writes the object *and* a small JSON integrity
    sidecar (``"<key>#rcrc"``: size + CRC-32) to each replica; a write
    succeeds if at least one replica accepts it. Reads are quorum-less:
    replicas are tried in order, each candidate CRC-checked against its
    sidecar, and the first intact copy wins — a stale, truncated, or
    bit-flipped copy triggers failover and (by default) *read-repair*,
    rewriting the bad replicas from the good bytes in-line. Partial
    ranged reads skip the whole-object CRC (standard object-store
    semantics) but still verify the replica's size against its sidecar,
    so truncation cannot serve short. :meth:`repair` is the anti-entropy
    sweep: every object is re-replicated from any surviving intact copy
    until all replicas agree.

    The store is *degraded* (``storage.degraded`` counter, flag exposed
    up through :class:`StorageTier` to the service) from the first
    routed-around failure until a repair sweep completes cleanly.
    """

    kind = "replicated"

    def __init__(
        self, replicas: list[ObjectStore], *, read_repair: bool = True
    ) -> None:
        if not replicas:
            raise StorageError("replicated backend needs at least one replica")
        self.replicas = self.children = tuple(replicas)
        self.read_repair = bool(read_repair)
        self._degraded = False
        self._lock = threading.Lock()

    # -- durability contract ---------------------------------------------
    @property
    def replication_factor(self) -> int:
        return len(self.replicas) * super().replication_factor

    @property
    def degraded(self) -> bool:
        return self._degraded or super().degraded

    def _note_degraded(self, op: str, replica: int) -> None:
        with self._lock:
            self._degraded = True
        _counter("storage.degraded", op=op, replica=str(replica))

    # -- sidecar helpers --------------------------------------------------
    @staticmethod
    def _sidecar(data: bytes) -> bytes:
        return json.dumps(
            {"size": len(data), "crc32": zlib.crc32(data) & 0xFFFFFFFF},
            sort_keys=True,
        ).encode()

    @staticmethod
    def _meta(rep: ObjectStore, key: str) -> dict:
        try:
            meta = json.loads(rep.get(key + _RCRC_SUFFIX).decode("utf-8"))
            return {"size": int(meta["size"]), "crc32": int(meta["crc32"])}
        except (StorageError, ValueError, KeyError, UnicodeDecodeError) as exc:
            raise StorageError(
                f"replica sidecar for {key!r} unreadable: {exc}"
            ) from exc

    def _intact(self, rep: ObjectStore, key: str) -> bytes:
        """One replica's copy, CRC-verified against its sidecar."""
        data = rep.get(key)
        meta = self._meta(rep, key)
        if meta["size"] != len(data) or meta["crc32"] != (
            zlib.crc32(data) & 0xFFFFFFFF
        ):
            raise StorageError(f"replica copy of {key!r} fails its CRC")
        return data

    def _repair_key(self, key: str, data: bytes, indices: list[int]) -> None:
        sidecar = self._sidecar(data)
        for i in indices:
            try:
                self.replicas[i].put(key, data)
                self.replicas[i].put(key + _RCRC_SUFFIX, sidecar)
                _counter("repair.read_repair", replica=str(i))
            except StorageError:
                continue

    # -- single-object ops ----------------------------------------------
    def put(self, key: str, data: bytes) -> int:
        data = bytes(data)
        sidecar = self._sidecar(data)
        stored = 0
        for i, rep in enumerate(self.replicas):
            try:
                rep.put(key, data)
                rep.put(key + _RCRC_SUFFIX, sidecar)
                stored += 1
            except StorageError:
                # Under-replicated but durable: anti-entropy heals later.
                self._note_degraded("write", i)
        if not stored:
            raise StorageError(f"no replica accepted {key!r}")
        return len(data)

    def get(self, key: str) -> bytes:
        failed: list[int] = []
        for i, rep in enumerate(self.replicas):
            try:
                data = self._intact(rep, key)
            except StorageError:
                failed.append(i)
                continue
            if failed:
                self._note_degraded("read", failed[0])
                _counter("storage.replica.failover")
                if self.read_repair:
                    self._repair_key(key, data, failed)
            return data
        # No CRC-verifiable copy; last resort is any bare readable copy
        # (e.g. an adopted store that predates sidecars).
        for rep in self.replicas:
            try:
                return rep.get(key)
            except StorageError:
                continue
        raise StorageError(f"no replica survives for {key!r}")

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        size = self.size(key)
        self._check_range(key, offset, length, size)
        if offset == 0 and length == size:
            # Full-object read (the sharded chunk path): take the
            # CRC-checked route so read-repair triggers on corruption.
            return self.get(key)
        failed: list[int] = []
        for i, rep in enumerate(self.replicas):
            try:
                meta = self._meta(rep, key)
                if rep.size(key) != meta["size"]:
                    raise StorageError(
                        f"replica copy of {key!r} has drifted size"
                    )
                blob = rep.get_range(key, offset, length)
            except StorageError:
                failed.append(i)
                continue
            if failed:
                self._note_degraded("read", failed[0])
                _counter("storage.replica.failover")
                if self.read_repair:
                    try:
                        self._repair_key(key, self._intact(rep, key), failed)
                    except StorageError:
                        pass
            return blob
        raise StorageError(f"no replica survives for {key!r}")

    def delete(self, key: str) -> None:
        found = False
        for rep in self.replicas:
            for name in (key, key + _RCRC_SUFFIX):
                try:
                    if rep.exists(name):
                        rep.delete(name)
                        found = found or name == key
                except StorageError:
                    continue
        if not found:
            raise StorageError(f"no object {key!r}")

    def exists(self, key: str) -> bool:
        for rep in self.replicas:
            try:
                if rep.exists(key):
                    return True
            except StorageError:
                continue
        return False

    def size(self, key: str) -> int:
        for rep in self.replicas:
            try:
                return self._meta(rep, key)["size"]
            except StorageError:
                continue
        for rep in self.replicas:
            try:
                return rep.size(key)
            except StorageError:
                continue
        raise StorageError(f"no object {key!r}")

    def list_objects(self) -> list[tuple[str, int]]:
        out: dict[str, int] = {}
        for rep in self.replicas:
            try:
                listing = rep.list_objects()
            except StorageError:
                continue
            for name, size in listing:
                if name.endswith(_RCRC_SUFFIX):
                    continue
                out.setdefault(name, size)
        return sorted(out.items())

    # -- integrity -------------------------------------------------------
    def verify(self, deep: bool = True) -> list[str]:
        """Report replicas whose copy is missing, drifted, or corrupt.

        ``deep`` re-reads and CRC-checks every copy on every replica;
        ``deep=False`` checks existence and sidecar-vs-stored size only.
        """
        problems: list[str] = []
        for key, _ in self.list_objects():
            for i, rep in enumerate(self.replicas):
                try:
                    if deep:
                        self._intact(rep, key)
                    else:
                        if not rep.exists(key):
                            raise StorageError("copy missing")
                        meta = self._meta(rep, key)
                        if rep.size(key) != meta["size"]:
                            raise StorageError("size drift vs sidecar")
                except StorageError as exc:
                    problems.append(
                        f"{key}: not intact on replica {i} ({exc})"
                    )
        return problems

    def repair(self) -> list[str]:
        """Anti-entropy sweep: re-replicate every object from an intact
        copy; clears the degraded flag when nothing is left unrecoverable.
        """
        actions: list[str] = []
        for i, rep in enumerate(self.replicas):
            for action in rep.repair():
                actions.append(f"replica {i}: {action}")
        unrecoverable = 0
        for key, _ in self.list_objects():
            good: bytes | None = None
            bad: list[int] = []
            for i, rep in enumerate(self.replicas):
                try:
                    data = self._intact(rep, key)
                    if good is None:
                        good = data
                except StorageError:
                    bad.append(i)
            if good is None:
                for rep in self.replicas:
                    try:
                        good = rep.get(key)
                        break
                    except StorageError:
                        continue
            if good is None:
                actions.append(f"{key}: unrecoverable (no intact replica)")
                unrecoverable += 1
                continue
            if bad:
                self._repair_key(key, good, bad)
                actions.append(
                    f"{key}: re-replicated to replica(s) "
                    f"{', '.join(map(str, bad))}"
                )
                _counter("repair.replicas_restored", n=len(bad))
        if not unrecoverable:
            with self._lock:
                self._degraded = False
        return actions

    def __repr__(self) -> str:
        return f"ReplicatedBackend(replicas={len(self.replicas)})"


class RemoteBackend(ObjectStore):
    """S3-class remote hop around an inner object store.

    Each operation costs one simulated network round trip — configurable
    ``network_latency`` plus payload bytes over ``network_bandwidth``,
    the same knobs (and defaults) as ``io/transports.py`` — charged to
    the bound :class:`SimClock` under the ``"remote"`` tier label.
    Batched :meth:`put_many`/:meth:`get_many` pay latency *once* for the
    whole batch, which is exactly why the engine batches.

    Transient faults (a :class:`~repro.errors.TransientFaultError` from
    an armed fault injector or the inner store) are retried with
    exponential backoff; backoff waits are charged to the simulated
    clock, never slept. After ``retries`` failed attempts the error is
    surfaced as a plain :class:`~repro.errors.StorageError`.
    """

    kind = "remote"

    def __init__(
        self,
        inner: ObjectStore,
        *,
        network_bandwidth: float = DEFAULT_NETWORK_BANDWIDTH,
        network_latency: float = DEFAULT_NETWORK_LATENCY,
        retries: int = 3,
        backoff_seconds: float = 0.002,
        fault_injector=None,
        clock=None,
    ) -> None:
        if network_bandwidth <= 0:
            raise StorageError("network_bandwidth must be positive")
        if network_latency < 0 or backoff_seconds < 0:
            raise StorageError("latency/backoff must be non-negative")
        if retries < 0:
            raise StorageError("retries must be >= 0")
        self.inner = inner
        self.children = (inner,)
        self.network_bandwidth = float(network_bandwidth)
        self.network_latency = float(network_latency)
        self.retries = int(retries)
        self.backoff_seconds = float(backoff_seconds)
        #: Duck-typed hook with a ``check(op, key)`` method that raises
        #: :class:`TransientFaultError` when a fault is armed.
        self.fault_injector = fault_injector
        self._clock = clock
        self._local = threading.local()

    # -- durability contract ---------------------------------------------
    def bind_clock(self, clock) -> None:
        self._clock = clock
        super().bind_clock(clock)

    def verify(self, deep: bool = True) -> list[str]:
        return self.inner.verify(deep=deep)

    @contextlib.contextmanager
    def uncharged(self):
        prev = getattr(self._local, "uncharged", False)
        self._local.uncharged = True
        try:
            with self.inner.uncharged():
                yield
        finally:
            self._local.uncharged = prev

    # -- network accounting ----------------------------------------------
    def _charge(self, op: str, nbytes: int, label: str) -> None:
        if self._clock is None or getattr(self._local, "uncharged", False):
            return
        seconds = self.network_latency + nbytes / self.network_bandwidth
        self._clock.charge("remote", op, nbytes, seconds, label)

    def _call(self, op: str, key: str, fn):
        delay = self.backoff_seconds
        last: TransientFaultError | None = None
        for attempt in range(self.retries + 1):
            try:
                if self.fault_injector is not None:
                    self.fault_injector.check(op, key)
                return fn()
            except TransientFaultError as exc:
                last = exc
                if attempt >= self.retries:
                    break
                _counter("storage.remote.retries", op=op)
                if self._clock is not None and not getattr(
                    self._local, "uncharged", False
                ):
                    self._clock.charge(
                        "remote", "read", 0, delay, f"backoff:{key}"
                    )
                delay *= 2
        raise StorageError(
            f"remote {op} of {key!r} failed after {self.retries} "
            f"retries: {last}"
        ) from last

    # -- single-object ops ----------------------------------------------
    def put(self, key: str, data: bytes) -> int:
        data = bytes(data)
        n = self._call("put", key, lambda: self.inner.put(key, data))
        self._charge("write", len(data), key)
        return n

    def get(self, key: str) -> bytes:
        data = self._call("get", key, lambda: self.inner.get(key))
        self._charge("read", len(data), key)
        return data

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        data = self._call(
            "get_range", key, lambda: self.inner.get_range(key, offset, length)
        )
        self._charge("read", len(data), key)
        return data

    def delete(self, key: str) -> None:
        self._call("delete", key, lambda: self.inner.delete(key))
        self._charge("write", 0, key)

    def exists(self, key: str) -> bool:
        found = self._call("exists", key, lambda: self.inner.exists(key))
        self._charge("read", 0, key)
        return found

    def size(self, key: str) -> int:
        n = self._call("size", key, lambda: self.inner.size(key))
        self._charge("read", 0, key)
        return n

    def list_objects(self) -> list[tuple[str, int]]:
        listing = self._call("list", "*", self.inner.list_objects)
        self._charge("read", 0, "list")
        return listing

    # -- batched ops: one round trip for the whole batch -----------------
    def put_many(self, items: dict[str, bytes]) -> int:
        total = self._call(
            "put_many", "*", lambda: self.inner.put_many(items)
        )
        self._charge("write", total, f"put_many:{len(items)}")
        return total

    def get_many(self, requests: list[RangeRequest]) -> list[bytes]:
        blobs = self._call(
            "get_many", "*", lambda: self.inner.get_many(requests)
        )
        self._charge("read", sum(len(b) for b in blobs), f"get_many:{len(requests)}")
        return blobs

    def __repr__(self) -> str:
        return (
            f"RemoteBackend(inner={self.inner!r}, "
            f"latency={self.network_latency}, "
            f"bandwidth={self.network_bandwidth:.3g})"
        )


#: Backend kinds accepted by :func:`make_backend` (and the XML config /
#: CLI ``--backend`` option / ``REPRO_BACKEND`` test matrix).
BACKEND_KINDS = ("filesystem", "memory", "sharded", "remote", "replicated")


def make_backend(
    kind: str,
    root: str | Path | None = None,
    *,
    shards: int = 4,
    chunk_size: int = 256 * 1024,
    in_memory_shards: bool = False,
    replicas: int | None = None,
    network_bandwidth: float | None = None,
    network_latency: float | None = None,
    fault_injector=None,
) -> ObjectStore:
    """Factory used by the XML configuration layer, CLI, and tests.

    ``filesystem``, ``sharded``, ``remote`` and ``replicated`` need a
    ``root`` directory unless ``in_memory_shards``; ``memory`` ignores
    it. ``replicas`` mirrors the leaves N ways: for ``sharded`` each
    shard becomes a :class:`ReplicatedBackend` over
    ``root/shard<i>/replica<j>`` (default 1 — no mirroring); for
    ``replicated`` it is the replica count over ``root/replica<j>``
    (default 2). ``network_*`` and ``fault_injector`` apply to the
    ``remote`` kind.
    """
    kind = kind.lower()

    def _leaf(path: Path | None) -> ObjectStore:
        if in_memory_shards or path is None:
            return MemoryBackend()
        return FilesystemBackend(path)

    net: dict[str, float] = {}
    if network_bandwidth is not None:
        net["network_bandwidth"] = network_bandwidth
    if network_latency is not None:
        net["network_latency"] = network_latency
    if kind == "filesystem":
        if root is None:
            raise StorageError("filesystem backend needs a root directory")
        return FilesystemBackend(root)
    if kind == "memory":
        return MemoryBackend()
    if kind == "remote":
        if root is None and not in_memory_shards:
            raise StorageError("remote backend needs a root directory")
        return RemoteBackend(
            _leaf(Path(root) if root is not None else None),
            fault_injector=fault_injector,
            **net,
        )
    if kind == "replicated":
        nrep = 2 if replicas is None else int(replicas)
        if nrep < 1:
            raise StorageError("replicated backend needs replicas >= 1")
        if root is None and not in_memory_shards:
            raise StorageError("replicated backend needs a root directory")
        return ReplicatedBackend(
            [
                _leaf(Path(root) / f"replica{j}" if root is not None else None)
                for j in range(nrep)
            ]
        )
    if kind == "sharded":
        if shards < 1:
            raise StorageError("sharded backend needs shards >= 1")
        nrep = 1 if replicas is None else int(replicas)
        if nrep < 1:
            raise StorageError("sharded backend needs replicas >= 1")
        if root is None and not in_memory_shards:
            raise StorageError("sharded backend needs a root directory")
        subs: list[ObjectStore] = []
        for i in range(shards):
            shard_root = Path(root) / f"shard{i}" if root is not None else None
            if nrep > 1:
                subs.append(
                    ReplicatedBackend(
                        [
                            _leaf(
                                shard_root / f"replica{j}"
                                if shard_root is not None
                                else None
                            )
                            for j in range(nrep)
                        ]
                    )
                )
            else:
                subs.append(_leaf(shard_root))
        return ShardedBackend(subs, chunk_size=chunk_size)
    raise StorageError(
        f"unknown backend {kind!r}; expected one of {BACKEND_KINDS}"
    )
