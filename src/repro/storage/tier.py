"""A single storage tier: device cost model + capacity accounting.

Byte movement is delegated to a pluggable
:class:`~repro.storage.backend.ObjectStore` backend (filesystem,
in-memory, sharded, remote, or replicated) — the tier itself owns only the
:class:`~repro.storage.device.DeviceModel`, the capacity bookkeeping,
and the simulated-clock charging. Real bytes still land in the backend
(so the end-to-end pipeline is honest), while transfer *times* are
charged to a :class:`~repro.storage.simclock.SimClock`.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import CapacityError, StorageError
from repro.obs import trace
from repro.storage.backend import FilesystemBackend, ObjectStore
from repro.storage.device import DeviceModel, device_preset
from repro.storage.simclock import IOEvent, SimClock

__all__ = ["StorageTier"]


class StorageTier:
    """One level of the storage hierarchy.

    Parameters
    ----------
    name:
        Tier label, e.g. ``"ST2"`` or ``"tmpfs"``.
    device:
        A :class:`DeviceModel` or a preset name.
    capacity_bytes:
        Usable capacity. Placement bypasses a tier that cannot hold a
        product (paper §III-D: "If a storage tier doesn't have sufficient
        capacity, it will be bypassed and the next tier will be selected").
    root:
        Backing directory; shorthand for a :class:`FilesystemBackend`
        rooted there. Ignored when ``backend`` is given.
    clock:
        Shared simulated clock; a private one is created if omitted.
    backend:
        Explicit :class:`ObjectStore` holding the tier's bytes.
    """

    def __init__(
        self,
        name: str,
        device: DeviceModel | str,
        capacity_bytes: int,
        root: str | Path | None = None,
        clock: SimClock | None = None,
        *,
        backend: ObjectStore | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise StorageError(f"tier {name!r}: capacity must be positive")
        self.name = name
        self.device = device_preset(device) if isinstance(device, str) else device
        self.capacity_bytes = int(capacity_bytes)
        if backend is None:
            if root is None:
                raise StorageError(
                    f"tier {name!r}: need a root directory or a backend"
                )
            backend = FilesystemBackend(root)
        self.backend = backend
        self.root = Path(root) if root is not None else getattr(
            backend, "root", None
        )
        self.clock = clock if clock is not None else SimClock()
        self.backend.bind_clock(self.clock)
        self._used = 0
        self._files: dict[str, int] = {}
        # A tier's store persists across handles/processes (like a real
        # mount): adopt whatever the backend already holds.
        for key, size in self.backend.list_objects():
            self._files[key] = size
            self._used += size
        if self._used > self.capacity_bytes:
            raise StorageError(
                f"tier {name!r}: existing content ({self._used} B) exceeds "
                f"capacity {self.capacity_bytes}"
            )
        #: Cheap structural problems found while adopting existing
        #: content (size-only ``verify(deep=False)``); recorded, not
        #: raised — fsck decides what to do about them.
        self.adoption_problems: list[str] = (
            self.backend.verify(deep=False) if self._files else []
        )
        if self.adoption_problems:
            trace.count(
                "storage.adoption.problems", len(self.adoption_problems),
                tier=self.name,
            )

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def replication_factor(self) -> int:
        """Independent copies the backend keeps of each byte (>= 1).

        Placement reads this as a durability dimension: a product asking
        for N replicas is "safe" on a tier whose backend already mirrors
        N ways, and costs a redundancy-risk penalty elsewhere.
        """
        return self.backend.replication_factor

    @property
    def degraded(self) -> bool:
        """True while the backend is routing around a failed replica."""
        return self.backend.degraded

    def resync(self) -> None:
        """Re-adopt the backend inventory (after an external repair).

        Repair can resurrect objects, rebuild manifests, or
        garbage-collect partial writes; the tier's capacity accounting
        and file table follow the store, not the other way around.
        """
        self._files = {}
        self._used = 0
        for key, size in self.backend.list_objects():
            self._files[key] = size
            self._used += size

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def has_capacity(self, nbytes: int) -> bool:
        return nbytes <= self.free_bytes

    def exists(self, relpath: str) -> bool:
        return relpath in self._files

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def _path(self, relpath: str) -> Path:
        """Filesystem location of an object (filesystem backends only).

        Retained for tools that need to reach under the abstraction —
        corruption-injection in tests, external inspection. Non-file
        backends have no paths and raise.
        """
        if not isinstance(self.backend, FilesystemBackend):
            raise StorageError(
                f"tier {self.name!r}: backend "
                f"{self.backend.kind!r} has no filesystem paths"
            )
        try:
            return self.backend._path(relpath)
        except StorageError:
            raise StorageError(f"path {relpath!r} escapes tier root") from None

    # ------------------------------------------------------------------
    def write(self, relpath: str, data: bytes, label: str = "") -> IOEvent:
        """Store ``data`` under ``relpath``; returns the charged event."""
        tracer = trace.get_tracer()
        if tracer is None:
            return self._write(relpath, data, label)
        with tracer.span(
            "tier.write", "io",
            {"tier": self.name, "nbytes": len(data), "file": relpath,
             "backend": self.backend.kind},
        ):
            return self._write(relpath, data, label)

    def _write(self, relpath: str, data: bytes, label: str) -> IOEvent:
        nbytes = len(data)
        previous = self._files.get(relpath, 0)
        if nbytes - previous > self.free_bytes:
            raise CapacityError(
                f"tier {self.name!r}: {nbytes} bytes exceed free "
                f"{self.free_bytes} of {self.capacity_bytes}"
            )
        self.backend.put(relpath, data)
        self._used += nbytes - previous
        self._files[relpath] = nbytes
        trace.count("storage.backend.put", backend=self.backend.kind, tier=self.name)
        trace.count(
            "storage.backend.put_bytes", nbytes,
            backend=self.backend.kind, tier=self.name,
        )
        seconds = self.device.write_seconds(nbytes)
        return self.clock.charge(self.name, "write", nbytes, seconds, label)

    def read(self, relpath: str, label: str = "") -> bytes:
        """Fetch the bytes stored under ``relpath``."""
        if relpath not in self._files:
            raise StorageError(f"tier {self.name!r}: no file {relpath!r}")
        tracer = trace.get_tracer()
        if tracer is None:
            return self._read(relpath, label)
        with tracer.span(
            "tier.read", "io",
            {"tier": self.name, "file": relpath, "backend": self.backend.kind},
        ) as sp:
            data = self._read(relpath, label)
            sp.note(nbytes=len(data))
            return data

    def _read(self, relpath: str, label: str) -> bytes:
        data = self.backend.get(relpath)
        trace.count("storage.backend.get", backend=self.backend.kind, tier=self.name)
        trace.count(
            "storage.backend.get_bytes", len(data),
            backend=self.backend.kind, tier=self.name,
        )
        seconds = self.device.read_seconds(len(data))
        self.clock.charge(self.name, "read", len(data), seconds, label)
        return data

    def peek_range(self, relpath: str, offset: int, length: int) -> bytes:
        """Fetch a byte range *without* charging the simulated clock.

        Thread-safe (no tier state is mutated). This is the retrieval
        engine's data path: the caller's thread moves the real bytes
        through ``peek_range`` while the engine charges the clock once
        per overlapped batch, keeping the accounting deterministic under
        concurrency.
        """
        if relpath not in self._files:
            raise StorageError(f"tier {self.name!r}: no file {relpath!r}")
        size = self._files[relpath]
        if offset < 0 or length < 0 or offset + length > size:
            raise StorageError(
                f"tier {self.name!r}: range [{offset}, {offset + length}) "
                f"outside file of {size} bytes"
            )
        with self.backend.uncharged():
            data = self.backend.get_range(relpath, offset, length)
        trace.count(
            "storage.backend.get_bytes", length,
            backend=self.backend.kind, tier=self.name,
        )
        return data

    def delete(self, relpath: str) -> None:
        """Remove a file and release its capacity."""
        if relpath not in self._files:
            raise StorageError(f"tier {self.name!r}: no file {relpath!r}")
        self._used -= self._files.pop(relpath)
        if self.backend.exists(relpath):
            self.backend.delete(relpath)
        trace.count(
            "storage.backend.delete", backend=self.backend.kind, tier=self.name
        )

    def file_size(self, relpath: str) -> int:
        if relpath not in self._files:
            raise StorageError(f"tier {self.name!r}: no file {relpath!r}")
        return self._files[relpath]

    def __repr__(self) -> str:
        return (
            f"StorageTier(name={self.name!r}, device={self.device.name!r}, "
            f"backend={self.backend.kind!r}, "
            f"used={self._used}/{self.capacity_bytes})"
        )
