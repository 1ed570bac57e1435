"""Deterministic fault injection for the durability harness.

Two families of damage, matching how real object stores fail:

* **Transient** faults — a :class:`FaultInjector` armed with
  ``fail(op, times=N)`` raises
  :class:`~repro.errors.TransientFaultError` from inside
  :class:`~repro.storage.backend.RemoteBackend`'s retry loop (network
  blips, throttles). These heal themselves through retry-with-backoff.
* **Durable** damage — :func:`inject_fault` applies one of
  :data:`FAULT_MODES` to a composed backend (wipe a replica, truncate a
  manifest, flip a byte in a chunk), and :func:`kill_replica` deletes
  every object a replica holds, simulating the loss of a sub-store
  mid-workload. These require failover reads and ``fsck --repair``.

The module is imported by tests, benchmarks, and the CI fault matrix
(``REPRO_FAULTS=drop_substore|truncate_manifest|corrupt_chunk``); the
production read/write paths never import it — ``RemoteBackend`` sees
injectors only duck-typed through its ``fault_injector`` hook.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator

from repro.errors import StorageError, TransientFaultError
from repro.storage.backend import (
    _CHUNK_RE,
    _META_SUFFIX,
    ObjectStore,
    ReplicatedBackend,
    ShardedBackend,
)

__all__ = [
    "FAULT_MODES",
    "FaultInjector",
    "inject_fault",
    "kill_replica",
]

#: Durable-damage modes understood by :func:`inject_fault` (the CI
#: ``REPRO_FAULTS`` matrix runs the storage/fsck tests once per mode).
FAULT_MODES = ("drop_substore", "truncate_manifest", "corrupt_chunk")


class FaultInjector:
    """Thread-safe armed-fault source for :class:`RemoteBackend`.

    Each rule fires ``times`` times, optionally scoped to an operation
    name and/or a key substring, then goes inert. ``injected`` counts
    every fault actually raised.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rules: list[dict] = []
        self.injected = 0

    def fail(
        self, op: str = "*", *, times: int = 1, key_substring: str = ""
    ) -> FaultInjector:
        """Arm ``times`` transient faults for ``op`` (``"*"`` = any)."""
        with self._lock:
            self._rules.append(
                {"op": op, "times": int(times), "key": key_substring}
            )
        return self

    def check(self, op: str, key: str) -> None:
        """Raise :class:`TransientFaultError` if an armed rule matches."""
        with self._lock:
            for rule in self._rules:
                if rule["times"] <= 0:
                    continue
                if rule["op"] not in ("*", op):
                    continue
                if rule["key"] and rule["key"] not in str(key):
                    continue
                rule["times"] -= 1
                self.injected += 1
                raise TransientFaultError(
                    f"injected transient fault: {op} {key!r}"
                )


def _nested(backend: ObjectStore, cls: type) -> Iterator:
    """Every ``cls`` store reachable inside ``backend``, outermost first."""
    if isinstance(backend, cls):
        yield backend
    else:
        for child in backend.children:
            yield from _nested(child, cls)


def kill_replica(backend: ObjectStore, index: int = 0) -> int:
    """Delete every object replica ``index`` holds, in every replica set.

    Models the sudden loss of one mirror of each sub-store (node crash,
    volume gone). Returns the number of objects wiped; raises
    :class:`StorageError` when ``backend`` contains no replica set —
    there would be nothing redundant to degrade.
    """
    wiped = 0
    for rset in _nested(backend, ReplicatedBackend):
        rep = rset.replicas[index % len(rset.replicas)]
        for name, _ in rep.list_objects():
            rep.delete(name)
            wiped += 1
    if not wiped:
        raise StorageError("no replicated sub-store found to degrade")
    return wiped


def inject_fault(backend: ObjectStore, mode: str) -> str:
    """Apply one durable-damage ``mode`` to a composed backend.

    * ``drop_substore`` — wipe replica 0 of every replica set (falls
      back to wiping sub-store 0 of a plain sharded backend, which is
      *unrecoverable* — fsck must say so);
    * ``truncate_manifest`` — truncate the first sharded manifest to
      half its bytes (corrupt JSON; repair rebuilds it from chunks);
    * ``corrupt_chunk`` — flip one byte of the first chunk's copy on one
      leaf store, leaving its replica sidecar stale so CRC checks trip.

    Returns a human-readable description of what was damaged.
    """
    if mode not in FAULT_MODES:
        raise StorageError(
            f"unknown fault mode {mode!r}; expected one of {FAULT_MODES}"
        )
    if mode == "drop_substore":
        try:
            wiped = kill_replica(backend, 0)
        except StorageError:
            sharded = next(_nested(backend, ShardedBackend), None)
            if sharded is None or len(sharded.substores) < 2:
                raise StorageError(
                    "drop_substore needs a replicated or multi-shard backend"
                ) from None
            store = sharded.substores[1]
            names = [name for name, _ in store.list_objects()]
            for name in names:
                store.delete(name)
            return f"dropped sub-store 1 ({len(names)} objects, unreplicated)"
        return f"dropped replica 0 of every replica set ({wiped} objects)"
    sharded = next(_nested(backend, ShardedBackend), None)
    if sharded is None:
        raise StorageError(f"{mode} needs a sharded backend")
    if mode == "truncate_manifest":
        s0 = sharded.substores[0]
        for name, _ in s0.list_objects():
            if name.endswith(_META_SUFFIX):
                blob = s0.get(name)
                s0.put(name, blob[: len(blob) // 2])
                return f"truncated manifest {name} to {len(blob) // 2} bytes"
        raise StorageError("no manifest found to truncate")
    # corrupt_chunk: damage one leaf copy without touching its sidecar.
    for leaf in sharded.substores:
        while leaf.children:  # a replica set's first copy, a remote's inner
            leaf = leaf.children[0]
        for name, _ in leaf.list_objects():
            if _CHUNK_RE.match(name):
                blob = bytearray(leaf.get(name))
                if not blob:
                    continue
                blob[len(blob) // 2] ^= 0xFF
                leaf.put(name, bytes(blob))
                return f"flipped one byte of chunk {name}"
    raise StorageError("no chunk found to corrupt")
