"""I/O transport methods.

ADIOS decouples *what* is written from *how* (paper Fig. 2 lists POSIX,
MPI, MPI_AGGREGATE, MPI_LUSTRE, DataSpaces, FLEXPATH). A transport here
wraps a tier's read/write with a method-specific cost model, and the
choice is configurable per tier through the XML config — "switching
transport modes is a runtime option, requiring no source code change".

* :class:`PosixTransport` — direct write, the tier device cost only.
* :class:`AggregatingTransport` — MPI_AGGREGATE-like: ``writers`` ranks
  funnel data to ``aggregators`` processes over the interconnect before
  hitting storage; the gather hop is charged at network bandwidth, and
  fewer-but-larger stream writes amortize per-op latency.
* :class:`StagingTransport` — in-transit (DataSpaces/FLEXPATH-like):
  writes land in remote staging memory at network speed; a later
  :meth:`~StagingTransport.drain` flushes to the tier, off the
  application's critical path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import TransportError
from repro.storage.backend import (
    DEFAULT_NETWORK_BANDWIDTH,
    DEFAULT_NETWORK_LATENCY,
)
from repro.storage.tier import StorageTier

__all__ = [
    "Transport",
    "PosixTransport",
    "AggregatingTransport",
    "StagingTransport",
    "make_transport",
]

# Defaults for the interconnect cost model; per-transport values are
# configurable via constructor kwargs and the XML config. Shared with
# RemoteBackend so "the network" costs the same whether a byte crosses
# it inside a transport hop or an S3-class backend hop.
_NETWORK_BANDWIDTH = DEFAULT_NETWORK_BANDWIDTH
_NETWORK_LATENCY = DEFAULT_NETWORK_LATENCY


class Transport(ABC):
    """Write/read strategy bound to one storage tier.

    ``network_bandwidth`` (bytes/s) and ``network_latency`` (seconds)
    parameterize the interconnect hop used by the aggregating and
    staging methods; the defaults model a Gemini/Aries-class link.
    """

    method = ""

    def __init__(
        self,
        tier: StorageTier,
        *,
        network_bandwidth: float = _NETWORK_BANDWIDTH,
        network_latency: float = _NETWORK_LATENCY,
    ):
        if network_bandwidth <= 0:
            raise TransportError("network_bandwidth must be positive")
        if network_latency < 0:
            raise TransportError("network_latency must be >= 0")
        self.tier = tier
        self.network_bandwidth = network_bandwidth
        self.network_latency = network_latency

    @abstractmethod
    def write(self, relpath: str, data: bytes, label: str = "") -> None:
        """Store bytes on the tier, charging the method's cost model."""

    def read(self, relpath: str, label: str = "") -> bytes:
        return self.tier.read(relpath, label)

    def peek_range(self, relpath: str, offset: int, length: int) -> bytes:
        """Uncharged, thread-safe range read (retrieval-engine data path).

        The engine accounts simulated time per overlapped batch itself,
        so the byte movement must not double-charge the clock.
        """
        return self.tier.peek_range(relpath, offset, length)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(tier={self.tier.name!r})"


class PosixTransport(Transport):
    """One file per process, written directly (ADIOS POSIX)."""

    method = "POSIX"

    def write(self, relpath: str, data: bytes, label: str = "") -> None:
        self.tier.write(relpath, data, label)


class AggregatingTransport(Transport):
    """MPI_AGGREGATE-like two-stage write.

    Parameters
    ----------
    writers:
        Number of producing ranks.
    aggregators:
        Number of ranks that actually touch storage.
    """

    method = "MPI_AGGREGATE"

    def __init__(
        self,
        tier: StorageTier,
        writers: int = 1,
        aggregators: int = 1,
        **net_params,
    ):
        super().__init__(tier, **net_params)
        if writers < 1 or aggregators < 1:
            raise TransportError("writers and aggregators must be >= 1")
        if aggregators > writers:
            raise TransportError("cannot have more aggregators than writers")
        self.writers = writers
        self.aggregators = aggregators

    def write(self, relpath: str, data: bytes, label: str = "") -> None:
        # Stage 1: gather from writers to aggregators over the network.
        gather_seconds = (
            self.network_latency + len(data) / self.network_bandwidth
        )
        self.tier.clock.charge(
            self.tier.name, "write", 0, gather_seconds, label or "aggregate-gather"
        )
        # Stage 2: the tier write itself. Aggregation reduces the number of
        # storage ops by writers/aggregators; model the saving as a latency
        # rebate (bandwidth is unchanged — same bytes hit the device).
        event = self.tier.write(relpath, data, label)
        rebate = self.tier.device.latency * (1 - self.aggregators / self.writers)
        if rebate > 0:
            self.tier.clock.charge(
                self.tier.name, "write", 0, -rebate, "aggregate-latency-rebate"
            )
        del event


class StagingTransport(Transport):
    """In-transit staging: write at network speed now, drain later."""

    method = "STAGING"

    def __init__(self, tier: StorageTier, **net_params):
        super().__init__(tier, **net_params)
        self._pending: dict[str, tuple[bytes, str]] = {}

    def write(self, relpath: str, data: bytes, label: str = "") -> None:
        seconds = self.network_latency + len(data) / self.network_bandwidth
        self.tier.clock.charge(
            "staging", "write", len(data), seconds, label or "stage"
        )
        self._pending[relpath] = (bytes(data), label)

    @property
    def pending(self) -> list[str]:
        return sorted(self._pending)

    def drain(self) -> int:
        """Flush staged data to the tier; returns bytes drained.

        Drain time is charged to the tier but represents work done by
        staging nodes, off the simulation's critical path.
        """
        total = 0
        for relpath, (data, label) in sorted(self._pending.items()):
            self.tier.write(relpath, data, label or "drain")
            total += len(data)
        self._pending.clear()
        return total

    def read(self, relpath: str, label: str = "") -> bytes:
        if relpath in self._pending:
            raise TransportError(
                f"{relpath!r} is staged but not drained; call drain() first"
            )
        return super().read(relpath, label)


def make_transport(method: str, tier: StorageTier, **params) -> Transport:
    """Factory used by the XML configuration layer.

    ``network_bandwidth`` / ``network_latency`` kwargs reach every
    method; remaining params are method-specific (e.g. ``writers`` /
    ``aggregators`` for MPI_AGGREGATE).
    """
    method = method.upper()
    if method == "POSIX":
        return PosixTransport(tier, **params)
    if method == "MPI_AGGREGATE":
        return AggregatingTransport(tier, **params)
    if method == "STAGING":
        return StagingTransport(tier, **params)
    raise TransportError(f"unknown transport method {method!r}")
