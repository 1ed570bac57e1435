"""ADIOS-like dataset API: declarative write / query / read.

This is the interface Canopus plugs into (paper Fig. 2): simulations use
the *write* side, analytics use the *query + read* side, and neither
needs to know which tier holds which product.

Write path::

    ds = BPDataset.create("run42", hierarchy)
    ds.write("dpot/L2", payload, kind="base", level=2, preferred_tier=0)
    ds.close()                      # flushes subfiles + catalog

Read path::

    ds = BPDataset.open("run42", hierarchy)
    info = ds.inq("dpot/L2")        # adios_inq_var equivalent
    payload = ds.read("dpot/L2")    # charged only for this variable's bytes

Each tier receives one BP subfile per dataset; the catalog (global
metadata) lives on the slowest tier, which every job can reach.

Every read is served through a :class:`~repro.io.engine.RetrievalEngine`
(per open dataset): a byte-budgeted LRU range cache, concurrent batched
reads (:meth:`BPDataset.read_many`), and background prefetch
(:meth:`BPDataset.prefetch`). Payload CRC-32 checksums recorded by the
catalog at write time are verified on every fetch; pass
``verify_checksums=False`` (or ``read(key, verify=False)``) to opt out,
e.g. for benchmarks isolating raw transfer cost.
"""

from __future__ import annotations

import zlib

from repro.errors import BPFormatError, StorageError
from repro.io.bp import BPWriter
from repro.io.engine import EngineStats, RetrievalEngine
from repro.io.metadata import Catalog, VariableRecord
from repro.io.transports import PosixTransport, Transport
from repro.obs import trace
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.placement import (
    PlacementEngine,
    PlacementPlan,
    ProductSpec,
    default_weight,
)

__all__ = ["BPDataset", "DEFAULT_PLACEMENT", "PLACEMENTS"]

#: Product placement policies: the paper's fastest-first capacity walk
#: (§III-D) or the cost-based :class:`PlacementEngine`, applied at close.
PLACEMENTS = ("walk", "cost")
DEFAULT_PLACEMENT = "walk"


class BPDataset:
    """Handle to one logical dataset spread across storage tiers.

    All constructor arguments after ``name`` and ``hierarchy`` are
    keyword-only; prefer the :meth:`create` / :meth:`open` classmethods
    (or the :mod:`repro.api` façade) over calling this directly.
    """

    def __init__(
        self,
        name: str,
        hierarchy: StorageHierarchy,
        *,
        mode: str,
        transports: dict[str, Transport] | None = None,
        verify_checksums: bool = True,
        cache_bytes: int = 64 << 20,
        workers: int = 4,
        placement: str = DEFAULT_PLACEMENT,
    ) -> None:
        if mode not in ("w", "r"):
            raise BPFormatError(f"mode must be 'w' or 'r', not {mode!r}")
        if placement not in PLACEMENTS:
            raise BPFormatError(f"placement {placement!r} is not one of {PLACEMENTS}")
        self.name = name
        self.hierarchy = hierarchy
        self.mode = mode
        self.placement = placement
        #: Payloads awaiting close-time cost-based placement.
        self._pending: list[tuple[VariableRecord, bytes, float]] = []
        #: The last :class:`PlacementPlan` applied (cost mode only).
        self.last_plan: PlacementPlan | None = None
        self.transports = transports or {
            t.name: PosixTransport(t) for t in hierarchy
        }
        self.verify_checksums = verify_checksums
        self.catalog = Catalog(name)
        self.engine = RetrievalEngine(
            hierarchy, self.transports, cache_bytes=cache_bytes, workers=workers
        )
        self._writers: dict[str, BPWriter] = {}
        self._closed = False
        if mode == "r":
            self._load_catalog()

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        name: str,
        hierarchy: StorageHierarchy,
        transports: dict[str, Transport] | None = None,
        **kwargs,
    ) -> "BPDataset":
        return cls(name, hierarchy, mode="w", transports=transports, **kwargs)

    @classmethod
    def open(
        cls,
        name: str,
        hierarchy: StorageHierarchy,
        transports: dict[str, Transport] | None = None,
        **kwargs,
    ) -> "BPDataset":
        return cls(name, hierarchy, mode="r", transports=transports, **kwargs)

    # -- paths -----------------------------------------------------------
    def _subfile(self, tier_name: str) -> str:
        return f"{self.name}.{tier_name}.bp"

    def _catalog_path(self) -> str:
        return f"{self.name}.catalog.json"

    # -- write side -------------------------------------------------------
    def write(
        self,
        key: str,
        payload: bytes,
        *,
        kind: str = "var",
        level: int = -1,
        count: int = 0,
        codec: str = "",
        preferred_tier: int = 0,
        attrs: dict | None = None,
        weight: float | None = None,
    ) -> VariableRecord:
        """Buffer one variable payload for placement.

        With the default ``walk`` policy the tier is chosen immediately
        by walking down from ``preferred_tier`` and skipping tiers whose
        *remaining* capacity (free minus already-buffered bytes) cannot
        hold the payload — the paper's bypass rule, applied against the
        post-flush state. With the ``cost`` policy the payload is held
        back and the whole batch is placed at :meth:`close` by the
        cost-based :class:`~repro.storage.placement.PlacementEngine`;
        ``weight`` (expected relative read frequency) feeds its cost
        model, defaulting to the kind/level heuristic of
        :func:`~repro.storage.placement.default_weight`.
        """
        if self.mode != "w":
            raise BPFormatError("dataset is open read-only")
        if self._closed:
            raise BPFormatError("dataset already closed")
        if self.placement == "cost":
            record = VariableRecord(
                key=key,
                tier="",
                subfile="",
                offset=0,
                length=len(payload),
                codec=codec,
                kind=kind,
                level=level,
                count=count,
                checksum=zlib.crc32(payload) & 0xFFFFFFFF,
                attrs=attrs or {},
            )
            self.catalog.add(record)
            self._pending.append(
                (
                    record,
                    bytes(payload),
                    default_weight(kind, level) if weight is None else weight,
                )
            )
            return record
        tracer = trace.get_tracer()
        if tracer is None:
            tier = self._choose_tier(len(payload), preferred_tier)
        else:
            with tracer.span(
                "dataset.place", "placement",
                {"key": key, "nbytes": len(payload),
                 "preferred_tier": preferred_tier},
            ) as sp:
                tier = self._choose_tier(len(payload), preferred_tier)
                sp.note(
                    tier=tier,
                    bypassed=tier != self.hierarchy.tiers[preferred_tier].name,
                )
        writer = self._writers.setdefault(tier, BPWriter())
        offset, length = writer.add(key, payload)
        record = VariableRecord(
            key=key,
            tier=tier,
            subfile=self._subfile(tier),
            offset=offset,
            length=length,
            codec=codec,
            kind=kind,
            level=level,
            count=count,
            checksum=zlib.crc32(payload) & 0xFFFFFFFF,
            attrs=attrs or {},
        )
        self.catalog.add(record)
        return record

    def _choose_tier(self, nbytes: int, preferred_index: int) -> str:
        for tier in self.hierarchy.tiers[preferred_index:]:
            buffered = (
                self._writers[tier.name].nbytes
                if tier.name in self._writers
                else 0
            )
            if tier.free_bytes - buffered >= nbytes + _FOOTER_SLACK:
                return tier.name
        raise StorageError(
            f"no tier at index >= {preferred_index} can hold {nbytes} bytes"
        )

    def _apply_cost_placement(self) -> None:
        """Bin pending payloads into subfiles per the cost-based plan.

        Runs once, at close, when every buffered product and its read
        weight are known — a global decision the per-write walk cannot
        make. Record tier/subfile/offset fields are patched in place
        (``VariableRecord`` is mutable by design), so records handed out
        by :meth:`write` stay authoritative.
        """
        if not self._pending:
            return
        engine = PlacementEngine(self.hierarchy)
        products = [
            ProductSpec(rec.key, len(payload), weight)
            for rec, payload, weight in self._pending
        ]
        capacities = {
            t.name: max(0, t.free_bytes - _FOOTER_SLACK)
            for t in self.hierarchy.tiers
        }
        plan = engine.plan(products, capacities=capacities)
        self.last_plan = plan
        for rec, payload, _ in self._pending:
            tier = plan.tier_of(rec.key)
            writer = self._writers.setdefault(tier, BPWriter())
            offset, length = writer.add(rec.key, payload)
            rec.tier = tier
            rec.subfile = self._subfile(tier)
            rec.offset = offset
            rec.length = length
        self._pending.clear()

    def close(self) -> None:
        """Flush all subfiles through their transports + write the catalog."""
        self.engine.close()
        if self.mode != "w" or self._closed:
            self._closed = True
            return
        self._apply_cost_placement()
        with trace.span(
            "dataset.flush", "io", {"dataset": self.name}
        ):
            for tier_name, writer in sorted(self._writers.items()):
                transport = self.transports[tier_name]
                transport.write(
                    self._subfile(tier_name), writer.finalize(),
                    f"{self.name}:subfile",
                )
            slow = self.hierarchy.slowest
            self.transports[slow.name].write(
                self._catalog_path(), self.catalog.to_json(),
                f"{self.name}:catalog",
            )
        self._closed = True

    def __enter__(self) -> "BPDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- read side ---------------------------------------------------------
    def _load_catalog(self) -> None:
        slow = self.hierarchy.slowest
        blob = self.transports[slow.name].read(
            self._catalog_path(), f"{self.name}:catalog"
        )
        self.catalog = Catalog.from_json(blob)

    def keys(self) -> list[str]:
        return self.catalog.keys()

    def inq(self, key: str) -> VariableRecord:
        """ADIOS ``adios_inq_var`` equivalent: metadata without data."""
        return self.catalog.get(key)

    def _verify_flag(self, verify: bool | None) -> bool:
        return self.verify_checksums if verify is None else verify

    def read(self, key: str, *, verify: bool | None = None) -> bytes:
        """Fetch exactly one variable's bytes from its tier (or the cache).

        The catalog records the tier at write time; if the subfile has
        since been migrated/evicted by a tier-management policy, the
        current hierarchy location wins (byte offsets are unchanged —
        migration moves whole subfiles). The payload's CRC-32 is checked
        against the catalog unless ``verify`` (or the dataset-wide
        ``verify_checksums``) disables it; a mismatch raises
        :class:`~repro.errors.BPFormatError`.
        """
        rec = self.catalog.get(key)
        return self.engine.read(rec, verify=self._verify_flag(verify))

    def read_many(
        self, keys: list[str], *, verify: bool | None = None, label: str = ""
    ) -> dict[str, bytes]:
        """Fetch several variables as one overlapped batch.

        Requests are coalesced per subfile and issued concurrently
        across tiers; the simulated charge follows the engine's
        max-per-tier overlap model. Returns ``{key: payload}``.
        """
        records = [self.catalog.get(key) for key in keys]
        return self.engine.read_many(
            records, verify=self._verify_flag(verify), label=label
        )

    def prefetch(
        self, keys: list[str], *, verify: bool | None = None, label: str = ""
    ) -> int:
        """Hint that ``keys`` will be read soon; fetch them in background.

        Unknown keys are ignored (prefetching is best-effort by design).
        Returns the number of fetch spans issued.
        """
        records = [self.catalog.get(k) for k in keys if k in self.catalog]
        return self.engine.prefetch(
            records, verify=self._verify_flag(verify), label=label
        )

    def engine_stats(self) -> EngineStats:
        """Cache/prefetch counters for benchmarks and the harness."""
        return self.engine.stats

    def select(
        self, *, kind: str | None = None, level: int | None = None
    ) -> list[VariableRecord]:
        return self.catalog.select(kind=kind, level=level)


# Slack reserved per subfile for the footer index + trailer when checking
# capacity at write time (footers are small JSON documents).
_FOOTER_SLACK = 16 * 1024
