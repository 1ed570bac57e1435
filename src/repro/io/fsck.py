"""Dataset integrity checking (``fsck`` for BP datasets).

Campaign data outlives the jobs that wrote it; before a long analysis
(or after a tier migration) users want to know the dataset is sound.
The checker walks the catalog and verifies, per record:

* the byte range exists on the recorded tier and is readable;
* the payload decodes according to its kind (codec envelope for
  base/delta, mesh blob, mapping blob);
* decoded element counts match the catalog;
* recorded value statistics (if any) match the decoded payload within
  the codec's error bound.

Below the catalog, the checker also audits each tier's *backend
inventory*: every object-store backend self-verifies
(:meth:`~repro.storage.backend.ObjectStore.verify` — for a
:class:`~repro.storage.backend.ShardedBackend` that means missing
chunks, orphaned chunks, and a CRC pass over reassembled chunk
boundaries), and each dataset subfile's footer index is re-parsed
through ranged backend reads.

Checks are read-only and per-product, so a partially corrupted dataset
yields a precise damage report instead of a failed restore.

Beyond reporting, fsck can *repair*: :func:`repair_backends` (the
engine behind ``repro fsck --repair``) asks every tier's backend to
self-heal — replicated stores re-replicate from surviving intact copies
(re-striping damaged shards from their mirrors), sharded stores roll
interrupted-put journals forward or garbage-collect them, rebuild
corrupt or missing manifests from contiguous chunk runs, and collect
orphaned chunks — then resyncs each tier's capacity accounting and
re-checks. Unrecoverable damage (no surviving replica) stays reported:
repair never fabricates bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compress import decode_auto
from repro.core.mapping import LevelMapping
from repro.errors import ReproError
from repro.io.bp import LazyBPReader
from repro.io.dataset import BPDataset
from repro.mesh.io import mesh_from_bytes
from repro.obs.metrics import get_registry
from repro.storage.hierarchy import StorageHierarchy

__all__ = [
    "CheckResult",
    "check_backends",
    "check_dataset",
    "repair_backends",
    "repair_dataset",
]


@dataclass
class CheckResult:
    """Outcome of one integrity pass."""

    dataset: str
    checked: int = 0
    ok: int = 0
    problems: list[tuple[str, str]] = field(default_factory=list)
    #: Tier-level backend inventory findings, as ``(tier, problem)``.
    backend_problems: list[tuple[str, str]] = field(default_factory=list)
    #: Repair actions taken before this check, as ``(tier, action)``.
    repairs: list[tuple[str, str]] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return not self.problems and not self.backend_problems

    def report(self) -> str:
        lines = [
            f"dataset {self.dataset!r}: {self.ok}/{self.checked} products ok"
        ]
        for tier, action in self.repairs:
            lines.append(f"  FIXED [{tier}] {action}")
        for key, problem in self.problems:
            lines.append(f"  BAD {key}: {problem}")
        for tier, problem in self.backend_problems:
            lines.append(f"  BAD backend[{tier}]: {problem}")
        return "\n".join(lines)


def _check_payload(rec, blob: bytes) -> str | None:
    """Kind-specific validation; returns a problem string or None."""
    if rec.kind in ("base", "delta") and rec.codec:
        values = decode_auto(blob)
        if rec.count and values.size != rec.count:
            return f"decoded {values.size} values, catalog says {rec.count}"
        if not np.isfinite(values).all():
            return "decoded payload contains non-finite values"
        stats = rec.attrs.get("stats")
        if stats is not None and values.size:
            # The recorded stats describe the original values; the stored
            # payload may be lossy, so allow a small slack around them.
            span = max(stats["vmax"] - stats["vmin"], abs(stats["vabs_max"]), 1e-30)
            slack = 0.01 * span + 1e-12
            if values.max() > stats["vmax"] + slack:
                return (
                    f"decoded max {values.max():g} exceeds recorded "
                    f"vmax {stats['vmax']:g}"
                )
            if values.min() < stats["vmin"] - slack:
                return (
                    f"decoded min {values.min():g} below recorded "
                    f"vmin {stats['vmin']:g}"
                )
    elif rec.kind == "mesh":
        mesh_from_bytes(blob)
    elif rec.kind == "mapping":
        if "chunk" in rec.attrs:  # a spatial chunk's vertex-index list
            import zlib

            zlib.decompress(blob)
        else:
            LevelMapping.from_bytes(blob)
    return None


def check_backends(dataset: BPDataset, result: CheckResult) -> None:
    """Audit each tier's backend inventory for the dataset's objects.

    Appends ``(tier, problem)`` entries to ``result.backend_problems``:
    backend self-verification findings (sharded chunk inventory + CRC
    across chunk boundaries) scoped to the dataset's objects, plus a
    footer re-parse of each subfile through ranged backend reads.
    """
    prefix = dataset.name + "."
    for tier in dataset.hierarchy.tiers:
        for problem in tier.backend.verify():
            # Backend verify covers the whole store; report only findings
            # about this dataset's objects (other datasets share tiers).
            if problem.startswith(prefix):
                result.backend_problems.append((tier.name, problem))
        for relpath in tier.list_files():
            if not (
                relpath.startswith(prefix) and relpath.endswith(".bp")
            ):
                continue
            try:
                reader = LazyBPReader.from_tier(tier, relpath)
                reader.keys()
            except ReproError as exc:
                result.backend_problems.append(
                    (tier.name, f"{relpath}: footer unreadable ({exc})")
                )


def repair_backends(hierarchy: StorageHierarchy) -> list[tuple[str, str]]:
    """Ask every tier's backend to self-heal; returns ``(tier, action)``.

    Runs *below* the catalog, so it works even when the dataset cannot
    be opened (a corrupt catalog manifest is itself repairable). Tiers
    whose backends acted are resynced so capacity accounting follows the
    repaired store.
    """
    actions: list[tuple[str, str]] = []
    for tier in hierarchy.tiers:
        tier_actions = tier.backend.repair()
        for action in tier_actions:
            actions.append((tier.name, action))
        if tier_actions:
            tier.resync()
            get_registry().counter(
                "repair.actions", tier=tier.name
            ).inc(len(tier_actions))
    return actions


def repair_dataset(dataset: BPDataset) -> CheckResult:
    """Repair backend damage under an open dataset, then re-verify.

    The returned :class:`CheckResult` records the repair actions taken
    and the post-repair health; damage with no surviving replica is
    still reported BAD afterwards.
    """
    actions = repair_backends(dataset.hierarchy)
    result = check_dataset(dataset)
    result.repairs = actions
    return result


def check_dataset(dataset: BPDataset) -> CheckResult:
    """Audit storage backends, then verify every product of a dataset.

    The backend audit runs *first*: product reads go through the
    replica-failover path, whose read-repair would silently heal the
    very damage the audit is meant to report.
    """
    result = CheckResult(dataset=dataset.name)
    check_backends(dataset, result)
    for key in dataset.keys():
        rec = dataset.inq(key)
        result.checked += 1
        try:
            # Unverified read: the checker wants the corrupt bytes back so
            # it can classify the damage itself (the normal read path would
            # raise BPFormatError at the first checksum mismatch).
            blob = dataset.read(key, verify=False)
        except ReproError as exc:
            result.problems.append((key, f"unreadable: {exc}"))
            continue
        if len(blob) != rec.length:
            result.problems.append(
                (key, f"read {len(blob)} bytes, catalog says {rec.length}")
            )
            continue
        if rec.checksum:
            import zlib

            crc = zlib.crc32(blob) & 0xFFFFFFFF
            if crc != rec.checksum:
                result.problems.append(
                    (key, f"checksum mismatch: {crc:08x} != {rec.checksum:08x}")
                )
                continue
        try:
            problem = _check_payload(rec, blob)
        except Exception as exc:  # corrupt payloads raise typed errors
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            result.problems.append((key, problem))
        else:
            result.ok += 1
    return result
