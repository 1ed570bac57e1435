"""Variable metadata and the global catalog index.

ADIOS's BP format is "metadata rich": a global index records where every
variable lives so readers can fetch exactly the bytes they need (paper
§III-E1: "Global metadata maintains the location of the refactored
data"). :class:`VariableRecord` is one index entry; :class:`Catalog` is
the global index serialized as JSON next to the per-tier subfiles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import BPFormatError, VariableNotFoundError

__all__ = ["VariableRecord", "Catalog"]

_CATALOG_VERSION = 1


@dataclass
class VariableRecord:
    """Location and description of one stored variable payload.

    Attributes
    ----------
    key:
        Unique variable key, e.g. ``"dpot/L2"`` or ``"dpot/delta1-2"``.
    tier:
        Name of the storage tier holding the payload.
    subfile:
        Tier-relative path of the BP subfile containing the payload.
    offset, length:
        Byte range of the payload inside the subfile.
    codec:
        Compressor name recorded at write time ("" = uncompressed).
    kind:
        Semantic role: ``"base"``, ``"delta"``, ``"mapping"``, ``"mesh"``,
        or ``"var"``.
    level:
        Accuracy level l (paper notation), or -1 when not applicable.
    count:
        Element count of the decoded array (0 if unknown/not an array).
    checksum:
        CRC-32 of the payload bytes, recorded at write time (0 = not
        recorded); lets integrity checks detect single-bit corruption
        without understanding the payload.
    attrs:
        Free-form attributes.
    """

    key: str
    tier: str
    subfile: str
    offset: int
    length: int
    codec: str = ""
    kind: str = "var"
    level: int = -1
    count: int = 0
    checksum: int = 0
    attrs: dict = field(default_factory=dict)


class Catalog:
    """Global metadata index for one dataset."""

    def __init__(self, name: str):
        self.name = name
        self.records: dict[str, VariableRecord] = {}
        self.attrs: dict = {}

    def add(self, record: VariableRecord) -> None:
        if record.key in self.records:
            raise BPFormatError(f"duplicate variable key {record.key!r}")
        self.records[record.key] = record

    def get(self, key: str) -> VariableRecord:
        try:
            return self.records[key]
        except KeyError:
            raise VariableNotFoundError(
                f"{self.name}: no variable {key!r}; "
                f"available: {sorted(self.records)[:20]}"
            ) from None

    def __contains__(self, key: str) -> bool:
        return key in self.records

    def keys(self) -> list[str]:
        return sorted(self.records)

    def select(
        self, *, kind: str | None = None, level: int | None = None
    ) -> list[VariableRecord]:
        """Filter records by kind and/or level (keyword-only, like
        :meth:`repro.io.dataset.BPDataset.select`)."""
        return [
            r
            for r in self.records.values()
            if (kind is None or r.kind == kind)
            and (level is None or r.level == level)
        ]

    # -- serialization ---------------------------------------------------
    def to_json(self) -> bytes:
        # vars(), not dataclasses.asdict: a record's fields are its
        # instance dict, and json.dumps needs no deep copy to read them.
        doc = {
            "version": _CATALOG_VERSION,
            "name": self.name,
            "attrs": self.attrs,
            "records": [vars(r) for r in self.records.values()],
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @classmethod
    def from_json(cls, blob: bytes) -> "Catalog":
        try:
            doc = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BPFormatError(f"corrupt catalog: {exc}") from exc
        if doc.get("version") != _CATALOG_VERSION:
            raise BPFormatError(
                f"unsupported catalog version {doc.get('version')!r}"
            )
        cat = cls(doc["name"])
        cat.attrs = doc.get("attrs", {})
        for rec in doc["records"]:
            cat.add(VariableRecord(**rec))
        return cat
