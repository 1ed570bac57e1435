"""Per-product value summaries: the catalog's query metadata.

The paper's related work (§V) motivates query-driven exploration
(MLOC, SDS): analytics often ask "where does dpot exceed a threshold?"
rather than "give me everything". Canopus's chunked deltas make this
cheap: the encoder records per-product value statistics (min/max of the
*restored* contribution range) in the catalog, and the readers prune
chunks that provably cannot satisfy a predicate before any data I/O
happens — the decoder's significance filter
(:meth:`~repro.core.layout.Chain.chunk_verdicts`), the retrieval planner
and the pushdown queries of :mod:`repro.query`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.io.metadata import VariableRecord

__all__ = ["ChunkStats", "attach_stats"]


@dataclass(frozen=True)
class ChunkStats:
    """Value statistics of one stored product.

    Beyond the pruning bounds (min/max/|max|), the first two moments
    (``vsum``/``vsumsq`` over ``count`` finite values) are recorded so
    mean/RMS aggregate exactly across chunks: sums add, so a region's
    statistics come straight from its surviving chunks' summaries with
    zero data I/O — the pushdown surface of ``repro.query``. The moment
    fields default to zero/absent so summaries written before they
    existed still deserialize (``ChunkStats(**raw)``).

    Statistics are NaN-safe: non-finite values (sentinel NaNs, ±inf)
    are excluded from every reduction and from ``count``, so a field
    with NaN holes cannot poison pruning decisions — an all-NaN chunk
    reports zeros with ``count == 0``.
    """

    vmin: float
    vmax: float
    vabs_max: float
    vsum: float = 0.0
    vsumsq: float = 0.0
    count: int = 0

    @classmethod
    def of(cls, values: np.ndarray) -> "ChunkStats":
        values = np.asarray(values, dtype=np.float64).ravel()
        finite = values[np.isfinite(values)] if values.size else values
        if finite.size == 0:
            return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0)
        return cls(
            vmin=float(finite.min()),
            vmax=float(finite.max()),
            vabs_max=float(np.abs(finite).max()),
            vsum=float(finite.sum()),
            vsumsq=float(np.square(finite).sum()),
            count=int(finite.size),
        )

    @property
    def mean(self) -> float:
        return self.vsum / self.count if self.count else 0.0

    @property
    def rms(self) -> float:
        return math.sqrt(self.vsumsq / self.count) if self.count else 0.0

    @classmethod
    def merge(cls, parts: "list[ChunkStats]") -> "ChunkStats":
        """Exact aggregate of several chunks' statistics.

        Min/max/|max| combine by extrema and the moments by summation,
        so the merge of per-chunk summaries equals the summary of the
        concatenated values. Empty (count 0) parts are identities.
        """
        live = [p for p in parts if p.count]
        if not live:
            return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0)
        return cls(
            vmin=min(p.vmin for p in live),
            vmax=max(p.vmax for p in live),
            vabs_max=max(p.vabs_max for p in live),
            vsum=sum(p.vsum for p in live),
            vsumsq=sum(p.vsumsq for p in live),
            count=sum(p.count for p in live),
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "vmin": self.vmin,
            "vmax": self.vmax,
            "vabs_max": self.vabs_max,
            "vsum": self.vsum,
            "vsumsq": self.vsumsq,
            "count": self.count,
        }


def attach_stats(record: VariableRecord, values: np.ndarray) -> None:
    """Store a product's value statistics in its catalog record."""
    record.attrs["stats"] = ChunkStats.of(values).as_dict()
