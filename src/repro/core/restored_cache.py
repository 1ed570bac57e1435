"""Process-wide read-side caches: restored levels and shared geometry.

The write path got a content-keyed :class:`~repro.core.decimation_plan.PlanCache`
so repeated campaigns skip geometry passes; this module is its read-side
mirror. Analytics sessions over the same dataset repeat two kinds of
work:

* re-restoring the same (variable, level) — every session walks base →
  deltas → level even when another reader just produced that exact
  field;
* re-decoding geometry — every :class:`~repro.core.decoder.CanopusDecoder`
  instance keeps private mesh/mapping caches, so N readers decode the
  same static mesh hierarchy N times.

:class:`RestoredLevelCache` keeps finished fields keyed by *dataset
content fingerprint* + variable + level + the chunks the retrieval
filter kept, so a second session gets the field back with zero I/O, and
a session asking for a finer level warm-starts from the closest cached
coarser state of the same walk instead of the base (fewer deltas to read
and apply). :class:`GeometryCache` shares
decoded meshes/mappings across decoder instances.

Both caches are thread-safe and content-keyed: datasets with different
catalogs (different bytes on disk) never collide, so correctness does
not depend on cache invalidation. Hit/miss counts are surfaced on the
active tracer (``restore.cache.*`` / ``geometry.cache.*``) so
``repro trace`` shows whether sessions actually shared work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.lru import LRU
from repro.obs import trace

__all__ = [
    "CachedLevel",
    "GeometryCache",
    "RestoredLevelCache",
    "dataset_fingerprint",
    "get_geometry_cache",
    "get_restored_cache",
]


def dataset_fingerprint(dataset) -> str:
    """Stable content fingerprint of an open dataset's catalog.

    Hashes every record's identity (key, subfile, byte range, CRC), so
    two handles onto the same bytes share cache entries while any
    re-write — even same-length — changes the fingerprint via the
    checksum. Cached on the dataset object after the first call.
    """
    cached = getattr(dataset, "_content_fingerprint", None)
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=16)
    records = dataset.catalog.records
    for key in sorted(records):
        rec = records[key]
        h.update(
            f"{rec.key}|{rec.subfile}|{rec.offset}|{rec.length}"
            f"|{rec.checksum}\n".encode()
        )
    fp = h.hexdigest()
    try:
        dataset._content_fingerprint = fp
    except AttributeError:  # exotic dataset objects without __dict__
        pass
    return fp


@dataclass(frozen=True)
class CachedLevel:
    """One cached restored field (immutable snapshot)."""

    field: np.ndarray  # read-only; copy before mutating
    level: int
    refined_mask: np.ndarray | None
    last_delta_rms: float

    @property
    def nbytes(self) -> int:
        n = self.field.nbytes
        if self.refined_mask is not None:
            n += self.refined_mask.nbytes
        return n


class RestoredLevelCache:
    """Process-wide byte-budgeted LRU of restored fields.

    Keys are ``(fingerprint, chain, level, signature)``: the filter
    signature (:meth:`repro.core.layout.Chain.filter_signature`) names
    the chunks a restore applied at each level, not the filter that was
    asked, so every request that keeps the same chunks shares one entry
    and ``()`` is the full-accuracy result. An entry is a valid
    refinement starting point for exactly the requests whose signature
    starts with its own (:meth:`nearest`).
    """

    def __init__(self, max_bytes: int = 512 << 20) -> None:
        if max_bytes < 1:
            raise ValueError("RestoredLevelCache max_bytes must be >= 1")
        self._levels = LRU(max_bytes, weigh=lambda entry: entry.nbytes)

    hits = property(lambda self: self._levels.hits)
    misses = property(lambda self: self._levels.misses)

    @property
    def max_bytes(self) -> int:
        return self._levels.budget

    @max_bytes.setter
    def max_bytes(self, value: int) -> None:
        """A new budget applies from the next insert on."""
        self._levels.budget = value

    # -- keying ---------------------------------------------------------
    @staticmethod
    def key_for(dataset, var: str, level: int, *, signature: tuple = ()) -> tuple:
        """Cache key: content identity + what the restore applied.

        ``dataset`` may be an open dataset *or* an already-computed
        fingerprint string — nothing about the handle (engine width,
        checksum policy, which session/tenant opened it) enters the key,
        so any two sessions restoring the same
        ``(fingerprint, var, level, signature)`` share one entry.
        """
        fp = dataset if isinstance(dataset, str) else dataset_fingerprint(dataset)
        return (fp, str(var), int(level), signature)

    # -- access ---------------------------------------------------------
    def get(self, key: tuple) -> CachedLevel | None:
        entry = self._levels.get(key)
        trace.count("restore.cache.misses" if entry is None else "restore.cache.hits")
        return entry

    def resident(self, key: tuple) -> CachedLevel | None:
        """:meth:`get` for a caller that restores through it on ``None``.

        A hit is a hit (counted, LRU order touched); a miss counts
        nothing, because the fallback's own :meth:`get` records it.
        """
        entry = self._levels.get(key, miss=False)
        if entry is not None:
            trace.count("restore.cache.hits")
        return entry

    def has(self, key: tuple) -> bool:
        """Membership peek that does not touch LRU order or counters."""
        return key in self._levels

    def nearest(self, keys) -> CachedLevel | None:
        """First resident entry of ``keys``: a refinement's warm start.

        ``keys`` run from the finest acceptable starting level to the
        coarsest, each under the target signature's prefix for its
        level. Not a hit or a miss (the exact lookup before it counted).
        """
        for key in keys:
            entry = self._levels.get(key, hit=False, miss=False)
            if entry is not None:
                trace.count("restore.cache.warm_starts")
                return entry
        return None

    def put(
        self,
        key: tuple,
        field: np.ndarray,
        *,
        refined_mask: np.ndarray | None = None,
        last_delta_rms: float = float("nan"),
    ) -> CachedLevel:
        """Insert a restored field; stores an immutable C-ordered copy.

        Refinement hands back plane-minor (Fortran-ordered) fields; the
        snapshot is laid out once, here, in the order every consumer of
        a hit wants, so a hit can be served as a view.
        """
        snapshot = np.array(field, copy=True, order="C")
        snapshot.setflags(write=False)
        mask = None
        if refined_mask is not None:
            mask = np.array(refined_mask, copy=True)
            mask.setflags(write=False)
        entry = CachedLevel(
            field=snapshot,
            level=int(key[2]),
            refined_mask=mask,
            last_delta_rms=float(last_delta_rms),
        )
        if entry.nbytes > self.max_bytes:
            return entry  # larger than the whole budget: never cache
        evicted = self._levels.put(key, entry)
        if evicted:
            trace.count("restore.cache.evictions", evicted)
        return entry

    # -- maintenance ----------------------------------------------------
    def clear(self) -> None:
        """Drop every entry; hit, miss and eviction counts carry on."""
        self._levels.clear()

    def stats(self) -> dict:
        return {**self._levels.stats("bytes"), "max_bytes": self.max_bytes}


class GeometryCache:
    """Process-wide LRU of decoded geometry (meshes and mappings).

    Keyed by (dataset fingerprint, catalog key), with a content key — a
    digest of the stored bytes — underneath: the single-shot layout
    stores one copy of each level's mesh and mapping per variable, and
    :meth:`decoded` rebuilds such copies once, not once per key. Decoded
    geometry objects are treated as immutable by the read path, so
    sharing one instance across keys, decoders and threads is safe.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("GeometryCache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries = LRU(maxsize)
        self._by_content = LRU(maxsize)

    hits = property(lambda self: self._entries.hits)
    misses = property(lambda self: self._entries.misses)

    def get(self, dataset, key: str):
        obj = self._entries.get((dataset_fingerprint(dataset), key))
        trace.count("geometry.cache.misses" if obj is None else "geometry.cache.hits")
        return obj

    def has(self, dataset, key: str) -> bool:
        """Membership peek that does not touch LRU order or counters."""
        return (dataset_fingerprint(dataset), key) in self._entries

    def put(self, dataset, key: str, obj) -> None:
        self._entries.put((dataset_fingerprint(dataset), key), obj)

    def decoded(self, dataset, key: str, blob: bytes, decode):
        """``decode(blob)``, run once per distinct ``blob`` content.

        For a caller that has just read ``blob`` after :meth:`get`
        missed: the bytes are already fetched (and charged), and only
        the rebuild is shared. The result is published under ``key``.
        A content hit is a hit of the content LRU, a decode its miss.
        """
        digest = hashlib.blake2b(blob, digest_size=16).digest()
        obj = self._by_content.get(digest)
        if obj is None:
            obj = decode(blob)  # outside any lock: milliseconds of zlib
            self._by_content.put(digest, obj)
            trace.count("geometry.cache.decodes")
        else:
            trace.count("geometry.cache.content_hits")
        self.put(dataset, key, obj)
        return obj

    def clear(self) -> None:
        self._entries.clear()
        self._by_content.clear()

    def stats(self) -> dict:
        content = self._by_content.stats()
        return {
            **self._entries.stats("entries"),  # each entry weighs 1
            "maxsize": self.maxsize,
            "content_hits": content["hits"],
            "decodes": content["misses"],
            "content_entries": content["entries"],
            "content_evictions": content["evictions"],
        }


_restored_cache = RestoredLevelCache()
_geometry_cache = GeometryCache()


def get_restored_cache() -> RestoredLevelCache:
    """The process-wide default restored-level cache."""
    return _restored_cache


def get_geometry_cache() -> GeometryCache:
    """The process-wide default geometry cache."""
    return _geometry_cache
