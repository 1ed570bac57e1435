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
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

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


def _counter(name: str) -> None:
    tracer = trace.get_tracer()
    if tracer is not None:
        tracer.metrics.counter(name).inc()


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
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CachedLevel] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

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
        entry = self.resident(key)
        if entry is None:
            with self._lock:
                self.misses += 1
            _counter("restore.cache.misses")
        return entry

    def resident(self, key: tuple) -> CachedLevel | None:
        """:meth:`get` for a caller that restores through it on ``None``.

        A hit is a hit (counted, LRU order touched); a miss counts
        nothing, because the fallback's own :meth:`get` records it.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                _counter("restore.cache.hits")
            return entry

    def has(self, key: tuple) -> bool:
        """Membership peek that does not touch LRU order or counters."""
        with self._lock:
            return key in self._entries

    def nearest(self, keys) -> CachedLevel | None:
        """First resident entry of ``keys``: a refinement's warm start.

        ``keys`` run from the finest acceptable starting level to the
        coarsest, each under the target signature's prefix for its
        level. Not a hit or a miss (the exact lookup before it counted).
        """
        with self._lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    _counter("restore.cache.warm_starts")
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
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = entry
            self._bytes += entry.nbytes
            while self._bytes > self.max_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                _counter("restore.cache.evictions")
        return entry

    # -- maintenance ----------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
            }


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
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str], object] = OrderedDict()
        self._by_content: OrderedDict[bytes, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.content_hits = 0
        self.decodes = 0

    def get(self, dataset, key: str):
        k = (dataset_fingerprint(dataset), key)
        with self._lock:
            obj = self._entries.get(k)
            if obj is None:
                self.misses += 1
                _counter("geometry.cache.misses")
                return None
            self._entries.move_to_end(k)
            self.hits += 1
            _counter("geometry.cache.hits")
            return obj

    def has(self, dataset, key: str) -> bool:
        """Membership peek that does not touch LRU order or counters."""
        k = (dataset_fingerprint(dataset), key)
        with self._lock:
            return k in self._entries

    def put(self, dataset, key: str, obj) -> None:
        k = (dataset_fingerprint(dataset), key)
        with self._lock:
            self._entries[k] = obj
            self._entries.move_to_end(k)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def decoded(self, dataset, key: str, blob: bytes, decode):
        """``decode(blob)``, run once per distinct ``blob`` content.

        For a caller that has just read ``blob`` after :meth:`get`
        missed: the bytes are already fetched (and charged), and only
        the rebuild is shared. The result is published under ``key``.
        """
        digest = hashlib.blake2b(blob, digest_size=16).digest()
        with self._lock:
            obj = self._by_content.get(digest)
            if obj is not None:
                self._by_content.move_to_end(digest)
                self.content_hits += 1
        if obj is None:
            obj = decode(blob)  # outside the lock: milliseconds of zlib
            with self._lock:
                self.decodes += 1
                self._by_content[digest] = obj
                while len(self._by_content) > self.maxsize:
                    self._by_content.popitem(last=False)
            _counter("geometry.cache.decodes")
        else:
            _counter("geometry.cache.content_hits")
        self.put(dataset, key, obj)
        return obj

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_content.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "content_hits": self.content_hits,
                "decodes": self.decodes,
            }


_restored_cache = RestoredLevelCache()
_geometry_cache = GeometryCache()


def get_restored_cache() -> RestoredLevelCache:
    """The process-wide default restored-level cache."""
    return _restored_cache


def get_geometry_cache() -> GeometryCache:
    """The process-wide default geometry cache."""
    return _geometry_cache
