"""Canopus read path: retrieve → decompress → restore (paper Fig. 1, right).

Analytics choose an accuracy level; the decoder fetches the base from
the fastest tier, then walks deltas down from slower tiers, restoring
one level per step (paper Alg. 3). Per-phase costs are tracked
separately — I/O (simulated, tier-model), decompression (wall), and
restoration (wall) — because those are exactly the bars of Figs. 9–11.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.compress import decode_auto, decode_auto_many
from repro.core.delta import apply_delta
from repro.core.mapping import LevelMapping
from repro.core.notation import (
    LevelScheme,
    chunk_key,
    delta_key,
    level_key,
    mapping_key,
    mesh_key,
)
from repro.core.restored_cache import get_geometry_cache, get_restored_cache
from repro.errors import RestorationError
from repro.io.dataset import BPDataset
from repro.mesh.io import mesh_from_bytes
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import trace

__all__ = ["PhaseTimings", "LevelData", "CanopusDecoder"]


@dataclass
class PhaseTimings:
    """Accumulated per-phase costs of a retrieval chain."""

    io_seconds: float = 0.0  # simulated (tier device models)
    decompress_seconds: float = 0.0  # wall
    restore_seconds: float = 0.0  # wall

    @property
    def total_seconds(self) -> float:
        return self.io_seconds + self.decompress_seconds + self.restore_seconds

    def __add__(self, other: "PhaseTimings") -> "PhaseTimings":
        return PhaseTimings(
            self.io_seconds + other.io_seconds,
            self.decompress_seconds + other.decompress_seconds,
            self.restore_seconds + other.restore_seconds,
        )


@dataclass
class LevelData:
    """A variable restored to one accuracy level."""

    var: str
    level: int
    mesh: TriangleMesh
    field: np.ndarray
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    #: True per vertex when its delta was applied (only < 1 everywhere for
    #: focused/ROI refinement).
    refined_mask: np.ndarray | None = None
    #: RMS of the delta applied in the most recent refinement step — the
    #: paper's suggested auto-termination statistic.
    last_delta_rms: float = float("nan")

    def plane(self, index: int = 0) -> np.ndarray:
        """One poloidal plane of a stacked field (or the field itself)."""
        return self.field[index] if self.field.ndim == 2 else self.field


class CanopusDecoder:
    """Configured Canopus read pipeline over an open dataset.

    Parameters
    ----------
    dataset:
        The open dataset to read from.
    share_geometry:
        Consult/populate the process-wide :class:`GeometryCache` so
        decoder instances over the same dataset bytes decode each mesh
        and mapping once. Per-instance caches remain as a lock-free L1.
        Off by default so standalone decoders keep the seed's per-
        instance I/O accounting; :class:`~repro.core.decode_engine.DecodeEngine`
        and the :mod:`repro.api` façade turn it on.
    """

    def __init__(
        self,
        dataset: BPDataset,
        *,
        share_geometry: bool = False,
    ) -> None:
        self.dataset = dataset
        self._clock = dataset.hierarchy.clock
        self.share_geometry = share_geometry
        self._mapping_cache: dict[str, LevelMapping] = {}
        self._mesh_cache: dict[str, TriangleMesh] = {}

    # ------------------------------------------------------------------
    def variables(self) -> list[str]:
        return sorted(self.dataset.catalog.attrs.get("variables", {}))

    def scheme(self, var: str) -> LevelScheme:
        meta = self._var_meta(var)
        return LevelScheme(
            num_levels=int(meta["num_levels"]),
            step_ratio=float(meta["step_ratio"]),
        )

    def _var_meta(self, var: str) -> dict:
        try:
            return self.dataset.catalog.attrs["variables"][var]
        except KeyError:
            raise RestorationError(
                f"variable {var!r} not in dataset "
                f"{self.dataset.name!r}"
            ) from None

    # ------------------------------------------------------------------
    def _timed_read(self, key: str, timings: PhaseTimings) -> bytes:
        before = self._clock.elapsed
        blob = self.dataset.read(key)
        timings.io_seconds += self._clock.elapsed - before
        return blob

    def _read_geometry(self, key: str, local: dict, decode, timings: PhaseTimings):
        """One mesh or mapping: instance cache, shared cache, then bytes."""
        cached = local.get(key)
        if cached is not None:
            return cached
        shared = get_geometry_cache() if self.share_geometry else None
        obj = shared.get(self.dataset, key) if shared is not None else None
        if obj is None:
            blob = self._timed_read(key, timings)
            t0 = time.perf_counter()
            # The shared cache rebuilds identical bytes (the same mesh
            # stored under each variable) once; the read above is
            # charged either way.
            obj = (
                decode(blob)
                if shared is None
                else shared.decoded(self.dataset, key, blob, decode)
            )
            timings.decompress_seconds += time.perf_counter() - t0
        local[key] = obj
        return obj

    def _read_mesh(self, var: str, level: int, timings: PhaseTimings) -> TriangleMesh:
        return self._read_geometry(
            mesh_key(var, level), self._mesh_cache, mesh_from_bytes, timings
        )

    def prefetch_geometry(self, var: str) -> PhaseTimings:
        """Pre-load every level's mesh and mapping into the caches.

        Geometry (mesh hierarchy + vertex→triangle mappings) is static
        across timesteps for the paper's applications — XGC1 writes the
        mesh once per campaign — so analytics read it once and amortize
        the cost over every subsequent retrieval. The returned timings
        are the one-time setup cost; after this call, retrieval timings
        contain field/delta payload I/O only, matching what Figs. 9–11
        measure.

        All geometry ranges are fetched as one batch through the
        retrieval engine (:meth:`~repro.io.dataset.BPDataset.read_many`),
        so the setup cost reflects concurrent, coalesced tier reads.
        """
        scheme = self.scheme(var)
        timings = PhaseTimings()
        wanted = [
            mesh_key(var, lvl)
            for lvl in scheme.levels()
            if mesh_key(var, lvl) in self.dataset.catalog
        ] + [mapping_key(var, lvl) for lvl in scheme.delta_levels()]
        before = self._clock.elapsed
        self.dataset.read_many(
            [k for k in wanted if k in self.dataset.catalog],
            label=f"{var}:geometry",
        )
        timings.io_seconds += self._clock.elapsed - before
        # Decode from the now-warm cache into the object caches.
        for lvl in scheme.levels():
            if mesh_key(var, lvl) in self.dataset.catalog:
                self._read_mesh(var, lvl, timings)
        for lvl in scheme.delta_levels():
            self._read_mapping(var, lvl, timings)
        return timings

    # ------------------------------------------------------------------
    def level_keys(self, var: str, level: int) -> list[str]:
        """Catalog keys needed to lift ``level + 1`` → ``level``.

        This is the decoder's prefetch hint: the key set of the *next*
        refinement is known before the current one finishes, so the
        engine can fetch it while the current delta decompresses.
        Geometry already decoded into the object caches is excluded.
        """
        meta = self._var_meta(var)
        keys: list[str] = []

        def _decoded(cache: dict, key: str) -> bool:
            if key in cache:
                return True
            return self.share_geometry and get_geometry_cache().has(
                self.dataset, key
            )

        if not _decoded(self._mapping_cache, mapping_key(var, level)):
            keys.append(mapping_key(var, level))
        if not _decoded(self._mesh_cache, mesh_key(var, level)):
            keys.append(mesh_key(var, level))
        chunks = int(meta.get("chunks", 1))
        if chunks == 1:
            keys.append(delta_key(var, level))
        else:
            n_chunks = int(
                meta.get("chunks_per_level", {}).get(str(level), chunks)
            )
            for c in range(n_chunks):
                keys.append(chunk_key(var, level, c) + "/idx")
                keys.append(chunk_key(var, level, c))
        return [k for k in keys if k in self.dataset.catalog]

    def base_keys(self, var: str) -> list[str]:
        """Catalog keys of the base product (field + mesh)."""
        scheme = self.scheme(var)
        base_level = scheme.base_level
        keys = [level_key(var, base_level)]
        mkey = mesh_key(var, base_level)
        decoded = mkey in self._mesh_cache or (
            self.share_geometry and get_geometry_cache().has(self.dataset, mkey)
        )
        if not decoded and mkey in self.dataset.catalog:
            keys.append(mkey)
        return [k for k in keys if k in self.dataset.catalog]

    def prefetch_levels(self, var: str, levels, *, label: str = "") -> int:
        """Hint the engine to fetch refinement levels in the background.

        ``levels`` iterates over target levels (next-to-be-refined
        first). Already-cached or in-flight ranges are skipped by the
        engine, so repeated hints cost nothing.
        """
        keys: list[str] = []
        for lvl in levels:
            if lvl < 0:
                continue
            keys.extend(self.level_keys(var, lvl))
        if not keys:
            return 0
        return self.dataset.prefetch(keys, label=label or f"{var}:prefetch")

    def _read_mapping(
        self, var: str, level: int, timings: PhaseTimings
    ) -> LevelMapping:
        return self._read_geometry(
            mapping_key(var, level),
            self._mapping_cache,
            LevelMapping.from_bytes,
            timings,
        )

    # ------------------------------------------------------------------
    def _planes(self, var: str) -> int:
        """Plane count (0 = un-stacked 1-D field)."""
        return int(self._var_meta(var).get("planes", 0))

    def _shape_field(self, var: str, flat: np.ndarray) -> np.ndarray:
        planes = self._planes(var)
        return flat.reshape(planes, -1) if planes else flat

    def read_base(self, var: str) -> LevelData:
        """Option (1) of §III-B: the quick look from the fastest tier."""
        scheme = self.scheme(var)
        base_level = scheme.base_level
        with trace.span(
            "decode.read_base", "restore", {"var": var, "level": base_level}
        ):
            timings = PhaseTimings()
            blob = self._timed_read(level_key(var, base_level), timings)
            t0 = time.perf_counter()
            field_ = self._shape_field(var, decode_auto(blob))
            timings.decompress_seconds += time.perf_counter() - t0
            mesh = self._read_mesh(var, base_level, timings)
        return LevelData(
            var=var, level=base_level, mesh=mesh, field=field_, timings=timings
        )

    def _read_delta(
        self,
        var: str,
        level: int,
        n_fine: int,
        timings: PhaseTimings,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Read (possibly chunked) delta; returns (delta, applied_mask).

        ``region=(lo_xy, hi_xy)`` skips every chunk whose bounding box
        does not intersect the window (focused retrieval — only valid
        when the variable was encoded with spatial chunks).
        ``min_significance`` additionally skips chunks whose recorded
        ``|max|`` statistic is below the threshold: the unread chunks can
        change no value by more than that, so the refinement is lossy
        but bounded.
        """
        meta = self._var_meta(var)
        chunks = int(meta.get("chunks", 1))
        planes = self._planes(var)
        if chunks == 1:
            blob = self._timed_read(delta_key(var, level), timings)
            t0 = time.perf_counter()
            delta = self._shape_field(var, decode_auto(blob))
            timings.decompress_seconds += time.perf_counter() - t0
            return delta, np.ones(delta.shape[-1], dtype=bool)

        n_chunks = int(meta.get("chunks_per_level", {}).get(str(level), chunks))
        shape = (planes, n_fine) if planes else (n_fine,)
        delta = np.zeros(shape, dtype=np.float64)
        applied = np.zeros(n_fine, dtype=bool)
        wanted: list = []
        for c in range(n_chunks):
            rec = self.dataset.inq(chunk_key(var, level, c))
            if region is not None:
                lo, hi = region
                x0, y0, x1, y1 = rec.attrs["bbox"]
                if x1 < lo[0] or x0 > hi[0] or y1 < lo[1] or y0 > hi[1]:
                    continue  # chunk entirely outside the ROI
            if min_significance > 0.0:
                stats = rec.attrs.get("stats")
                if stats is not None and stats["vabs_max"] < min_significance:
                    continue  # provably insignificant correction
            wanted.append(rec)
        if not wanted:
            return delta, applied

        # One overlapped batch for every surviving chunk's index + payload
        # (coalesced per subfile, tiers in parallel), then one batched
        # decode of all of them. Each spatial chunk owns a disjoint vertex
        # set, so the scatters never overlap.
        before = self._clock.elapsed
        blobs = self.dataset.read_many(
            [k for rec in wanted for k in (rec.key + "/idx", rec.key)],
            label=f"{var}:delta{level}",
        )
        timings.io_seconds += self._clock.elapsed - before

        t0 = time.perf_counter()
        pieces = decode_auto_many([blobs[rec.key] for rec in wanted])
        for rec, piece in zip(wanted, pieces):
            idx = np.frombuffer(
                zlib.decompress(blobs[rec.key + "/idx"]), dtype="<i8"
            )
            if planes:
                piece = piece.reshape(planes, len(idx))
            delta[..., idx] = piece
            applied[idx] = True
        timings.decompress_seconds += time.perf_counter() - t0
        return delta, applied

    def refine(
        self,
        state: LevelData,
        *,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
    ) -> LevelData:
        """Lift ``state`` one accuracy level (apply one delta).

        ``region=(lo_xy, hi_xy)`` restricts delta reads to chunks that
        contain vertices inside the bounding box — everything outside
        keeps the estimate (focused retrieval). ``min_significance``
        skips chunks whose recorded correction magnitude is below the
        threshold (bounded lossy refinement). Both require the variable
        to have been encoded with ``chunks > 1`` to give any I/O saving.
        """
        if state.level <= 0:
            raise RestorationError("already at full accuracy (level 0)")
        var = state.var
        target = state.level - 1
        with trace.span(
            "decode.refine", "restore", {"var": var, "level": target}
        ):
            timings = PhaseTimings()
            mapping = self._read_mapping(var, target, timings)
            fine_mesh = self._read_mesh(var, target, timings)

            window = None
            if region is not None:
                lo, hi = (np.asarray(b, dtype=np.float64) for b in region)
                window = (lo, hi)

            delta, applied = self._read_delta(
                var, target, mapping.n_fine, timings, window, min_significance
            )
            t0 = time.perf_counter()
            field_ = apply_delta(state.field, delta, mapping)
            timings.restore_seconds += time.perf_counter() - t0
            # NaN (not 0.0) when no chunk survived the region/significance
            # filter: "nothing was read" must not look like "the delta
            # converged", or refine_until() would stop spuriously.
            if not applied.any():
                rms = float("nan")
            elif applied.all():  # the mask would only copy the array
                rms = float(np.sqrt(np.mean(delta**2)))
            else:
                rms = float(np.sqrt(np.mean(delta[..., applied] ** 2)))
        return LevelData(
            var=var,
            level=target,
            mesh=fine_mesh,
            field=field_,
            timings=state.timings + timings,
            refined_mask=applied,
            last_delta_rms=rms,
        )

    def _prefetch_window(
        self, var: str, next_target: int, lookahead: int, floor: int
    ) -> float:
        """Hint the next ``lookahead`` refinement levels; return sim cost.

        Unlike the interactive reader, ``restore_to`` knows the final
        target, so the window never reaches below ``floor`` — no charge
        for deltas the chain will not apply.
        """
        if next_target < floor:
            return 0.0
        before = self._clock.elapsed
        levels = range(next_target, max(floor - 1, next_target - lookahead), -1)
        self.prefetch_levels(var, levels, label=f"{var}:pipeline")
        return self._clock.elapsed - before

    def restore_to(
        self,
        var: str,
        level: int,
        *,
        pipeline: bool = True,
        lookahead: int = 2,
        use_cache: bool = False,
    ) -> LevelData:
        """Restore from the base down to ``level`` (paper options 2/3).

        With ``pipeline=True`` (default) upcoming levels' byte ranges are
        hinted to the retrieval engine before each refinement, so the
        non-interactive path gets the same overlapped I/O charge as
        :class:`~repro.core.progressive.ProgressiveReader`; the restored
        field is bit-identical either way. ``use_cache=True`` additionally
        consults the process-wide :class:`RestoredLevelCache`: an exact
        (var, level) hit returns immediately, and a cached coarser level
        warm-starts the chain; every level restored on the way down is
        published back to the cache.
        """
        if lookahead < 1:
            raise RestorationError("lookahead must be >= 1")
        scheme = self.scheme(var)
        scheme.validate_level(level)
        cache = get_restored_cache() if use_cache else None
        state: LevelData | None = None
        if cache is not None:
            hit = cache.get(cache.key_for(self.dataset, var, level))
            warm = hit if hit is not None else cache.warmest(
                self.dataset, var, level
            )
            if warm is not None:
                timings = PhaseTimings()
                mesh = self._read_mesh(var, warm.level, timings)
                state = LevelData(
                    var=var,
                    level=warm.level,
                    mesh=mesh,
                    field=warm.field.copy(),
                    timings=timings,
                    last_delta_rms=warm.last_delta_rms,
                )
                if warm.level == level:
                    return state
        if state is None:
            prefetch_io = 0.0
            if pipeline:
                before = self._clock.elapsed
                self.dataset.prefetch(self.base_keys(var), label=f"{var}:base")
                prefetch_io = self._clock.elapsed - before
                prefetch_io += self._prefetch_window(
                    var, scheme.base_level - 1, lookahead, level
                )
            state = self.read_base(var)
            state.timings.io_seconds += prefetch_io
            if cache is not None:
                cache.put(
                    cache.key_for(self.dataset, var, state.level), state.field
                )
        while state.level > level:
            prefetch_io = 0.0
            if pipeline:
                prefetch_io = self._prefetch_window(
                    var, state.level - 1, lookahead, level
                )
            state = self.refine(state)
            state.timings.io_seconds += prefetch_io
            if cache is not None:
                cache.put(
                    cache.key_for(self.dataset, var, state.level),
                    state.field,
                    last_delta_rms=state.last_delta_rms,
                )
        return state
