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
from repro.core.layout import Chain, chains
from repro.core.mapping import LevelMapping
from repro.core.notation import LevelScheme, delta_key
from repro.core.restored_cache import (
    RestoredLevelCache,
    get_geometry_cache,
    get_restored_cache,
)
from repro.errors import RestorationError
from repro.io.dataset import BPDataset
from repro.mesh.io import mesh_from_bytes
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import trace

__all__ = ["PhaseTimings", "LevelData", "CanopusDecoder"]

#: Refinement levels a pipelined read keeps in flight ahead of the one
#: it is decoding (:meth:`CanopusDecoder.prefetch_window`).
LOOKAHEAD = 2


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
    """The base → delta walker (paper Alg. 3) over an open dataset.

    Every method's ``var`` is a *chain name* from
    :func:`repro.core.layout.chains`: a single-shot variable's own name,
    or the ``step``/``part`` chain that
    :func:`repro.core.layout.resolve` returns for a campaign timestep or
    a partition patch. Chains that share a geometry owner (the steps of
    a campaign) share decoded meshes and mappings.

    Parameters
    ----------
    dataset:
        The open dataset to read from.
    share_geometry:
        Consult/populate the process-wide :class:`GeometryCache` so
        decoder instances over the same dataset bytes decode each mesh
        and mapping once. The per-instance cache remains as a lock-free
        L1. Off by default so standalone decoders keep the seed's per-
        instance I/O accounting; the one read entry point,
        :class:`~repro.session.CampaignHandle`, turns it on.
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
        self._chains: dict[str, Chain] | None = None
        #: Decoded meshes and mappings by catalog key.
        self._geometry: dict[str, object] = {}

    # ------------------------------------------------------------------
    def variables(self) -> list[str]:
        return sorted(self.dataset.catalog.attrs.get("variables", {}))

    def chain(self, var: str) -> Chain:
        """Layout of one restore chain (see the class docstring)."""
        if self._chains is None:
            self._chains = chains(self.dataset.catalog)
        try:
            return self._chains[var]
        except KeyError:
            raise RestorationError(
                f"variable {var!r} not in dataset "
                f"{self.dataset.name!r}"
            ) from None

    def scheme(self, var: str) -> LevelScheme:
        return self.chain(var).scheme

    # ------------------------------------------------------------------
    def _timed_read(self, key: str, timings: PhaseTimings) -> bytes:
        before = self._clock.elapsed
        blob = self.dataset.read(key)
        timings.io_seconds += self._clock.elapsed - before
        return blob

    def _read_geometry(self, key: str, decode, timings: PhaseTimings):
        """One mesh or mapping: instance cache, shared cache, then bytes."""
        cached = self._geometry.get(key)
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
        self._geometry[key] = obj
        return obj

    def _read_mesh(
        self, chain: Chain, level: int, timings: PhaseTimings
    ) -> TriangleMesh:
        return self._read_geometry(
            chain.mesh_key(level), mesh_from_bytes, timings
        )

    def _read_mapping(
        self, chain: Chain, level: int, timings: PhaseTimings
    ) -> LevelMapping:
        return self._read_geometry(
            chain.mapping_key(level), LevelMapping.from_bytes, timings
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
        chain = self.chain(var)
        timings = PhaseTimings()
        before = self._clock.elapsed
        self.dataset.read_many(
            self._stored(chain.all_geometry_keys()), label=f"{var}:geometry"
        )
        timings.io_seconds += self._clock.elapsed - before
        # Decode from the now-warm cache into the object caches.
        for lvl in chain.scheme.levels():
            if chain.mesh_key(lvl) in self.dataset.catalog:
                self._read_mesh(chain, lvl, timings)
        for lvl in chain.scheme.delta_levels():
            self._read_mapping(chain, lvl, timings)
        return timings

    # ------------------------------------------------------------------
    def _stored(self, keys: list[str]) -> list[str]:
        return [k for k in keys if k in self.dataset.catalog]

    def undecoded(self, keys: list[str]) -> list[str]:
        """Stored geometry keys not yet in an object cache."""
        shared = get_geometry_cache() if self.share_geometry else None
        return [
            k
            for k in self._stored(keys)
            if k not in self._geometry
            and not (shared is not None and shared.has(self.dataset, k))
        ]

    def _level_keys(self, chain: Chain, level: int) -> list[str]:
        """Catalog keys needed to lift ``level + 1`` → ``level``.

        The key set of the *next* refinement is known before the current
        one finishes, so the engine can fetch it while the current delta
        decompresses. Geometry already decoded into the object caches is
        excluded.
        """
        return self.undecoded(chain.geometry_keys(level)) + self._stored(
            chain.delta_keys(level)
        )

    def _base_keys(self, chain: Chain) -> list[str]:
        """Catalog keys of the base product (field + mesh)."""
        return self._stored([chain.base_key]) + self.undecoded(
            [chain.mesh_key(chain.scheme.base_level)]
        )

    def chain_keys(self, var: str, level: int) -> list[str]:
        """Every catalog key an unfiltered restore to ``level`` reads."""
        chain = self.chain(var)
        keys = self._base_keys(chain)
        for lvl in range(chain.scheme.base_level - 1, level - 1, -1):
            keys.extend(self._level_keys(chain, lvl))
        return keys

    def prefetch_window(self, var: str, next_target: int, floor: int = 0) -> float:
        """Hint the next :data:`LOOKAHEAD` refinement levels; return sim cost.

        The window never reaches below ``floor``: a chain that knows its
        final target pays no charge for deltas it will not apply. The
        returned simulated seconds are what the newly issued batches
        cost (already-cached / in-flight ranges are skipped by the
        engine, so repeated hints are free); callers fold them into the
        current step's I/O phase — the charge is honest: it happens when
        the requests are issued.
        """
        chain = self.chain(var)
        keys = [
            key
            for lvl in range(
                next_target, max(floor - 1, next_target - LOOKAHEAD), -1
            )
            for key in self._level_keys(chain, lvl)
        ]
        if not keys:
            return 0.0
        before = self._clock.elapsed
        with trace.span(
            "decode.prefetch", "pipeline",
            {"var": var, "next_target": next_target},
        ):
            self.dataset.prefetch(keys, label=f"{var}:pipeline")
        return self._clock.elapsed - before

    def prefetch_base(self, var: str, floor: int = 0) -> float:
        """Batch the base field + base mesh into one engine fetch and
        start the first deltas moving behind it; return sim cost."""
        chain = self.chain(var)
        before = self._clock.elapsed
        self.dataset.prefetch(self._base_keys(chain), label=f"{var}:base")
        return (
            self._clock.elapsed - before
            + self.prefetch_window(var, chain.scheme.base_level - 1, floor)
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _shape_field(chain: Chain, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(chain.planes, -1) if chain.planes else flat

    def read_base(self, var: str) -> LevelData:
        """Option (1) of §III-B: the quick look from the fastest tier."""
        chain = self.chain(var)
        base_level = chain.scheme.base_level
        with trace.span(
            "decode.read_base", "restore", {"var": var, "level": base_level}
        ):
            timings = PhaseTimings()
            blob = self._timed_read(chain.base_key, timings)
            t0 = time.perf_counter()
            field_ = self._shape_field(chain, decode_auto(blob))
            timings.decompress_seconds += time.perf_counter() - t0
            mesh = self._read_mesh(chain, base_level, timings)
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

        ``region=(lo_xy, hi_xy)`` and ``min_significance`` skip spatial
        chunks by :meth:`Chain.chunk_verdicts` (focused / bounded-lossy
        retrieval — only effective when the variable was encoded with
        spatial chunks).
        """
        chain = self.chain(var)
        planes = chain.planes
        if not chain.chunked:
            blob = self._timed_read(delta_key(var, level), timings)
            t0 = time.perf_counter()
            delta = self._shape_field(chain, decode_auto(blob))
            timings.decompress_seconds += time.perf_counter() - t0
            return delta, np.ones(delta.shape[-1], dtype=bool)

        shape = (planes, n_fine) if planes else (n_fine,)
        delta = np.zeros(shape, dtype=np.float64)
        applied = np.zeros(n_fine, dtype=bool)
        wanted = [
            (chain.idx_key(level, c), rec.key)
            for c, rec, skip in chain.chunk_verdicts(
                self.dataset.catalog, level, region, min_significance
            )
            if skip is None
        ]
        if not wanted:
            return delta, applied

        # One overlapped batch for every surviving chunk's index + payload
        # (coalesced per subfile, tiers in parallel), then one batched
        # decode of all of them. Each spatial chunk owns a disjoint vertex
        # set, so the scatters never overlap.
        before = self._clock.elapsed
        blobs = self.dataset.read_many(
            [k for pair in wanted for k in pair], label=f"{var}:delta{level}"
        )
        timings.io_seconds += self._clock.elapsed - before

        t0 = time.perf_counter()
        pieces = decode_auto_many([blobs[key] for _, key in wanted])
        for (ikey, _), piece in zip(wanted, pieces):
            idx = np.frombuffer(zlib.decompress(blobs[ikey]), dtype="<i8")
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
        chain = self.chain(var)
        target = state.level - 1
        with trace.span(
            "decode.refine", "restore", {"var": var, "level": target}
        ):
            timings = PhaseTimings()
            mapping = self._read_mapping(chain, target, timings)
            fine_mesh = self._read_mesh(chain, target, timings)

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

    def cache_key(
        self,
        var: str,
        level: int,
        *,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
    ) -> tuple:
        """:class:`RestoredLevelCache` key of one :meth:`restore_to` result.

        Content fingerprint, chain, level and the chain's filter
        signature: requests that keep the same chunks share it.
        """
        return RestoredLevelCache.key_for(
            self.dataset, var, level,
            signature=self.chain(var).filter_signature(
                self.dataset.catalog, level, region, min_significance
            ),
        )

    def resident(
        self,
        var: str,
        level: int,
        *,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
        use_cache: bool = False,
    ) -> bool:
        """Whether :meth:`restore_to` with the same arguments would be
        answered from the restored cache, reading no bytes (a peek: no
        counter or LRU order moves)."""
        return use_cache and get_restored_cache().has(
            self.cache_key(
                var, level, region=region, min_significance=min_significance
            )
        )

    def restore_to(
        self,
        var: str,
        level: int,
        *,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
        pipeline: bool = True,
        use_cache: bool = False,
    ) -> LevelData:
        """Restore from the base down to ``level`` (paper options 2/3).

        With ``pipeline=True`` (default) upcoming levels' byte ranges are
        hinted to the retrieval engine before each refinement, so the
        non-interactive path gets the same overlapped I/O charge as
        :class:`~repro.core.progressive.ProgressiveReader`; the restored
        field is bit-identical either way. ``use_cache=True`` additionally
        consults the process-wide :class:`RestoredLevelCache` under the
        chain's filter signature (:meth:`cache_key`): an exact hit
        returns immediately, else the nearest cached coarser state of
        the same walk warm-starts it, and every level restored on the
        way down is published back under its own prefix of the
        signature.

        ``region`` / ``min_significance`` apply at *every* refinement
        step. A filtered chain is not pipelined: the hints name whole
        levels, and the filter reads only the chunks it keeps.
        """
        filtered = region is not None or min_significance > 0.0
        with trace.span(
            "decode.restore", "restore",
            {"var": var, "level": level, "filtered": filtered},
        ):
            chain = self.chain(var)
            chain.scheme.validate_level(level)
            pipeline = pipeline and not filtered
            cache = get_restored_cache() if use_cache else None
            signature = (
                chain.filter_signature(
                    self.dataset.catalog, level, region, min_significance
                )
                if use_cache
                else ()
            )

            def key_at(lvl: int) -> tuple:
                return cache.key_for(
                    self.dataset, var, lvl,
                    signature=chain.signature_prefix(signature, lvl),
                )

            def publish(state: LevelData) -> None:
                if cache is not None:
                    mask = state.refined_mask
                    cache.put(
                        key_at(state.level),
                        state.field,
                        refined_mask=None if mask is None or mask.all() else mask,
                        last_delta_rms=state.last_delta_rms,
                    )

            state: LevelData | None = None
            if cache is not None:
                warm = cache.get(key_at(level)) or cache.nearest(
                    [
                        key_at(lvl)
                        for lvl in range(level + 1, chain.scheme.base_level + 1)
                    ]
                )
                if warm is not None:
                    timings = PhaseTimings()
                    mesh = self._read_mesh(chain, warm.level, timings)
                    state = LevelData(
                        var=var,
                        level=warm.level,
                        mesh=mesh,
                        field=warm.field.copy(),
                        timings=timings,
                        refined_mask=(
                            None
                            if warm.refined_mask is None
                            else warm.refined_mask.copy()
                        ),
                        last_delta_rms=warm.last_delta_rms,
                    )
                    if warm.level == level:
                        return state
            if state is None:
                prefetch_io = (
                    self.prefetch_base(var, level) if pipeline else 0.0
                )
                state = self.read_base(var)
                state.timings.io_seconds += prefetch_io
                publish(state)
            while state.level > level:
                prefetch_io = (
                    self.prefetch_window(var, state.level - 1, level)
                    if pipeline
                    else 0.0
                )
                state = self.refine(
                    state, region=region, min_significance=min_significance
                )
                state.timings.io_seconds += prefetch_io
                publish(state)
            return state

    def restore_many(
        self,
        variables,
        level: int = 0,
        *,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
        pipeline: bool = True,
        use_cache: bool = False,
    ) -> dict[str, LevelData]:
        """Restore several chains; ``{var: LevelData}``, one entry per
        distinct chain, each bit-identical to its :meth:`restore_to`.

        An unfiltered request first prefetches every non-resident chain's
        byte ranges as one overlapped batch, so the simulated I/O charge
        is that one batch; the chains then restore in order on the
        calling thread.
        """
        variables = list(dict.fromkeys(variables))
        if not variables:
            return {}
        with trace.span(
            "decode.restore_many", "restore",
            {"vars": len(variables), "level": level},
        ):
            trace.count("decode.restore_many.calls")
            trace.count("decode.restore_many.vars", len(variables))
            if region is None and not min_significance > 0.0:
                keys = [
                    key
                    for var in variables
                    if not self.resident(var, level, use_cache=use_cache)
                    for key in self.chain_keys(var, level)
                ]
                if keys:
                    self.dataset.prefetch(keys, label="restore_many")
            return {
                var: self.restore_to(
                    var, level,
                    region=region, min_significance=min_significance,
                    pipeline=pipeline, use_cache=use_cache,
                )
                for var in variables
            }
