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
from typing import Iterator

import numpy as np

from repro.compress import decode_auto, decode_auto_many
from repro.core.delta import apply_delta
from repro.core.layout import Chain, chains
from repro.core.mapping import LevelMapping
from repro.core.notation import LevelScheme
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

#: Steps a pipelined walk fetches ahead of the one it is decoding
#: (:meth:`CanopusDecoder.walk`).
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

    def _undecoded(self, keys: list[str]) -> list[str]:
        """Stored geometry keys not yet in an object cache."""
        shared = get_geometry_cache() if self.share_geometry else None
        return [
            k
            for k in self._stored(keys)
            if k not in self._geometry
            and not (shared is not None and shared.has(self.dataset, k))
        ]

    def step_keys(
        self, var: str, step: int, *, region=None, min_significance: float = 0.0
    ) -> list[str]:
        """Catalog keys the walk reads to produce the state at ``step``.

        The base step reads the base and its mesh; a delta step reads
        the level's mapping and mesh, and the delta itself: whole, or
        the index + payload of each chunk :meth:`Chain.chunk_verdicts`
        keeps under the filter. Geometry already decoded into an object
        cache is left out, so the keys are what the step would fetch.
        """
        chain = self.chain(var)
        if step == chain.scheme.base_level:
            return self._stored([chain.base_key]) + self._undecoded(
                [chain.mesh_key(step)]
            )
        keys = self._undecoded(chain.geometry_keys(step))
        if not chain.chunked:
            return keys + self._stored([chain.delta_key(step)])
        return keys + [
            key
            for c, rec, skip in chain.chunk_verdicts(
                self.dataset.catalog, step, region, min_significance
            )
            if skip is None
            for key in (chain.idx_key(step, c), rec.key)
        ]

    def chain_keys(
        self, var: str, level: int, *, top: int | None = None, region=None,
        min_significance: float = 0.0,
    ) -> list[str]:
        """Every catalog key a restore to ``level`` reads: the
        :meth:`step_keys` of each step from ``top`` (the base by default)
        down to ``level``."""
        if top is None:
            top = self.chain(var).scheme.base_level
        return [
            key
            for step in range(top, level - 1, -1)
            for key in self.step_keys(
                var, step, region=region, min_significance=min_significance
            )
        ]

    def _fetch(self, owners: dict[str, str], label: str) -> dict[str, float]:
        """Fetch ``{key: chain}`` as one engine batch; return each
        chain's share of the simulated charge.

        A chain's share is in proportion to the bytes of its keys (list
        a key two chains share once, under the first), so the shares sum
        to what the clock moved. Cached ranges are skipped by the engine:
        a batch that is already resident charges nothing.
        """
        if not owners:
            return {}
        before = self._clock.elapsed
        with trace.span(
            "decode.prefetch", "pipeline",
            {"label": label, "keys": len(owners)},
        ):
            self.dataset.prefetch(list(owners), label=label)
        charge = self._clock.elapsed - before
        nbytes = dict.fromkeys(owners.values(), 0)
        for key, var in owners.items():
            nbytes[var] += self.dataset.inq(key).length
        total = sum(nbytes.values()) or 1
        return {var: charge * n / total for var, n in nbytes.items()}

    # ------------------------------------------------------------------
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
            flat = decode_auto(blob)
            timings.decompress_seconds += time.perf_counter() - t0
            mesh = self._read_mesh(chain, base_level, timings)
            planes = chain.planes
            if planes is None:  # not recorded: count the base's planes
                planes = flat.size // mesh.num_vertices
                planes = planes if planes > 1 else 0
            field_ = flat.reshape(planes, -1) if planes else flat
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
        *,
        planes: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Read (possibly chunked) delta; returns (delta, applied_mask).

        The delta is ``(planes, n_fine)``, or ``(n_fine,)`` when
        ``planes`` is 0: the shape of the state it refines.
        ``region=(lo_xy, hi_xy)`` and ``min_significance`` skip spatial
        chunks by :meth:`Chain.chunk_verdicts` (focused / bounded-lossy
        retrieval — only effective when the variable was encoded with
        spatial chunks).
        """
        chain = self.chain(var)
        if not chain.chunked:
            blob = self._timed_read(chain.delta_key(level), timings)
            t0 = time.perf_counter()
            delta = decode_auto(blob)
            delta = delta.reshape(planes, -1) if planes else delta
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

            planes = state.field.shape[0] if state.field.ndim == 2 else 0
            delta, applied = self._read_delta(
                var, target, mapping.n_fine, timings, window, min_significance,
                planes=planes,
            )
            t0 = time.perf_counter()
            field_ = apply_delta(state.field, delta, mapping)
            timings.restore_seconds += time.perf_counter() - t0
            # NaN (not 0.0) when no chunk survived the region/significance
            # filter: "nothing was read" must not look like "the delta
            # converged", or a tolerance stop would fire spuriously.
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
        return self._state_keys(var, level, region, min_significance)(level)

    def _state_keys(self, var: str, level: int, region, min_significance):
        """``key_at(lvl)``: the :class:`RestoredLevelCache` key of the
        state a walk to ``level`` passes at ``lvl``, under the prefix of
        its filter signature that applies there."""
        chain = self.chain(var)
        signature = chain.filter_signature(
            self.dataset.catalog, level, region, min_significance
        )

        def key_at(lvl: int) -> tuple:
            return RestoredLevelCache.key_for(
                self.dataset, var, lvl,
                signature=chain.signature_prefix(signature, lvl),
            )

        return key_at

    def warm_level(
        self,
        var: str,
        level: int,
        *,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
        use_cache: bool = False,
    ) -> int | None:
        """The level of the restored-cache state :meth:`walk` with the
        same arguments starts from (``level`` when the result itself is
        resident), or ``None`` when it starts at the base. A peek: no
        counter or LRU order moves."""
        if not use_cache:
            return None
        key_at = self._state_keys(var, level, region, min_significance)
        cache = get_restored_cache()
        return next(
            (
                lvl
                for lvl in range(level, self.chain(var).scheme.base_level + 1)
                if cache.has(key_at(lvl))
            ),
            None,
        )

    def walk(
        self,
        var: str,
        level: int = 0,
        *,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
        pipeline: bool = True,
        use_cache: bool = False,
    ) -> Iterator[LevelData]:
        """Paper Alg. 3 step by step: yield every state down to ``level``.

        The first state is the base, or with ``use_cache=True`` the
        nearest state of the same walk in the process-wide
        :class:`RestoredLevelCache` (keyed by the chain's filter
        signature, :meth:`cache_key`); each later state applies one
        delta, and with ``use_cache`` is published under its own prefix
        of the signature. A caller may stop at any state (a tolerance or
        a blob count that stopped changing): the walk charges and
        decodes a level only when asked for it.

        On reaching a step the walk fetches its :meth:`step_keys` as
        one engine batch, unless a look-ahead already issued them. With
        ``pipeline=True`` it also issues the next :data:`LOOKAHEAD`
        steps' keys, never below ``level``, as one more batch;
        ``pipeline=False`` looks no step ahead. Both charges land in the
        step's I/O phase, and the fields are bit-identical either way.
        ``region`` / ``min_significance`` apply at *every* step, and the
        keys name only the chunks the filter keeps.
        """
        chain = self.chain(var)
        chain.scheme.validate_level(level)
        filters = {"region": region, "min_significance": min_significance}
        cache = get_restored_cache() if use_cache else None
        key_at = (
            self._state_keys(var, level, region, min_significance)
            if use_cache
            else None
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

        warm = None
        if cache is not None:
            warm = cache.get(key_at(level)) or cache.nearest(
                [
                    key_at(lvl)
                    for lvl in range(level + 1, chain.scheme.base_level + 1)
                ]
            )
        # Steps at or above ``issued`` are fetched (or, warm, not needed).
        issued = chain.scheme.base_level + 1 if warm is None else warm.level

        def fetch(top: int, floor: int) -> float:
            """Steps ``top`` down to ``floor`` not yet issued, as one
            batch; sim seconds."""
            nonlocal issued
            steps = range(min(top, issued - 1), floor - 1, -1)
            issued = min(issued, floor)
            keys = [
                key for step in steps
                for key in self.step_keys(var, step, **filters)
            ]
            return self._fetch(dict.fromkeys(keys, var), f"{var}:{top}").get(
                var, 0.0
            )

        def ahead(step: int) -> float:
            """The look-ahead batch issued beside ``step``."""
            if not pipeline:
                return 0.0
            return fetch(step - 1, max(level, step - LOOKAHEAD))

        if warm is not None:
            timings = PhaseTimings()
            mesh = self._read_mesh(chain, warm.level, timings)
            timings.io_seconds += ahead(warm.level)
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
        else:
            base = chain.scheme.base_level
            io = fetch(base, base) + ahead(base)
            state = self.read_base(var)
            state.timings.io_seconds += io
            publish(state)
        yield state
        while state.level > level:
            step = state.level - 1
            io = fetch(step, step) + ahead(step)
            state = self.refine(state, **filters)
            state.timings.io_seconds += io
            publish(state)
            yield state

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
        """Restore down to ``level`` (paper options 2/3): the last state
        of :meth:`walk` with the same arguments."""
        filtered = region is not None or min_significance > 0.0
        with trace.span(
            "decode.restore", "restore",
            {"var": var, "level": level, "filtered": filtered},
        ):
            for state in self.walk(
                var, level,
                region=region, min_significance=min_significance,
                pipeline=pipeline, use_cache=use_cache,
            ):
                pass
            return state

    def restore_many(
        self,
        variables,
        level: int = 0,
        *,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
        use_cache: bool = False,
    ) -> dict[str, LevelData]:
        """Restore several chains; ``{var: LevelData}``, one entry per
        distinct chain, each bit-identical to its :meth:`restore_to`.

        The :meth:`chain_keys` of every chain, filtered or not, are
        fetched first as one overlapped batch, each from the step below
        the state its walk starts from (:meth:`warm_level`), so the
        simulated I/O charge is that one batch and a resident state's
        own keys are never read; the chains then restore in order
        on the calling thread. Each chain's ``timings.io_seconds``
        carries the batch's charge in proportion to its bytes in the
        batch (a key two chains share counts once, for the first), so
        the timings sum to what the clock moved.
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
            owners: dict[str, str] = {}
            for var in variables:
                warm = self.warm_level(
                    var, level, region=region,
                    min_significance=min_significance, use_cache=use_cache,
                )
                for key in self.chain_keys(
                    var, level, top=None if warm is None else warm - 1,
                    region=region, min_significance=min_significance,
                ):
                    owners.setdefault(key, var)
            share = self._fetch(owners, "restore_many")
            restored = {}
            for var in variables:
                state = self.restore_to(
                    var, level,
                    region=region, min_significance=min_significance,
                    use_cache=use_cache,
                )
                state.timings.io_seconds += share.get(var, 0.0)
                restored[var] = state
            return restored
