"""Session-oriented read API: open once, then restore by name.

The object surface both in-process analytics and the HTTP read tier
(:mod:`repro.service`) share:

.. code-block:: python

    from repro.api import Session

    with Session(hierarchy) as session:
        campaign = session.open("fig9-multi")
        coarse = campaign.restore("dpot", level=2)
        state = campaign.restore("dpot", level=0)
        measured = campaign.restore("dpot", tolerance=1e-3)
        fields = campaign.restore_many(["dpot", "apar"], level=1)
        chunk_stats = campaign.stats("dpot", level=1)
        step3 = session.open("run").restore("dpot", step=3, level=0)
        whole = session.open("patches").gather("dpot")

Every restorable chain is addressed the same way: a single-shot
variable by name, one timestep of a ``write_campaign`` dataset by
``step=``, one patch of an ``encode_partitioned`` dataset by ``part=``
— data coordinates like ``level``, resolved to the chain's key prefix
in :func:`repro.core.layout.resolve` and nowhere else. The handle is
the one read entry point for every layout: several chains restore in
one prefetch batch (:meth:`CampaignHandle.restore_chains`), and
:meth:`CampaignHandle.gather` reassembles a partitioned variable.

A :class:`Session` owns retrieval configuration (range cache budget,
checksum policy, restored-cache use) and caches one
:class:`CampaignHandle` per dataset name. Each handle wraps an open
:class:`~repro.io.dataset.BPDataset` plus a
:class:`~repro.core.decoder.CanopusDecoder`, and restores every chain
as the session is configured (:meth:`CampaignHandle.restore_chain`):
with the prefetch pipeline and the process-wide restored-level/geometry
caches — two sessions (or two service tenants) restoring the same
content share one cache entry because keys are content-fingerprint
based, never handle identity. Stepping one variable through levels is
a restore per level: the restored cache warm-starts each from the
coarser one, so ``level=0`` after ``level=2`` reads only the deltas
between them.

All entry points beyond the positional name/variable are keyword-only.
"""

from __future__ import annotations

import threading
from typing import Iterable

import numpy as np

from repro.core import layout
from repro.core.decoder import CanopusDecoder, LevelData
from repro.core.notation import LevelScheme
from repro.core.restored_cache import dataset_fingerprint
from repro.errors import QueryError, RestorationError
from repro.io.dataset import BPDataset
from repro.mesh.partition import MeshPartition, gather_field
from repro.obs import trace
from repro.query import (
    QueryPlanner,
    blob_query,
    check_selection,
    normalize_region,
    stats_query,
)
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["CampaignHandle", "Session"]


class Session:
    """One configured connection to a storage hierarchy (read side).

    Parameters (all keyword-only) configure every dataset the session
    opens: ``cache_bytes`` (per-dataset range-cache budget),
    ``verify_checksums`` and ``use_restored_cache`` (consult/publish
    the process-wide restored cache). Every restore by level pipelines
    (:meth:`CanopusDecoder.walk`'s look-ahead). Datasets open with the
    default transports: the retrieval engine reads every range from its
    tier directly.
    """

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        *,
        cache_bytes: int = 64 << 20,
        verify_checksums: bool = True,
        use_restored_cache: bool = True,
    ) -> None:
        self.hierarchy = hierarchy
        self.cache_bytes = int(cache_bytes)
        self.verify_checksums = verify_checksums
        self.use_restored_cache = use_restored_cache
        self._handles: dict[str, CampaignHandle] = {}
        self._open_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def open(self, name: str) -> "CampaignHandle":
        """Open (or return the already-open handle to) one dataset."""
        if self._closed:
            raise RestorationError("session is closed")
        handle = self._handles.get(name)
        if handle is None:
            # Concurrent first opens of a name build one handle and open
            # the dataset once; readers of the map never take the lock.
            with self._open_lock:
                handle = self._handles.get(name)
                if handle is None:
                    dataset = BPDataset.open(
                        name,
                        self.hierarchy,
                        verify_checksums=self.verify_checksums,
                        cache_bytes=self.cache_bytes,
                    )
                    handle = CampaignHandle(self, name, dataset)
                    self._handles[name] = handle
        return handle

    @property
    def campaigns(self) -> list[str]:
        """Names of the datasets this session has open."""
        return sorted(self._handles)

    def stats(self) -> dict:
        """Aggregated engine/cache counters across open handles."""
        return {
            name: handle.dataset.engine_stats().snapshot()
            for name, handle in sorted(self._handles.items())
        }

    def close(self) -> None:
        """Close every open handle (idempotent)."""
        for handle in self._handles.values():
            handle.dataset.close()
        self._handles.clear()
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CampaignHandle:
    """Read handle to one open campaign/dataset.

    Produced by :meth:`Session.open`; do not construct directly. All
    retrieval methods are keyword-only past the variable name and are
    safe to call from multiple threads (the service's executor does).
    """

    def __init__(
        self, session: Session, name: str, dataset: BPDataset
    ) -> None:
        self.session = session
        self.name = name
        self.dataset = dataset
        self.decoder = CanopusDecoder(dataset, share_geometry=True)
        self._planner = None

    @property
    def planner(self):
        """Lazy accuracy-aware retrieval planner over this handle."""
        if self._planner is None:
            self._planner = QueryPlanner(self)
        return self._planner

    # -- metadata -------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the open catalog (cache/ETag identity)."""
        return dataset_fingerprint(self.dataset)

    def variables(self) -> list[str]:
        return self.decoder.variables()

    def scheme(self, var: str) -> LevelScheme:
        return layout.variable_scheme(self._meta(var))

    def keys(self) -> list[str]:
        return self.dataset.keys()

    def inq(self, key: str):
        return self.dataset.inq(key)

    def describe(self) -> dict:
        """JSON-ready campaign summary (the service's "open" payload)."""
        variables = {}
        for var in self.variables():
            scheme = self.scheme(var)
            meta = self._meta(var)
            variables[var] = {
                "num_levels": scheme.num_levels,
                "base_level": scheme.base_level,
                **{k: meta[k] for k in ("steps", "parts") if k in meta},
            }
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "variables": variables,
            "keys": len(self.dataset.catalog.records),
        }

    def _meta(self, var: str) -> dict:
        """The catalog's ``variables`` entry (404 for an unknown name)."""
        return layout.variable(self.dataset.catalog, var)

    def chain(
        self, var: str, *, step: int | None = None, part: int | None = None
    ) -> str:
        """Chain name of ``var`` at a step/part coordinate.

        The decoder, planner, caches and cursors all identify a chain by
        this string. Unknown variable/step/part →
        :class:`~repro.errors.VariableNotFoundError`; a coordinate the
        variable lacks or requires → :class:`~repro.errors.QueryError`.
        """
        return layout.resolve(self.dataset.catalog, var, step=step, part=part)

    # -- retrieval ------------------------------------------------------
    def restore(
        self,
        var: str,
        *,
        step: int | None = None,
        part: int | None = None,
        level: int | None = None,
        tolerance: float | None = None,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
    ) -> LevelData:
        """Restore one variable by level or by accuracy.

        ``step`` / ``part`` select the timestep of a campaign variable
        or the patch of a partitioned one (see :meth:`chain`); the
        returned ``LevelData.var`` is the chain name.

        Exactly one of ``level``/``tolerance`` may be given (neither
        means full accuracy, level 0). ``tolerance`` refines to the
        accuracy-aware endpoint of the progressive-retrieval framework:
        the :class:`~repro.query.QueryPlanner` certifies the stopping
        level from per-chunk summaries and fetches only the delta set
        that accuracy needs (datasets without summaries fall back to
        measuring each state of :meth:`CanopusDecoder.walk` — same
        result, level by level). ``region``/``min_significance``
        select focused / bounded-lossy retrieval and compose with both
        modes.

        Raises :class:`~repro.errors.QueryError` (a ``ValueError``
        mapping to HTTP 400) for ``tolerance <= 0`` or an empty
        ``region``, a NaN ``tolerance`` and a negative or NaN
        ``min_significance`` (:func:`~repro.query.check_selection`) —
        each previously degraded to a silent full-accuracy loop.
        """
        check_selection(level, tolerance, min_significance)
        chain = self.chain(var, step=step, part=part)
        region = normalize_region(region)
        if tolerance is not None:
            with trace.span(
                "session.restore", "session",
                {"campaign": self.name, "var": chain, "tolerance": tolerance},
            ):
                plan = self.planner.plan_restore(
                    chain,
                    tolerance=tolerance,
                    region=region,
                    min_significance=min_significance,
                )
                if plan.complete:
                    return self.planner.execute(plan)
                # No summaries to certify from: measure level by level,
                # past the restored cache (an exact level-0 hit would
                # answer finer than the tolerance stop). A NaN rms (the
                # filter kept nothing) never stops the walk. The walk may
                # stop at any level, so it looks no step ahead: it fetches
                # each level's keys only when it gets there.
                for state in self.decoder.walk(
                    chain, 0, region=region,
                    min_significance=min_significance, pipeline=False,
                ):
                    if state.last_delta_rms <= tolerance:
                        break
                return state
        level = 0 if level is None else int(level)
        with trace.span(
            "session.restore", "session",
            {"campaign": self.name, "var": chain, "level": level},
        ):
            return self.restore_chain(
                chain, level, region=region, min_significance=min_significance
            )

    def restore_chain(
        self, chain: str, level: int = 0, *, region=None,
        min_significance: float = 0.0,
    ) -> LevelData:
        """Restore one :meth:`chain` to ``level``, pipelined and with the
        session's ``use_restored_cache``: the restore :meth:`restore` by
        level and pushdown fallbacks end in."""
        return self.decoder.restore_to(
            chain, level, region=region, min_significance=min_significance,
            use_cache=self.session.use_restored_cache,
        )

    def restore_chains(
        self, chains: Iterable[str], level: int = 0, *, region=None,
        min_significance: float = 0.0,
    ) -> dict[str, LevelData]:
        """Batch form of :meth:`restore_chain`: ``{chain: LevelData}``,
        one entry per distinct chain. One prefetch batch, then each chain
        on the calling thread (:meth:`CanopusDecoder.restore_many`);
        an executed plan is a batch of one."""
        check_selection(min_significance=min_significance)
        return self.decoder.restore_many(
            chains, level, region=region, min_significance=min_significance,
            use_cache=self.session.use_restored_cache,
        )

    def restore_many(
        self,
        variables: Iterable[str],
        *,
        step: int | None = None,
        level: int = 0,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
    ) -> dict[str, LevelData]:
        """Multi-variable restore (``{var: LevelData}``); ``step``
        applies to every listed variable (:meth:`restore_chains`)."""
        variables = list(variables)
        chains = [self.chain(var, step=step) for var in variables]
        with trace.span(
            "session.restore_many", "session",
            {"campaign": self.name, "vars": len(variables), "level": level},
        ):
            restored = self.restore_chains(
                chains, level,
                region=region, min_significance=min_significance,
            )
        return {var: restored[chain] for var, chain in zip(variables, chains)}

    def gather(self, var: str) -> np.ndarray:
        """The exact level-0 global field of a partitioned ``var``.

        Every patch restores in one :meth:`restore_chains` batch; the
        owned vertices then go back to the global order
        (:func:`~repro.mesh.partition.gather_field`). A variable stored
        without parts is :class:`~repro.errors.QueryError`.
        """
        meta = self._meta(var)
        if "parts" not in meta:
            raise QueryError(f"variable {var!r} has no parts")
        parts = range(int(meta["parts"]))
        restored = self.restore_chains(
            [self.chain(var, part=p) for p in parts]
        ).values()
        partitions = [
            MeshPartition(
                index=p,
                mesh=state.mesh,
                global_vertices=np.asarray(
                    meta["global_vertices"][str(p)], dtype=np.int64
                ),
                owned=np.asarray(meta["owned"][str(p)], dtype=bool),
            )
            for p, state in zip(parts, restored)
        ]
        return gather_field(
            partitions, [state.field for state in restored],
            int(meta["num_global_vertices"]),
        )

    # -- accuracy-aware queries ----------------------------------------
    def plan(
        self,
        var: str,
        *,
        step: int | None = None,
        part: int | None = None,
        level: int | None = None,
        tolerance: float | None = None,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
    ):
        """Build (without executing) the retrieval plan for a restore.

        Metadata-only: returns the explainable
        :class:`~repro.query.RetrievalPlan` that :meth:`restore` would
        execute — which products it will fetch, which it proved it can
        skip, and the certified target level.
        """
        return self.planner.plan_restore(
            self.chain(var, step=step, part=part),
            level=level,
            tolerance=tolerance,
            region=region,
            min_significance=min_significance,
        )

    def query_stats(
        self, var: str, *, step: int | None = None, region=None
    ) -> dict:
        """Pushdown aggregate statistics (see :func:`repro.query.stats_query`)."""
        return stats_query(self, self.chain(var, step=step), region=region)

    def query_blobs(
        self, var: str, *, threshold: float, step: int | None = None,
        region=None, shape: tuple[int, int] = (128, 128),
    ) -> dict:
        """Pushdown blob detection (see :func:`repro.query.blob_query`)."""
        return blob_query(
            self, self.chain(var, step=step), threshold=threshold,
            region=region, shape=shape,
        )

    # -- near-data summaries -------------------------------------------
    def stats(
        self, var: str | None = None, *, level: int | None = None
    ) -> list[dict]:
        """Per-chunk summary statistics straight from the catalog.

        Returns one row per stored product carrying encoder-recorded
        value stats (min/max/|max|) — the OASIS-style pushdown surface:
        predicates evaluate against these without restoring any field.
        """
        if var is not None:
            self._meta(var)
        rows = []
        for key in self.dataset.keys():
            rec = self.dataset.inq(key)
            if var is not None and not (
                rec.key == var or rec.key.startswith(f"{var}/")
            ):
                continue
            if level is not None and rec.level != level:
                continue
            stats = rec.attrs.get("stats")
            if stats is None:
                continue
            rows.append(
                {
                    "key": rec.key,
                    "kind": rec.kind,
                    "level": rec.level,
                    "bytes": rec.length,
                    "stats": dict(stats),
                }
            )
        return rows

    # -- raw bytes ------------------------------------------------------
    def read_raw(
        self, key: str, *, start: int = 0, length: int | None = None
    ) -> bytes:
        """Range-read one stored product's (compressed) bytes.

        ``start``/``length`` select a sub-range of the payload (the
        delta-download endpoint); the full payload still flows through
        the retrieval engine, so repeated ranged reads of one product
        hit the range cache instead of the tier.
        """
        rec = self.dataset.inq(key)
        if start < 0 or start > rec.length:
            raise RestorationError(
                f"range start {start} outside [0, {rec.length}]"
            )
        blob = self.dataset.read(key)
        if length is None:
            return blob[start:]
        if length < 0:
            raise RestorationError("range length must be >= 0")
        return blob[start : start + length]

    def close(self) -> None:
        self.dataset.close()
        self.session._handles.pop(self.name, None)


class CampaignReader:
    """Step view ``CampaignReader(h, name).restore(step, target_level)``
    over ``Session(h, use_restored_cache=False)``. It exists only for
    ``benchmarks/perf/workloads.py:302`` and goes once ROADMAP item 1
    moves that line to :meth:`Session.open`."""

    def __init__(self, hierarchy: StorageHierarchy, name: str) -> None:
        self.handle = Session(hierarchy, use_restored_cache=False).open(name)
        self.var, _ = layout.find_variable(
            self.handle.dataset.catalog, "steps", "campaign"
        )

    def restore(self, step: int, target_level: int = 0) -> LevelData:
        return self.handle.restore(self.var, step=step, level=target_level)
