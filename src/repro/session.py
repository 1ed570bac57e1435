"""Session-oriented read API: open once, then restore by name.

The object surface both in-process analytics and the HTTP read tier
(:mod:`repro.service`) share:

.. code-block:: python

    from repro.api import Session

    with Session(hierarchy) as session:
        campaign = session.open("fig9-multi")
        state = campaign.restore("dpot", level=0)
        coarse = campaign.restore("dpot", tolerance=1e-3)
        fields = campaign.restore_many(["dpot", "apar"], level=1)
        chunk_stats = campaign.stats("dpot", level=1)
        step3 = session.open("run").restore("dpot", step=3, level=0)

Every restorable chain is addressed the same way: a single-shot
variable by name, one timestep of a ``write_campaign`` dataset by
``step=``, one patch of an ``encode_partitioned`` dataset by ``part=``
— data coordinates like ``level``, resolved to the chain's key prefix
in :func:`repro.core.layout.resolve` and nowhere else.

A :class:`Session` owns retrieval configuration (engine width, range
cache budget, checksum policy) and caches one :class:`CampaignHandle`
per dataset name. Each handle wraps an open
:class:`~repro.io.dataset.BPDataset` plus a
:class:`~repro.core.decode_engine.DecodeEngine`, so every restore gets
the engine's prefetch pipeline and the process-wide
restored-level/geometry caches — two sessions (or two service tenants)
restoring the same content share one cache entry because keys are
content-fingerprint based, never handle identity.

All entry points beyond the positional name/variable are keyword-only.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core import layout
from repro.core.decode_engine import DecodeEngine
from repro.core.decoder import LevelData
from repro.core.notation import LevelScheme
from repro.core.progressive import ProgressiveReader
from repro.core.restored_cache import dataset_fingerprint
from repro.errors import RestorationError
from repro.io.dataset import BPDataset
from repro.obs import trace
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["CampaignHandle", "Session"]


class Session:
    """One configured connection to a storage hierarchy (read side).

    Parameters (all keyword-only) configure every dataset the session
    opens: ``cache_bytes`` (per-dataset range-cache budget),
    ``verify_checksums``, ``use_restored_cache`` (consult/publish the
    process-wide restored cache), ``pipeline`` (prefetch pipelining),
    and ``transports`` (tier-name → transport override).
    """

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        *,
        cache_bytes: int = 64 << 20,
        verify_checksums: bool = True,
        use_restored_cache: bool = True,
        pipeline: bool = True,
        transports=None,
    ) -> None:
        self.hierarchy = hierarchy
        self.cache_bytes = int(cache_bytes)
        self.verify_checksums = verify_checksums
        self.use_restored_cache = use_restored_cache
        self.pipeline = pipeline
        self.transports = transports
        self._handles: dict[str, CampaignHandle] = {}
        self._closed = False

    # ------------------------------------------------------------------
    def open(self, name: str) -> "CampaignHandle":
        """Open (or return the already-open handle to) one dataset."""
        if self._closed:
            raise RestorationError("session is closed")
        handle = self._handles.get(name)
        if handle is None:
            dataset = BPDataset.open(
                name,
                self.hierarchy,
                transports=self.transports,
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
        self.engine = DecodeEngine(
            dataset,
            use_restored_cache=session.use_restored_cache,
            pipeline=session.pipeline,
        )
        self._planner = None

    @property
    def planner(self):
        """Lazy accuracy-aware retrieval planner over this handle."""
        if self._planner is None:
            from repro.query import QueryPlanner

            self._planner = QueryPlanner(self.engine)
        return self._planner

    # -- metadata -------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the open catalog (cache/ETag identity)."""
        return dataset_fingerprint(self.dataset)

    def variables(self) -> list[str]:
        return self.engine.variables()

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

        The engine, planner, caches and cursors all identify a chain by
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
        the measure-as-you-go progressive loop — same result, level by
        level). ``region``/``min_significance`` select focused /
        bounded-lossy retrieval and compose with both modes.

        Raises :class:`~repro.errors.QueryError` (a ``ValueError``
        mapping to HTTP 400) for ``tolerance <= 0`` or an empty
        ``region`` — both previously degraded to a silent
        full-accuracy loop.
        """
        chain = self.chain(var, step=step, part=part)
        if level is not None and tolerance is not None:
            raise RestorationError(
                "restore takes level or tolerance, not both"
            )
        if region is not None:
            from repro.query import normalize_region

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
                # No summaries to certify from: measure level by level.
                reader = ProgressiveReader(
                    self.engine.decoder,
                    chain,
                    pipeline=self.session.pipeline,
                    min_significance=min_significance,
                )
                return reader.refine_until(
                    rms_tolerance=tolerance, max_level=0, region=region
                )
        with trace.span(
            "session.restore", "session",
            {"campaign": self.name, "var": chain,
             "level": 0 if level is None else int(level)},
        ):
            return self.engine.restore(
                chain,
                0 if level is None else int(level),
                region=region,
                min_significance=min_significance,
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
        """Concurrent multi-variable restore (``{var: LevelData}``).

        ``step`` applies to every listed variable.
        """
        variables = list(variables)
        chains = [self.chain(var, step=step) for var in variables]
        with trace.span(
            "session.restore_many", "session",
            {"campaign": self.name, "vars": len(variables), "level": level},
        ):
            restored = self.engine.restore_many(
                chains, level,
                region=region, min_significance=min_significance,
            )
        return {var: restored[chain] for var, chain in zip(variables, chains)}

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
        from repro.query import stats_query

        return stats_query(
            self.engine, self.chain(var, step=step), region=region
        )

    def query_blobs(
        self, var: str, *, threshold: float, step: int | None = None,
        region=None, shape: tuple[int, int] = (128, 128),
    ) -> dict:
        """Pushdown blob detection (see :func:`repro.query.blob_query`)."""
        from repro.query import blob_query

        return blob_query(
            self.engine, self.chain(var, step=step), threshold=threshold,
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
