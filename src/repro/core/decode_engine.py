"""Read-side decode engine (the write path's mirror).

A :class:`DecodeEngine` wraps one open dataset and restores *many*
variables (or one variable many times) for the paper's analytics loop
(Fig. 1 right, Alg. 3). Every restore fetches, verifies and decodes on
the calling thread; the data node's executor is the read side's one
thread pool (``docs/retrieval.md``, "One read-side executor").

* **One batch** — ``restore_many()`` hints every chain's byte ranges to
  the retrieval engine as one overlapped batch, then restores the
  variables in order. The simulated I/O charge is that one batch, so
  it is deterministic.
* **Shared caches** — the engine turns on the process-wide
  :class:`~repro.core.restored_cache.GeometryCache` (each mesh/mapping
  decoded once per dataset content, not once per decoder) and
  :class:`~repro.core.restored_cache.RestoredLevelCache` (a second
  session asking for an already-restored (var, level) gets it back with
  zero I/O; a finer request warm-starts from the closest cached level).
* **Batched chunk decode** — the underlying
  :class:`~repro.core.decoder.CanopusDecoder` decodes the spatial chunks
  of one delta in a single vectorised kernel call (disjoint vertex sets,
  so the scatter is order-independent).

Results are bit-identical to the serial seed path: the batch changes
*when* bytes move, never what is applied.

Filtered retrieval (``region`` / ``min_significance``) composes with
``restore_many``; a filtered chain is cached under the chunks its
filter keeps (:meth:`CanopusDecoder.cache_key`), so it is only ever
substituted for a request that applies the same deltas, and the upfront
prefetch is skipped for it (the hints name whole levels — same rule as
:class:`~repro.core.progressive.ProgressiveReader`).
"""

from __future__ import annotations

import numpy as np

from repro.core.decoder import CanopusDecoder, LevelData
from repro.core.restored_cache import dataset_fingerprint, get_restored_cache
from repro.io.dataset import BPDataset
from repro.obs import trace

__all__ = ["DecodeEngine"]


class DecodeEngine:
    """Multi-variable restore over one open dataset.

    Parameters
    ----------
    dataset:
        The open dataset to decode from.
    use_restored_cache:
        Consult/publish the process-wide restored-level cache.
    pipeline:
        Forwarded to :meth:`CanopusDecoder.restore_to` — charge the next
        levels as one overlapped batch before the current delta decodes.
    """

    def __init__(
        self,
        dataset: BPDataset,
        *,
        use_restored_cache: bool = True,
        pipeline: bool = True,
    ) -> None:
        self.dataset = dataset
        self.use_restored_cache = use_restored_cache
        self.pipeline = pipeline
        self.decoder = CanopusDecoder(dataset, share_geometry=True)
        #: Content fingerprint of the open catalog. Restored-cache keys
        #: (:meth:`CanopusDecoder.cache_key`) carry this string — the
        #: tenant-visible content identity — never handle identity, so
        #: any two engines (sessions, service tenants) over the same
        #: bytes share restored-level entries.
        self.fingerprint = dataset_fingerprint(dataset)

    # ------------------------------------------------------------------
    def resident(
        self,
        var: str,
        level: int,
        *,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
    ) -> bool:
        """Whether :meth:`restore` would be answered from the restored
        cache, reading no bytes (a peek: no counter or LRU order moves)."""
        return self.use_restored_cache and get_restored_cache().has(
            self.decoder.cache_key(
                var, level, region=region, min_significance=min_significance
            )
        )

    def variables(self) -> list[str]:
        return self.decoder.variables()

    # ------------------------------------------------------------------
    def restore(
        self,
        var: str,
        level: int = 0,
        *,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
    ) -> LevelData:
        """Restore one chain to ``level`` (cached, pipelined).

        ``var`` is a chain name (see :class:`CanopusDecoder`).
        """
        with trace.span(
            "decode.restore", "restore",
            {"var": var, "level": level,
             "filtered": region is not None or min_significance > 0.0},
        ):
            return self.decoder.restore_to(
                var,
                level,
                region=region,
                min_significance=min_significance,
                pipeline=self.pipeline,
                use_cache=self.use_restored_cache,
            )

    def restore_many(
        self,
        variables,
        level: int = 0,
        *,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float = 0.0,
    ) -> dict[str, LevelData]:
        """Restore several variables; ``{var: LevelData}``.

        Bit-identical to calling :meth:`restore` for each variable. For
        unfiltered requests every chain's byte ranges are prefetched as
        one overlapped batch first, so the simulated I/O charge is that
        one batch; the variables are then restored on the calling thread.
        """
        variables = list(variables)
        if not variables:
            return {}
        filtered = region is not None or min_significance > 0.0
        with trace.span(
            "decode.restore_many", "restore",
            {"vars": len(variables), "level": level},
        ):
            trace.count("decode.restore_many.calls")
            trace.count("decode.restore_many.vars", len(variables))
            if not filtered:
                keys: list[str] = []
                for var in variables:
                    if not self.resident(var, level):  # else: no bytes needed
                        keys.extend(self.decoder.chain_keys(var, level))
                if keys:
                    self.dataset.prefetch(
                        keys, label="decode_engine:restore_many"
                    )
            return {
                var: self.restore(
                    var, level,
                    region=region, min_significance=min_significance,
                )
                for var in variables
            }
