"""In-storage predicate evaluation over per-chunk summaries.

OASIS-style analytics offloading: statistics and blob-count predicates
execute *inside the data node* against the catalog's per-chunk
summaries, so a query over a pruned region never restores a full field
— often it touches no payload bytes at all.

Two query shapes:

* :func:`stats_query` — min/max/mean/RMS/count of a variable over an
  optional region, answered from the encoder's ``field_stats``
  summaries (the whole-variable summary for unbounded queries, the
  count-weighted merge of intersecting level-0 chunk summaries for
  windowed ones). **Region semantics are chunk-granular**: a windowed
  aggregate covers every vertex of each chunk whose bounding box
  intersects the window. Datasets without summaries fall back to a
  restore-and-reduce (reported via ``"pushdown": false``).
* :func:`blob_query` — bright-blob detection over a region. Chunk
  summaries prune first: chunks whose recorded field maximum cannot
  reach the threshold are discarded, and when *no* chunk survives the
  answer is "zero blobs" with **zero restores**. Otherwise a single
  focused (region-filtered) restore feeds the paper's raster + blob
  detector over the window only.

Both report what they pruned, and bump ``query.pushdown.*`` /
``query.pruned_chunks`` counters.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.blob import BlobDetectorParams, detect_blobs
from repro.analytics.raster import RasterSpec, rasterize
from repro.errors import QueryError
from repro.io.query import ChunkStats
from repro.obs import trace
from repro.query.planner import _bump, normalize_region

__all__ = ["stats_query", "blob_query"]


def _field_stats(attrs: dict) -> ChunkStats | None:
    raw = attrs.get("field_stats")
    return None if raw is None else ChunkStats(**raw)


def _level0_chunks(handle, var: str, window) -> list:
    """Level-0 delta chunk records as ``(record, inside_window)`` pairs
    (each carries its original-field summary and bbox; together they
    partition the full-accuracy mesh). Empty for unchunked variables."""
    chain = handle.decoder.chain(var)
    if not chain.chunked:
        return []
    return [
        (rec, outside is None)
        for _, rec, outside in chain.chunk_verdicts(
            handle.dataset.catalog, 0, window
        )
    ]


def _region_mask(mesh, window) -> np.ndarray:
    v = np.asarray(mesh.vertices, dtype=np.float64)
    lo, hi = window
    return (
        (v[:, 0] >= lo[0]) & (v[:, 0] <= hi[0])
        & (v[:, 1] >= lo[1]) & (v[:, 1] <= hi[1])
    )


def _stats_row(stats: ChunkStats) -> dict:
    return {
        "vmin": stats.vmin,
        "vmax": stats.vmax,
        "vabs_max": stats.vabs_max,
        "mean": stats.mean,
        "rms": stats.rms,
        "count": stats.count,
    }


# ---------------------------------------------------------------------------
def stats_query(handle, var: str, *, region=None) -> dict:
    """Aggregate statistics of chain ``var`` of a
    :class:`~repro.session.CampaignHandle` (optionally over a region).

    Answered from catalog summaries whenever they exist — zero payload
    I/O, zero restores. The response records how it was answered:
    ``pushdown`` (summaries vs. restore fallback), ``restores`` (0 on
    the pushdown path), and chunk pruning counts for windowed queries.
    """
    window = normalize_region(region)
    meta = handle.decoder.chain(var).meta
    _bump("query.pushdown.stats_calls")
    with trace.span(
        "query.pushdown.stats", "query",
        {"var": var, "windowed": window is not None},
    ):
        result = {
            "var": var,
            "region": None if window is None else (
                [float(v) for v in window[0]],
                [float(v) for v in window[1]],
            ),
            "granularity": "exact" if window is None else "chunk",
            "restores": 0,
            "chunks": 0,
            "pruned_chunks": 0,
        }
        if window is None:
            whole = _field_stats(meta)
            if whole is not None:
                _bump("query.pushdown.summary_hits")
                result.update(pushdown=True, stats=_stats_row(whole))
                return result
        else:
            records = _level0_chunks(handle, var, window)
            if records:
                hits = [rec for rec, inside in records if inside]
                pruned = len(records) - len(hits)
                parts = [_field_stats(r.attrs) for r in hits]
                if all(p is not None for p in parts):
                    _bump("query.pushdown.summary_hits")
                    _bump("query.pruned_chunks", pruned)
                    merged = ChunkStats.merge(parts)
                    result.update(
                        pushdown=True,
                        chunks=len(hits),
                        pruned_chunks=pruned,
                        stats=_stats_row(merged),
                    )
                    return result

        # Fallback: datasets written before summaries existed. Restore
        # the full field once and reduce exactly over the window.
        _bump("query.pushdown.fallback_restores")
        state = handle.restore_chain(var, 0)
        values = state.field
        if window is not None:
            mask = _region_mask(state.mesh, window)
            values = values[..., mask]
            result["granularity"] = "exact"
        result.update(
            pushdown=False,
            restores=1,
            stats=_stats_row(ChunkStats.of(values)),
        )
        return result


# ---------------------------------------------------------------------------
def blob_query(
    handle,
    var: str,
    *,
    threshold: float,
    region=None,
    shape: tuple[int, int] = (128, 128),
    params: BlobDetectorParams | None = None,
) -> dict:
    """Count/locate bright blobs of chain ``var`` of a
    :class:`~repro.session.CampaignHandle` above a field-value threshold.

    Summary pruning first: a chunk whose recorded field maximum is below
    ``threshold`` provably contains no blob pixel, so a window where
    every chunk is pruned answers "no blobs" without restoring anything.
    Surviving windows pay one *focused* restore (delta chunks outside
    the window are never read) and run the paper's raster + blob
    detector over the window only. Blob centers come back in world
    coordinates (pixel-center mapping of the raster grid).
    """
    if np.isnan(threshold):  # would reach the detector as a NaN range
        raise QueryError("blob threshold must be a number, not NaN")
    window = normalize_region(region)
    _bump("query.pushdown.blob_calls")
    with trace.span(
        "query.pushdown.blobs", "query",
        {"var": var, "threshold": threshold,
         "windowed": window is not None},
    ):
        meta = handle.decoder.chain(var).meta
        result = {
            "var": var,
            "threshold": float(threshold),
            "region": None if window is None else (
                [float(v) for v in window[0]],
                [float(v) for v in window[1]],
            ),
            "restores": 0,
            "candidate_chunks": 0,
            "pruned_chunks": 0,
            "count": 0,
            "blobs": [],
        }
        records = _level0_chunks(handle, var, window)
        candidates = []
        if records:
            for rec, inside in records:
                if not inside:
                    continue
                fs = _field_stats(rec.attrs)
                if fs is not None and fs.vmax < threshold:
                    continue  # provably below threshold everywhere
                candidates.append(rec)
            pruned = len(records) - len(candidates)
            result["candidate_chunks"] = len(candidates)
            result["pruned_chunks"] = pruned
            _bump("query.pruned_chunks", pruned)
            if not candidates:
                # Every chunk pruned from summaries: zero payload bytes,
                # zero restores, provably zero blobs.
                _bump("query.pushdown.summary_hits")
                result["pushdown"] = True
                return result
        else:
            whole = _field_stats(meta)
            if whole is not None and whole.vmax < threshold:
                _bump("query.pushdown.summary_hits")
                result["pushdown"] = True
                return result

        # Window (or whole domain) may contain blobs: one focused
        # restore, rasterize the window, detect.
        _bump("query.pushdown.blob_restores")
        state = handle.restore_chain(var, 0, region=window)
        result["restores"] = 1
        result["pushdown"] = bool(result["pruned_chunks"])
        if window is None:
            lo, hi = state.mesh.bounding_box()
        else:
            lo, hi = window
        whole = _field_stats(meta)
        field = np.asarray(state.plane(0), dtype=np.float64)
        vmin = whole.vmin if whole is not None else float(field.min())
        vmax = whole.vmax if whole is not None else float(field.max())
        if vmax <= vmin:
            vmax = vmin + 1.0
        spec = RasterSpec(
            shape=tuple(shape),
            bounds=(tuple(float(v) for v in lo), tuple(float(v) for v in hi)),
            vmin=vmin,
            vmax=vmax,
        )
        image = rasterize(state.mesh, field, spec)
        if params is None:
            # Field-value threshold → intensity threshold under the
            # spec's fixed normalization.
            t = 255.0 * (threshold - vmin) / (vmax - vmin)
            t = float(np.clip(t, 1.0, 254.0))
            params = BlobDetectorParams(
                min_threshold=t,
                max_threshold=255.0,
                threshold_step=max(1.0, (255.0 - t) / 8.0),
                min_area=4.0,
                max_area=float(shape[0] * shape[1]),
                min_repeatability=1,
            )
        blobs = detect_blobs(image, params)
        ny, nx = spec.shape
        span = (hi[0] - lo[0], hi[1] - lo[1])
        result["count"] = len(blobs)
        result["blobs"] = [
            {
                "center": [
                    float(lo[0] + (b.center[0] + 0.5) * span[0] / nx),
                    float(lo[1] + (b.center[1] + 0.5) * span[1] / ny),
                ],
                "diameter": float(b.diameter),
                "area": float(b.area),
                "repeatability": int(b.repeatability),
            }
            for b in blobs
        ]
        return result
