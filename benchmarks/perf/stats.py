"""Percentiles from raw samples and the benchmark's own span recorder.

Nothing here goes through ``repro.obs.metrics.Histogram.quantile``: its
top bucket saturates (BENCH_service.json has p95 = p99 = max), so every
percentile the benchmark prints is read off the sorted raw samples.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from spec import MIN_TAIL_SAMPLES


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile of raw samples (``pct`` in 0..100)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the ``pct`` rank."""
    return int(n * (100.0 - pct) / 100.0)


def tail(samples, pct: float | None) -> float | None:
    """The ``pct`` percentile, or None when too few samples lie beyond it."""
    if pct is None or samples_beyond(len(samples), pct) < MIN_TAIL_SAMPLES:
        return None
    return percentile(samples, pct)


def summary(samples) -> dict:
    """Sample count, median and quartiles of a timing (seconds in, ms out)."""
    return {
        "samples": len(samples),
        "p25_ms": percentile(samples, 25) * 1e3,
        "p50_ms": percentile(samples, 50) * 1e3,
        "p75_ms": percentile(samples, 75) * 1e3,
        "max_ms": max(samples) * 1e3,
    }


class SpanRecorder:
    """In-memory spans around the calls into each layer.

    One span per call: ``name`` (the public function), ``layer`` (the
    module that owns it), ``start``/``end`` (perf_counter seconds),
    ``parent`` (id of the enclosing span on this thread), ``op_id``
    (shared by the spans of one op), plus bytes in/out.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, layer: str, op_id, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            record = {
                "id": len(self.spans), "name": name, "layer": layer,
                "op_id": op_id, "parent": stack[-1] if stack else None,
                "bytes_in": 0, "bytes_out": 0, **attrs,
            }
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Children may overlap each other (a traced pool), so the cover is the
    length of the union of their intervals clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def by_call(spans: list[dict]) -> dict[str, dict]:
    """Aggregate spans by (layer, name): self seconds, calls, bytes."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(
            f"{s['layer']}:{s['name']}",
            {"layer": s["layer"], "name": s["name"], "self_s": 0.0,
             "calls": 0, "bytes_in": 0, "bytes_out": 0},
        )
        row["self_s"] += own[s["id"]]
        row["calls"] += 1
        row["bytes_in"] += s["bytes_in"]
        row["bytes_out"] += s["bytes_out"]
    return table


def by_layer(calls: dict[str, dict]) -> dict[str, dict]:
    """Fold the per-call table into one row per layer."""
    table: dict[str, dict] = {}
    for row in calls.values():
        layer = table.setdefault(
            row["layer"],
            {"self_s": 0.0, "calls": 0, "bytes_in": 0, "bytes_out": 0},
        )
        for key in layer:
            layer[key] += row[key]
    return table
