"""Thread-safe metrics registry: counters, gauges, histograms.

The registry is the quantitative backbone of the observability layer
(:mod:`repro.obs`): every subsystem that used to keep private ad-hoc
counters (the retrieval engine's ``EngineStats``, codec byte counts,
benchmark tallies) records through one of these instruments instead, so
a single :meth:`MetricsRegistry.snapshot` captures the whole pipeline's
state at once and the harness can emit it as machine-readable JSON.

Metrics are identified by ``(name, labels)``; labels are free-form
string key/value pairs (``counter("engine.hits_by_tier", tier="lustre")``).
Instruments are created on first use and are safe to mutate from any
thread — the data node's executor threads update one retrieval
engine's counters concurrently.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterator

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]

LabelsKey = tuple[tuple[str, str], ...]


def _labels_key(labels: dict[str, str]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (events, bytes, cache hits)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int | float = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int | float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def _snapshot_value(self):
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {dict(self.labels)}, value={self._value})"


class Gauge:
    """Last-observed value (cache occupancy, in-flight spans)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def _snapshot_value(self):
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {dict(self.labels)}, value={self._value})"


#: Fixed log-spaced bucket upper bounds (seconds): three per decade
#: from 100 µs to 100 s. A fixed layout (rather than per-instrument
#: tuning) keeps every latency histogram mergeable and gives the
#: Prometheus exposition a stable ``le`` series.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    round(10.0 ** (k / 3.0), 6) for k in range(-12, 7)
)


class Histogram:
    """Bucketed summary of an observed distribution (span durations).

    Observations land in fixed log-spaced buckets (:data:`DEFAULT_BUCKETS`
    by default, plus an implicit +Inf overflow), so :meth:`quantile`
    answers p50/p95/p99 with bounded error and zero per-observation
    allocation, and the layout maps 1:1 onto Prometheus
    ``_bucket{le=...}`` series. count/sum/min/max are kept exactly.
    """

    __slots__ = (
        "name", "labels", "count", "total", "min", "max",
        "bounds", "bucket_counts", "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: LabelsKey = (),
        *,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bounds: tuple[float, ...] = tuple(
            sorted(buckets if buckets is not None else DEFAULT_BUCKETS)
        )
        #: One count per bound, plus the +Inf overflow slot at the end.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.count += 1
            self.total += value
            self.bucket_counts[idx] += 1
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from buckets.

        Linear interpolation inside the containing bucket, whose span
        is first cut to the exact observed min/max: the top occupied
        bucket ends at the maximum, not at its upper bound, so tail
        quantiles that share it stay distinct instead of all clamping
        to ``max`` (and likewise the bottom bucket and ``min``).
        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], not {q}")
        with self._lock:
            count = self.count
            counts = list(self.bucket_counts)
            lo, hi = self.min, self.max
        if not count:
            return 0.0
        rank = q * count
        seen = 0.0
        for idx, n in enumerate(counts):
            if n == 0:
                continue
            if seen + n >= rank:
                lower = max(self.bounds[idx - 1], lo) if idx > 0 else lo
                upper = min(self.bounds[idx], hi) if idx < len(self.bounds) else hi
                frac = (rank - seen) / n
                return float(lower + (upper - lower) * max(0.0, min(1.0, frac)))
            seen += n
        return float(hi)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``[(upper_bound, cumulative_count), ...]`` ending at +Inf."""
        out: list[tuple[float, int]] = []
        with self._lock:
            counts = list(self.bucket_counts)
        running = 0
        for bound, n in zip(self.bounds, counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def _reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = float("inf")
            self.max = float("-inf")
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def _snapshot_value(self):
        if not self.count:
            return {
                "count": 0, "sum": 0.0, "min": None, "max": None,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, {dict(self.labels)}, count={self.count})"


class MetricsRegistry:
    """Get-or-create home for named instruments.

    Creation is serialized under one lock; mutation happens under each
    instrument's own lock, so hot-path increments never contend with
    unrelated metrics.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelsKey], object] = {}
        #: (name, labels in call order) -> instrument: a call site passes
        #: its labels in one order, so this skips sorting them on a hit.
        #: Only ``_metrics`` is listed, so no instrument shows twice.
        self._aliases: dict[tuple, object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: dict[str, str]):
        alias = (name, tuple(labels.items()))
        metric = self._aliases.get(alias)
        if metric is None:
            key = (name, _labels_key(labels))
            with self._lock:
                metric = self._metrics.setdefault(key, cls(name, key[1]))
                self._aliases[alias] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[object]:
        return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    def value(self, name: str, default=0, **labels: str):
        """Current value of one instrument (``default`` if never created)."""
        metric = self._metrics.get((name, _labels_key(labels)))
        return default if metric is None else metric._snapshot_value()

    def label_values(self, name: str, label: str) -> dict[str, object]:
        """``{label value: metric value}`` across one labeled family."""
        out: dict[str, object] = {}
        for (metric_name, labels), metric in list(self._metrics.items()):
            if metric_name != name:
                continue
            for key, value in labels:
                if key == label:
                    out[value] = metric._snapshot_value()
        return out

    def snapshot(self) -> dict[str, object]:
        """Flat ``{qualified name: value}`` view of every instrument.

        Labeled instruments render as ``name{k=v,...}`` keys, so the
        snapshot is JSON-ready without nesting surprises.
        """
        out: dict[str, object] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            if labels:
                qualified = name + "{" + ",".join(
                    f"{k}={v}" for k, v in labels
                ) + "}"
            else:
                qualified = name
            out[qualified] = metric._snapshot_value()
        return out

    def prefix_snapshot(self, prefix: str) -> dict[str, object]:
        """:meth:`snapshot` restricted to names under ``prefix``.

        ``prefix`` matches whole dotted components (``"service"``
        matches ``service.requests`` but not ``services.x``), which is
        what subsystem views want — e.g. the read tier's
        ``/v1/metrics`` reports only its own ``service.*`` family.
        """
        want = prefix.rstrip(".") + "."
        return {
            name: value
            for name, value in self.snapshot().items()
            if name.startswith(want)
        }

    def reset(self) -> None:
        """Zero every instrument in place (references stay valid)."""
        for metric in list(self._metrics.values()):
            metric._reset()


#: Process-wide default registry (used when no explicit registry is wired).
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _GLOBAL
