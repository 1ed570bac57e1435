"""Latency SLOs: target + objective + rolling burn rate.

A service-tier reproduction of the paper's "retrieval cost must be
explainable" argument needs a yardstick, not just raw histograms: an
:class:`SLO` says "``objective`` of requests must finish under
``target_seconds``" and tracks how fast the error budget is burning
over a rolling window of recent requests.

Definitions (standard SRE nomenclature, count-based window):

* a request is **good** when it succeeded (no 5xx) *and* finished
  within ``target_seconds``; anything else is **bad**;
* **compliance** is the good fraction over the rolling window;
* **burn rate** is ``bad_fraction / (1 - objective)`` — 1.0 means the
  budget burns exactly at the sustainable rate, >1 means the tier is
  eating future budget (2.0 = twice as fast as allowed).

Each observation mirrors the state into gauges
(``<prefix>.burn_rate{slo=...}`` etc.) so the Prometheus exposition and
``/v1/metrics`` surface SLO health without a separate scrape path.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["SLO"]


class SLO:
    """One latency objective over a rolling count-based window.

    Parameters
    ----------
    name:
        Label value for the exported gauges (e.g. a route template).
    target_seconds:
        Latency threshold a good request must finish under.
    objective:
        Required good fraction in ``(0, 1)`` (e.g. ``0.95`` = p95
        under target).
    window:
        Number of most-recent requests the rolling state covers.
    registry / prefix:
        Where the gauges live; defaults to the process registry under
        ``service.slo``.
    """

    def __init__(
        self,
        name: str,
        *,
        target_seconds: float,
        objective: float = 0.95,
        window: int = 512,
        registry: MetricsRegistry | None = None,
        prefix: str = "service.slo",
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), not {objective}")
        if target_seconds <= 0:
            raise ValueError("target_seconds must be > 0")
        self.name = name
        self.target_seconds = float(target_seconds)
        self.objective = float(objective)
        self.window = int(window)
        self.metrics = registry if registry is not None else get_registry()
        self.prefix = prefix
        self._lock = threading.Lock()
        self._recent: deque[bool] = deque(maxlen=self.window)
        self._good = 0  # good requests among _recent
        self._total = 0
        self._breaches = 0
        gauge = self.metrics.gauge
        gauge(f"{prefix}.target_seconds", slo=name).set(self.target_seconds)
        gauge(f"{prefix}.objective", slo=name).set(self.objective)
        self._gauges = tuple(
            gauge(f"{prefix}.{what}", slo=name)
            for what in ("compliance", "burn_rate", "window_requests")
        )
        self._publish()

    # ------------------------------------------------------------------
    def observe(self, seconds: float, *, error: bool = False) -> bool:
        """Record one request; returns ``True`` when it was good."""
        good = not error and seconds <= self.target_seconds
        with self._lock:
            if self._recent and len(self._recent) == self.window:
                self._good -= self._recent[0]  # about to fall out
            self._recent.append(good)
            self._good += good
            self._total += 1
            if not good:
                self._breaches += 1
        self._publish()
        return good

    # ------------------------------------------------------------------
    @property
    def compliance(self) -> float:
        """Good fraction over the rolling window (1.0 when empty)."""
        with self._lock:
            if not self._recent:
                return 1.0
            return self._good / len(self._recent)

    @property
    def burn_rate(self) -> float:
        """How fast the error budget burns (1.0 = sustainable rate)."""
        return (1.0 - self.compliance) / (1.0 - self.objective)

    @property
    def healthy(self) -> bool:
        return self.burn_rate <= 1.0

    def _publish(self) -> None:
        compliance, burn_rate, window_requests = self._gauges
        compliance.set(self.compliance)
        burn_rate.set(self.burn_rate)
        window_requests.set(float(len(self._recent)))

    def snapshot(self) -> dict:
        with self._lock:
            total, breaches = self._total, self._breaches
            window_n = len(self._recent)
        return {
            "name": self.name,
            "target_seconds": self.target_seconds,
            "objective": self.objective,
            "window": self.window,
            "window_requests": window_n,
            "compliance": self.compliance,
            "burn_rate": self.burn_rate,
            "healthy": self.healthy,
            "total_requests": total,
            "total_breaches": breaches,
        }

    def __repr__(self) -> str:
        return (
            f"SLO({self.name!r}, target={self.target_seconds}s, "
            f"objective={self.objective}, burn_rate={self.burn_rate:.2f})"
        )
