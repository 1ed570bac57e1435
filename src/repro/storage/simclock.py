"""Simulated I/O time accounting.

Real bytes flow through real local files, but the *reported* transfer
times come from the tier device models, because the figures being
reproduced were measured against tmpfs vs. Lustre on Titan. The clock
records one event per transfer so pipelines can report per-phase,
per-tier breakdowns (paper Figs. 6b, 9–11).

Concurrent retrieval (``repro.io.engine``) charges *overlapped* groups
through :meth:`SimClock.charge_concurrent`: every transfer is still
recorded as its own event, but :attr:`SimClock.elapsed` advances by the
**max per-tier total** of the group instead of the sum — concurrent
streams against different tiers proceed in parallel, so only the slowest
tier's work sits on the critical path. For overlapped groups
``sum(e.seconds for e in events)`` therefore exceeds the elapsed
advance: the event log measures device busy time, ``elapsed`` measures
the (simulated) wall.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

__all__ = ["IOEvent", "SimClock"]

#: Listener signature: ``(events, advance_seconds, elapsed_after)``.
ChargeListener = Callable[[tuple["IOEvent", ...], float, float], None]


@dataclass(frozen=True)
class IOEvent:
    """One simulated transfer."""

    tier: str
    op: str  # "read" | "write"
    nbytes: int
    seconds: float
    label: str = ""


@dataclass
class SimClock:
    """Accumulates simulated I/O time and an event log.

    Thread-safe: transports and the retrieval engine may charge from
    the data node's executor threads. Elapsed totals are order-independent (sums and
    per-group maxima), so the accounting is deterministic regardless of
    thread scheduling.
    """

    elapsed: float = 0.0
    events: list[IOEvent] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _listeners: list[ChargeListener] = field(
        default_factory=list, repr=False, compare=False
    )

    # -- observation ----------------------------------------------------
    def add_listener(self, listener: ChargeListener) -> None:
        """Subscribe to charges (``repro.obs`` dual-clock tracing hook).

        Listeners are called after each charge, on the charging thread,
        outside the clock lock, as ``listener(events, advance,
        elapsed_after)`` — one overlapped group per call.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: ChargeListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _notify(
        self, events: tuple[IOEvent, ...], advance: float, after: float
    ) -> None:
        for listener in tuple(self._listeners):
            listener(events, advance, after)

    def charge(
        self, tier: str, op: str, nbytes: int, seconds: float, label: str = ""
    ) -> IOEvent:
        """Record one transfer and advance the clock."""
        event = IOEvent(tier=tier, op=op, nbytes=nbytes, seconds=seconds, label=label)
        with self._lock:
            self.events.append(event)
            self.elapsed += seconds
            after = self.elapsed
        if self._listeners:
            self._notify((event,), seconds, after)
        return event

    def charge_concurrent(
        self,
        entries: Iterable[Sequence],
        label: str = "",
    ) -> float:
        """Charge a group of overlapped transfers; returns the advance.

        ``entries`` is an iterable of ``(tier, op, nbytes, seconds)``
        tuples describing transfers issued concurrently. One event is
        recorded per entry, but ``elapsed`` advances by the *maximum*
        per-tier total rather than the grand sum — transfers against
        different tiers overlap (the engine's max-per-tier model).
        """
        per_tier: dict[str, float] = {}
        events = []
        for tier, op, nbytes, seconds in entries:
            events.append(
                IOEvent(tier=tier, op=op, nbytes=nbytes, seconds=seconds, label=label)
            )
            per_tier[tier] = per_tier.get(tier, 0.0) + seconds
        advance = max(per_tier.values(), default=0.0)
        with self._lock:
            self.events.extend(events)
            self.elapsed += advance
            after = self.elapsed
        if self._listeners and events:
            self._notify(tuple(events), advance, after)
        return advance

    def reset(self) -> None:
        with self._lock:
            self.elapsed = 0.0
            self.events.clear()

    # -- summaries -------------------------------------------------------
    def total(self, op: str | None = None, tier: str | None = None) -> float:
        """Total device busy seconds, optionally filtered by op and/or tier.

        For serial charges this equals the elapsed advance; overlapped
        groups (:meth:`charge_concurrent`) can make it exceed ``elapsed``.
        """
        return sum(
            e.seconds
            for e in self.events
            if (op is None or e.op == op) and (tier is None or e.tier == tier)
        )

    def bytes_moved(self, op: str | None = None, tier: str | None = None) -> int:
        return sum(
            e.nbytes
            for e in self.events
            if (op is None or e.op == op) and (tier is None or e.tier == tier)
        )

    def by_tier(self, op: str | None = None) -> dict[str, float]:
        """Device busy seconds per tier."""
        out: dict[str, float] = {}
        for e in self.events:
            if op is None or e.op == op:
                out[e.tier] = out.get(e.tier, 0.0) + e.seconds
        return out
