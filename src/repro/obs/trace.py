"""Dual-clock tracing: wall-time spans correlated with simulated I/O.

The reproduction runs on two clocks at once. Compute phases (decimation,
delta encoding, ZFP compression, restoration) burn *wall* time measured
with :func:`time.perf_counter`; transfer phases burn *simulated* time
charged to the shared :class:`~repro.storage.simclock.SimClock` by the
tier device models. A trace that shows only one of the two cannot answer
the question the paper's Figs. 6–11 answer — where does retrieval time
actually go when compute overlaps tiered I/O — so every span here
records both:

* ``wall_start``/``wall_end`` — seconds since the tracer started, from
  ``perf_counter``;
* ``sim_start``/``sim_end`` — snapshots of ``SimClock.elapsed`` taken at
  span entry/exit (when a clock is attached);
* ``sim_charged``/``sim_busy``/``sim_read`` — simulated seconds
  attributed to this span specifically: the tracer registers a listener
  on the clock (:meth:`SimClock.add_listener`) and credits each charge
  to the innermost active span *in the charging context*.

Span stacks live on :mod:`contextvars` (one module-level ContextVar
holding an immutable tuple), not ``threading.local``: a request that
hops from the asyncio service node onto the data node's executor keeps
ONE stack, provided each pool submit wraps the callable with
:func:`repro.obs.context.propagate`.
That makes the span tree — and SimClock charge attribution — keyed by
request rather than by thread. Code running outside any request still
gets natural per-thread roots, because fresh threads start with an
empty context.

``sim_read`` mirrors the data node's tenant accounting formula exactly
(``min(advance, sum of read-event seconds)`` per charge), so summing a
request's spans reproduces the per-tenant ``service.sim_read_seconds``
counters — the acceptance check for end-to-end attribution.

Disabled tracing must be free: module-level :func:`span` checks one
global and returns a shared no-op handle — no allocation, no clock
reads — so the instrumented hot paths (per-record engine reads, codec
calls) cost one attribute check when nobody is looking.

Use :func:`trace_session` (re-exported as ``repro.api.trace_session``)
to install a tracer for a ``with`` block and export the result::

    with trace_session(hierarchy, chrome_path="trace.json") as tracer:
        with Session(hierarchy) as session:
            session.open("run").restore("dpot", level=0)
    # trace.json now loads in Perfetto / chrome://tracing
"""

from __future__ import annotations

import contextvars
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.lru import LRU
from repro.obs import context as obs_context
from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "SpanRecord",
    "IORecord",
    "NoopSpan",
    "RequestTrace",
    "TraceBuffer",
    "Tracer",
    "count",
    "enabled",
    "get_tracer",
    "span",
    "trace_session",
]


@dataclass
class SpanRecord:
    """One finished span, on both clocks."""

    name: str
    category: str
    span_id: int
    parent_id: int | None
    thread: str
    wall_start: float
    wall_end: float
    sim_start: float = 0.0
    sim_end: float = 0.0
    #: Simulated seconds charged while this span (and no child) was the
    #: innermost active span in the charging context.
    sim_charged: float = 0.0
    #: Device busy seconds behind ``sim_charged`` (>= sim_charged for
    #: overlapped groups: busy sums, the charge advances max-per-tier).
    sim_busy: float = 0.0
    #: Simulated read seconds, per the tenant-accounting formula
    #: (``min(advance, read busy)`` per charge) — sums across a request's
    #: spans to the per-tenant ``service.sim_read_seconds`` counter.
    sim_read: float = 0.0
    #: W3C trace id of the request this span belongs to ("" outside
    #: any request context).
    trace_id: str = ""
    #: Tenant the enclosing request was authenticated as.
    tenant: str = ""
    args: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def wall_seconds(self) -> float:
        return self.wall_end - self.wall_start

    @property
    def sim_seconds(self) -> float:
        """Simulated clock advance observed across the span."""
        return self.sim_end - self.sim_start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "trace_id": self.trace_id,
            "tenant": self.tenant,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
            "wall_seconds": self.wall_seconds,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "sim_seconds": self.sim_seconds,
            "sim_charged": self.sim_charged,
            "sim_busy": self.sim_busy,
            "sim_read": self.sim_read,
            "args": dict(self.args),
            "error": self.error,
        }


@dataclass(frozen=True)
class IORecord:
    """One simulated transfer placed on the simulated timeline.

    ``sim_start`` positions the transfer inside its charge group: all
    tiers of an overlapped batch start together at the group's start,
    and each tier's transfers queue behind one another — exactly the
    max-per-tier overlap model the engine charges with.
    """

    tier: str
    op: str
    nbytes: int
    seconds: float
    sim_start: float
    label: str = ""

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "op": self.op,
            "nbytes": self.nbytes,
            "seconds": self.seconds,
            "sim_start": self.sim_start,
            "label": self.label,
        }


class NoopSpan:
    """Shared do-nothing span handle for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def note(self, **kwargs) -> None:
        pass


_NOOP = NoopSpan()

#: The active span stack for the current context: an immutable tuple of
#: live handles, innermost last. Immutability is what makes propagation
#: safe — a snapshot carried onto a worker thread shares the tuple, and
#: spans the worker pushes exist only in the worker's copied context.
_SPANS: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro-span-stack", default=()
)


class _SpanHandle:
    """Live span: context manager that records on exit."""

    __slots__ = (
        "_tracer", "name", "category", "args",
        "span_id", "parent_id", "trace_id", "tenant",
        "wall_start", "sim_start", "sim_charged", "sim_busy", "sim_read",
        "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, category: str, args) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self.span_id = 0
        self.parent_id: int | None = None
        self.trace_id = ""
        self.tenant = ""
        self.wall_start = 0.0
        self.sim_start = 0.0
        self.sim_charged = 0.0
        self.sim_busy = 0.0
        self.sim_read = 0.0
        self._token = None

    def note(self, **kwargs) -> None:
        """Attach args discovered mid-span (hit/miss, chosen tier, ...)."""
        if self.args is None:
            self.args = kwargs
        else:
            self.args.update(kwargs)

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        stack = _SPANS.get()
        # Parent under the innermost span of *this* tracer: nested
        # sessions keep independent trees even though they share the
        # context stack.
        self.parent_id = None
        for handle in reversed(stack):
            if handle._tracer is tracer:
                self.parent_id = handle.span_id
                break
        ctx = obs_context.current()
        if ctx is not None:
            self.trace_id = ctx.trace_id
            self.tenant = ctx.tenant
        self.span_id = tracer._next_id()
        self._token = _SPANS.set(stack + (self,))
        self.sim_start = tracer._sim_now()
        self.wall_start = time.perf_counter() - tracer.wall_origin
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        wall_end = time.perf_counter() - tracer.wall_origin
        sim_end = tracer._sim_now()
        try:
            # Restores the pre-enter stack, dropping any spans leaked
            # by misbehaving instrumented code along with self.
            _SPANS.reset(self._token)
        except ValueError:
            # Token from another context (exotic misuse): filter instead.
            _SPANS.set(tuple(h for h in _SPANS.get() if h is not self))
        tracer._record(
            SpanRecord(
                name=self.name,
                category=self.category,
                span_id=self.span_id,
                parent_id=self.parent_id,
                thread=threading.current_thread().name,
                trace_id=self.trace_id,
                tenant=self.tenant,
                wall_start=self.wall_start,
                wall_end=wall_end,
                sim_start=self.sim_start,
                sim_end=sim_end,
                sim_charged=self.sim_charged,
                sim_busy=self.sim_busy,
                sim_read=self.sim_read,
                args=self.args if self.args is not None else {},
                error=exc_type.__name__ if exc_type is not None else None,
            )
        )
        return False  # never swallow exceptions


class Tracer:
    """Collects spans and simulated-I/O placements for one session.

    Parameters
    ----------
    clock:
        Optional :class:`~repro.storage.simclock.SimClock`; when given,
        spans snapshot its ``elapsed`` and the tracer listens for
        charges to attribute simulated seconds per span and to place
        per-tier transfers on the simulated timeline.
    sinks:
        Optional :class:`repro.obs.sinks.TraceSink` instances notified
        of every finished span (the in-memory record list is always
        kept regardless).
    registry:
        Metrics registry for instrumented components that want a
        tracer-scoped home; defaults to a fresh one.
    """

    def __init__(self, *, clock=None, sinks=(), registry=None) -> None:
        self.clock = clock
        self.sinks = list(sinks)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.spans: list[SpanRecord] = []
        self.io_records: list[IORecord] = []
        self.wall_origin = time.perf_counter()
        self._lock = threading.Lock()
        self._id_counter = 0
        self._attached = False

    # -- bookkeeping ----------------------------------------------------
    def _next_id(self) -> int:
        with self._lock:
            self._id_counter += 1
            return self._id_counter

    def _sim_now(self) -> float:
        clock = self.clock
        return clock.elapsed if clock is not None else 0.0

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)
        for sink in self.sinks:
            sink.on_span(record)

    # -- clock integration ----------------------------------------------
    def attach_clock(self, clock) -> None:
        """Subscribe to a SimClock (idempotent for the current clock)."""
        if self._attached and self.clock is clock:
            return
        if self._attached and self.clock is not None:
            self.clock.remove_listener(self._on_charge)
        self.clock = clock
        if clock is not None:
            clock.add_listener(self._on_charge)
            self._attached = True

    def detach_clock(self) -> None:
        if self._attached and self.clock is not None:
            self.clock.remove_listener(self._on_charge)
        self._attached = False

    def _on_charge(self, events, advance: float, elapsed_after: float) -> None:
        """SimClock listener: attribute a charge to the active span.

        Runs on the charging thread inside the charging *context*, so
        the innermost span of this tracer on the context stack is the
        code that issued the transfer — on a propagated executor thread
        that is the submitting request's span, not whatever the thread
        ran last. Mutation is locked: several workers can share one
        propagated parent handle and charge concurrently.
        """
        stack = _SPANS.get()
        top = None
        for handle in reversed(stack):
            if handle._tracer is self:
                top = handle
                break
        busy = 0.0
        read_busy = 0.0
        for e in events:
            busy += e.seconds
            if e.op == "read":
                read_busy += e.seconds
        group_start = elapsed_after - advance
        tier_offsets: dict[str, float] = {}
        placed = []
        for e in events:
            offset = tier_offsets.get(e.tier, 0.0)
            placed.append(
                IORecord(
                    tier=e.tier,
                    op=e.op,
                    nbytes=e.nbytes,
                    seconds=e.seconds,
                    sim_start=group_start + offset,
                    label=e.label,
                )
            )
            tier_offsets[e.tier] = offset + e.seconds
        with self._lock:
            if top is not None:
                top.sim_charged += advance
                top.sim_busy += busy
                # Same formula the data node uses for per-tenant read
                # accounting, so per-trace sums match tenant counters.
                top.sim_read += min(advance, read_busy)
            self.io_records.extend(placed)

    # -- span creation ---------------------------------------------------
    def span(self, name: str, category: str = "", args: dict | None = None):
        """New live span handle (use as a context manager)."""
        return _SpanHandle(self, name, category, args)

    # -- summaries -------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per-category totals (inclusive — nested spans both count)."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            spans = list(self.spans)
        for rec in spans:
            cat = out.setdefault(
                rec.category or "uncategorized",
                {"spans": 0, "wall_seconds": 0.0, "sim_charged": 0.0},
            )
            cat["spans"] += 1
            cat["wall_seconds"] += rec.wall_seconds
            cat["sim_charged"] += rec.sim_charged
        return out

    def export_chrome(self, path) -> "str":
        """Write the Chrome trace-event JSON; returns the path written."""
        from repro.obs.sinks import write_chrome_trace

        return write_chrome_trace(path, self.spans, self.io_records)

    def export_jsonl(self, path) -> "str":
        from repro.obs.sinks import write_jsonl

        return write_jsonl(path, self.spans, self.io_records)

    def __repr__(self) -> str:
        return (
            f"Tracer(spans={len(self.spans)}, io={len(self.io_records)}, "
            f"clock={'attached' if self._attached else 'none'})"
        )


# ---------------------------------------------------------------------------
# request trace ring buffer
# ---------------------------------------------------------------------------
@dataclass
class RequestTrace:
    """One finished request's span tree plus its access-log facts."""

    trace_id: str
    route: str = ""
    method: str = ""
    tenant: str = ""
    status: int = 0
    wall_seconds: float = 0.0
    error: str | None = None
    #: Why the buffer kept this trace: "error", "slow", or "sampled".
    kept: str = "sampled"
    spans: list[SpanRecord] = field(default_factory=list)

    @property
    def sim_read_seconds(self) -> float:
        """Simulated read seconds charged to this request (tenant formula)."""
        return sum(s.sim_read for s in self.spans)

    @property
    def sim_charged_seconds(self) -> float:
        return sum(s.sim_charged for s in self.spans)

    def to_summary(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "route": self.route,
            "method": self.method,
            "tenant": self.tenant,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "sim_read_seconds": self.sim_read_seconds,
            "sim_charged_seconds": self.sim_charged_seconds,
            "spans": len(self.spans),
            "kept": self.kept,
            "error": self.error,
        }

    def to_dict(self) -> dict:
        out = self.to_summary()
        out["spans"] = [s.to_dict() for s in self.spans]
        return out


class TraceBuffer:
    """Bounded ring of kept request traces, fed as a live span sink.

    Spans carrying a ``trace_id`` accumulate in a pending area as they
    finish (on whatever thread finished them);
    :meth:`finish` — called once per request by the service node —
    decides whether the assembled tree is kept:

    * **errors** (HTTP 5xx or an unhandled exception) are ALWAYS kept;
    * **slow tail** (wall time >= ``slow_seconds``) is ALWAYS kept;
    * otherwise the head-based sampling decision applies (deterministic
      hash of the trace id against ``sample_rate``, or the upstream
      ``traceparent`` sampled flag when the caller forwarded one).

    Kept traces are served at ``GET /v1/trace/{id}`` and
    ``GET /v1/traces``; the ring evicts oldest-first past ``capacity``.
    """

    def __init__(
        self,
        capacity: int = 256,
        *,
        sample_rate: float = 0.1,
        slow_seconds: float = 1.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], not {sample_rate}")
        self.capacity = int(capacity)
        self.sample_rate = float(sample_rate)
        self.slow_seconds = float(slow_seconds)
        self._lock = threading.Lock()
        # Requests that never reach finish() (client vanished
        # mid-flight) must not grow the pending area without limit; it
        # evicts the oldest started (peek keeps insertion order).
        self._pending = LRU(4 * self.capacity)
        self._kept = LRU(self.capacity)
        self.finished = 0
        self.dropped = 0

    # -- TraceSink protocol ---------------------------------------------
    def on_span(self, record: SpanRecord) -> None:
        if not record.trace_id:
            return
        with self._lock:
            spans = self._pending.peek(record.trace_id)
            if spans is None:
                spans = []
                self._pending.put(record.trace_id, spans)
            spans.append(record)

    def close(self) -> None:
        pass

    # -- sampling --------------------------------------------------------
    def head_decision(self, trace_id: str) -> bool:
        """Deterministic head-sampling decision for a trace id."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        try:
            bucket = int(trace_id[:8], 16) / float(0x100000000)
        except ValueError:
            return False
        return bucket < self.sample_rate

    # -- lifecycle -------------------------------------------------------
    def finish(
        self,
        trace_id: str,
        *,
        route: str = "",
        method: str = "",
        tenant: str = "",
        status: int = 0,
        wall_seconds: float = 0.0,
        error: str | None = None,
        sampled: bool | None = None,
    ) -> RequestTrace | None:
        """Seal a request's trace; returns it when kept, else ``None``.

        ``sampled`` overrides the hash decision (pass the upstream
        ``traceparent`` flag); errors and the slow tail are kept no
        matter what it says.
        """
        with self._lock:
            spans = self._pending.pop(trace_id, [])
            self.finished += 1
        if error is not None or status >= 500:
            kept = "error"
        elif wall_seconds >= self.slow_seconds:
            kept = "slow"
        elif sampled if sampled is not None else self.head_decision(trace_id):
            kept = "sampled"
        else:
            with self._lock:
                self.dropped += 1
            return None
        spans.sort(key=lambda s: s.wall_start)
        trace = RequestTrace(
            trace_id=trace_id,
            route=route,
            method=method,
            tenant=tenant,
            status=status,
            wall_seconds=wall_seconds,
            error=error,
            kept=kept,
            spans=spans,
        )
        self._kept.put(trace_id, trace)
        return trace

    # -- reads -----------------------------------------------------------
    def get(self, trace_id: str) -> RequestTrace | None:
        return self._kept.peek(trace_id)

    def list(self, limit: int = 20) -> list[RequestTrace]:
        """Most recently kept traces, newest first."""
        kept = [trace for _, trace in self._kept.items()]
        return kept[::-1][: max(0, int(limit))]

    def slowest(self, limit: int = 10) -> list[RequestTrace]:
        kept = [trace for _, trace in self._kept.items()]
        kept.sort(key=lambda t: t.wall_seconds, reverse=True)
        return kept[: max(0, int(limit))]

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "sample_rate": self.sample_rate,
                "slow_seconds": self.slow_seconds,
                "kept": len(self._kept),
                "pending": len(self._pending),
                "finished": self.finished,
                "dropped": self.dropped,
                "evictions": self._kept.evictions,
                "pending_evictions": self._pending.evictions,
            }

    def __len__(self) -> int:
        return len(self._kept)


# ---------------------------------------------------------------------------
# module-level current tracer + fast path
# ---------------------------------------------------------------------------
_tracer: Tracer | None = None
_install_lock = threading.Lock()


def get_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _tracer


def enabled() -> bool:
    return _tracer is not None


def span(name: str, category: str = "", args: dict | None = None):
    """A span on the current tracer — or the shared no-op handle.

    This is the call instrumented code makes unconditionally; when no
    tracer is installed it costs one global read and returns a
    singleton, allocating nothing.
    """
    tracer = _tracer
    if tracer is None:
        return _NOOP
    return tracer.span(name, category, args)


def count(
    name: str, n: int | float = 1, *, everywhere: bool = False, **labels: str
) -> None:
    """Add ``n`` to a counter on the current tracer, if one is installed.

    ``everywhere`` also counts it in the process registry (once, when
    the tracer records into that same registry).
    """
    tracer = _tracer
    if everywhere:
        get_registry().counter(name, **labels).inc(n)
    if tracer is not None and not (everywhere and tracer.metrics is get_registry()):
        tracer.metrics.counter(name, **labels).inc(n)


def _install(tracer: Tracer) -> Tracer | None:
    global _tracer
    with _install_lock:
        previous = _tracer
        _tracer = tracer
    return previous


def _uninstall(previous: Tracer | None) -> None:
    global _tracer
    with _install_lock:
        _tracer = previous


def _resolve_clock(target):
    """Accept a SimClock, or anything that leads to one.

    ``StorageHierarchy`` / ``StorageTier`` expose ``.clock``;
    ``BPDataset`` exposes ``.hierarchy.clock``; a bare clock passes
    through; ``None`` means wall-clock-only tracing.
    """
    if target is None:
        return None
    if hasattr(target, "charge") and hasattr(target, "elapsed"):
        return target
    clock = getattr(target, "clock", None)
    if clock is not None:
        return clock
    hierarchy = getattr(target, "hierarchy", None)
    if hierarchy is not None:
        return getattr(hierarchy, "clock", None)
    raise TypeError(
        f"cannot find a SimClock on {type(target).__name__!r}; pass a "
        "SimClock, StorageHierarchy, or BPDataset (or None)"
    )


@contextmanager
def trace_session(
    target=None,
    *,
    chrome_path=None,
    jsonl_path=None,
    sinks=(),
    registry=None,
):
    """Install a tracer for the duration of a ``with`` block.

    Parameters
    ----------
    target:
        Where the simulated clock lives: a
        :class:`~repro.storage.simclock.SimClock`, a
        :class:`~repro.storage.hierarchy.StorageHierarchy`, an open
        :class:`~repro.io.dataset.BPDataset` — or ``None`` for
        wall-clock-only tracing.
    chrome_path / jsonl_path:
        When given, the trace is exported there on exit (Chrome
        trace-event JSON for Perfetto / ``chrome://tracing``, or one
        JSON object per line).
    sinks / registry:
        Extra live sinks and an explicit metrics registry (see
        :class:`Tracer`).

    Yields the :class:`Tracer`; it stays readable after the block (for
    ``summary()`` or a custom export). Sessions may nest — the inner
    session's tracer wins until it exits.

    Teardown is unconditional: the global tracer is restored and the
    SimClock listener detached even when the traced block, a sink's
    ``close()``, or an export raises — a failed session must never keep
    attributing charges to a dead tracer (that would double-count the
    next session's I/O).
    """
    clock = _resolve_clock(target)
    tracer = Tracer(clock=clock, sinks=sinks, registry=registry)
    if clock is not None:
        tracer.attach_clock(clock)
    previous = _install(tracer)
    try:
        yield tracer
    finally:
        _uninstall(previous)
        try:
            tracer.detach_clock()
        finally:
            close_failure: BaseException | None = None
            for sink in tracer.sinks:
                close = getattr(sink, "close", None)
                if close is None:
                    continue
                try:
                    close()
                except BaseException as exc:  # noqa: BLE001 - close all sinks
                    if close_failure is None:
                        close_failure = exc
            try:
                if chrome_path is not None:
                    tracer.export_chrome(chrome_path)
            finally:
                try:
                    if jsonl_path is not None:
                        tracer.export_jsonl(jsonl_path)
                finally:
                    # Surface a sink-close failure only when the traced
                    # block itself succeeded — the body's exception is
                    # the primary failure and must not be replaced.
                    if close_failure is not None and sys.exc_info()[0] is None:
                        raise close_failure
