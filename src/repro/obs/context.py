"""Request-scoped trace context carried on :mod:`contextvars`.

PR 2's tracer attributed spans and SimClock charges to *threads*
(``threading.local`` stacks), which is the wrong key for a multi-tenant
service: one request hops from the asyncio service node onto a shared
``ThreadPoolExecutor`` in the data node, while the same executor thread
serves many requests back to back. This module keys everything by **request**
instead: a small immutable :class:`TraceContext` (trace id, remote
parent span, tenant, sampling decision) stored in a
:class:`contextvars.ContextVar`, which

* survives ``await`` hops automatically (every asyncio task snapshots
  its creation context);
* is explicitly carried into worker threads with :func:`propagate`
  (thread pools do *not* inherit context — the submit site must copy
  it), so a span opened on an executor thread parents under the
  request's root span and a SimClock charge lands on the right tenant;
* never leaks between concurrent requests sharing an executor thread,
  because each submitted job runs inside its own
  :func:`contextvars.copy_context` snapshot.

The wire format is W3C trace-context: ``traceparent:
00-<trace-id 32hex>-<span-id 16hex>-<flags 2hex>``. The service accepts
it, generates one when absent, and echoes the trace id back as
``x-request-id`` (see :mod:`repro.service.servicenode`).

Everything here is allocation-free when unused: :func:`current` is one
ContextVar read, and :func:`propagate` returns the function unchanged
when no context is active, so untraced library use pays nothing.
"""

from __future__ import annotations

import contextvars
import os
import re
from dataclasses import dataclass, replace

__all__ = [
    "TraceContext",
    "activate",
    "bind_tenant",
    "current",
    "current_context",
    "deactivate",
    "format_traceparent",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "propagate",
]

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


@dataclass(frozen=True)
class TraceContext:
    """One request's identity, as seen by every layer it touches."""

    #: 32-hex W3C trace id; "" only for tenant-binding without a request.
    trace_id: str
    #: 16-hex span id of the caller's span (from an incoming
    #: ``traceparent``), "" when this process started the trace.
    parent_span: str = ""
    #: Tenant the request was authenticated as ("" before auth).
    tenant: str = ""
    #: Head-based sampling decision (errors/slow requests are kept
    #: regardless — see :class:`repro.obs.trace.TraceBuffer`).
    sampled: bool = True

    def traceparent(self, span_id: str | None = None) -> str:
        """Render this context as a ``traceparent`` header value."""
        return format_traceparent(
            self.trace_id, span_id or self.parent_span or new_span_id(),
            sampled=self.sampled,
        )


_CURRENT: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro-trace-context", default=None
)


def current() -> TraceContext | None:
    """The active request context, or ``None`` outside any request."""
    return _CURRENT.get()


#: Package-level alias (``repro.obs.current_context``) — ``current`` is
#: too generic a name to re-export at the package root.
current_context = current


def activate(ctx: TraceContext) -> contextvars.Token:
    """Install ``ctx`` as the current context; returns the reset token."""
    return _CURRENT.set(ctx)


def deactivate(token: contextvars.Token) -> None:
    _CURRENT.reset(token)


def bind_tenant(tenant: str) -> contextvars.Token:
    """Attach a tenant to the current context (creating one if needed).

    Used by the data node when work is submitted on behalf of a tenant:
    with a request context active the tenant is recorded on it; without
    one (direct library use of :class:`~repro.service.datanode.DataNode`)
    a request-less context is created so SimClock attribution still
    finds the tenant.
    """
    ctx = _CURRENT.get()
    if ctx is None:
        return _CURRENT.set(TraceContext(trace_id="", tenant=tenant))
    if ctx.tenant == tenant:
        return _CURRENT.set(ctx)  # no-op set keeps reset symmetric
    return _CURRENT.set(replace(ctx, tenant=tenant))


# ---------------------------------------------------------------------------
# W3C traceparent
# ---------------------------------------------------------------------------
def new_trace_id() -> str:
    """Fresh 32-hex trace id (never all zeros)."""
    while True:
        tid = os.urandom(16).hex()
        if tid != "0" * 32:
            return tid


def new_span_id() -> str:
    """Fresh 16-hex span id (never all zeros)."""
    while True:
        sid = os.urandom(8).hex()
        if sid != "0" * 16:
            return sid


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a ``traceparent`` header; ``None`` when absent or invalid.

    Invalid headers are treated as absent (the service starts a fresh
    trace) rather than rejected — per the W3C spec, a broken upstream
    must not break the request.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    version, trace_id, span_id, flags = match.groups()
    if version == "ff" or trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(
        trace_id=trace_id,
        parent_span=span_id,
        sampled=bool(int(flags, 16) & 0x01),
    )


def format_traceparent(
    trace_id: str, span_id: str, *, sampled: bool = True
) -> str:
    return f"00-{trace_id}-{span_id}-{'01' if sampled else '00'}"


# ---------------------------------------------------------------------------
# thread-pool propagation
# ---------------------------------------------------------------------------
def propagate(fn):
    """Bind ``fn`` to a snapshot of the submitting context.

    Thread pools run jobs in each worker's own (empty) context; wrapping
    the callable at submit time carries the request context — and the
    tracer's span stack, which also lives on contextvars — across the
    thread hop, so the worker's spans join the submitter's span tree
    and its SimClock charges keep their tenant.

    Outside any request (``current() is None``) the function is
    returned unchanged: plain library use keeps thread-root spans and
    pays no ``copy_context`` cost.
    """
    if _CURRENT.get() is None:
        return fn
    snapshot = contextvars.copy_context()

    def _in_context(*args, **kwargs):
        return snapshot.copy().run(fn, *args, **kwargs)

    return _in_context
