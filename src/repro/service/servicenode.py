"""Service node: stateless HTTP handlers in front of the data node.

Everything here is per-request and touches no storage: parse, resolve
the tenant (bearer token), admit against quotas, route, then assemble
the response from whatever the :class:`~repro.service.datanode.DataNode`
returns. Library errors translate 1:1 to wire responses through the
stable code → status map in :mod:`repro.errors`; every response body
for an error is ``{"error": ..., "code": ...}``.

Endpoints (all under ``/v1`` except the health probe):

====================================================  ======================
``GET  /healthz``                                     liveness (no auth)
``POST /v1/campaigns/{name}/open``                    open + describe
``GET  /v1/campaigns/{name}``                         describe (idempotent)
``GET  .../vars/{var}/restore?level=|tolerance=``     restore (npy body)
``     ...&step=``                                    one campaign timestep
``GET  .../vars/{var}/stats?level=``                  per-chunk summaries
``GET  .../vars/{var}/plan?level=|tolerance=``        explain the retrieval
``GET  .../raw/{key}?start=&length=``                 ranged raw product
``GET  /v1/query/stats?campaign=&var=[&region=]``     pushdown statistics
``GET  /v1/query/blobs?campaign=&var=&threshold=``    pushdown blob detect
``GET  /v1/metrics[?format=prometheus]``              obs + tenant usage
``GET  /v1/traces?limit=``                            kept trace summaries
``GET  /v1/trace/{id}``                               one full span tree
====================================================  ======================

Restore responses carry ``ETag``/``X-Canopus-Cursor`` (the resumable
delta cursor), ``X-Canopus-Level``, shape/dtype, and the delta-RMS of
the last applied refinement; ``If-None-Match`` with the cursor of the
requested state short-circuits to 304 with no body.

Every request is observable end to end: the node accepts a W3C
``traceparent`` header (or starts a fresh trace), activates the trace
context for the request's whole asyncio + executor journey, echoes the
trace id back as ``x-request-id``, feeds per-route/per-tenant latency
histograms and SLO burn rates, writes one JSONL access-log line, and —
when tracing is enabled — seals the request's span tree into the
:class:`~repro.obs.trace.TraceBuffer` served by the ``/v1/trace*``
routes.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
import types

import numpy as np

from repro.errors import (
    QuotaError,
    ReproError,
    RestorationError,
    ServiceError,
    error_code,
    http_status,
)
from repro.obs import context as obs_context
from repro.obs import trace
from repro.obs.logs import JsonlLogger
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.prom import render_prometheus
from repro.obs.slo import SLO
from repro.obs.trace import TraceBuffer, Tracer
from repro.query import parse_region, parse_shape
from repro.service.datanode import DataNode
from repro.service.http import Request, Response, read_request
from repro.service.tenants import TenantConfig, TenantRegistry
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["CanopusService", "ServiceNode", "ServiceThread"]

NPY_CONTENT_TYPE = "application/x-npy"


def _parse_number(query: dict, name: str, kind=float):
    raw = query.get(name)
    if raw is None or raw == "":
        return None
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise RestorationError(f"query param {name!r} must be {what}")


def _selection(query: dict) -> dict:
    """What a restore or a plan selects: coordinate, target and filter."""
    return {
        "step": _parse_number(query, "step", int),
        "level": _parse_number(query, "level", int),
        "tolerance": _parse_number(query, "tolerance"),
        "min_significance": _parse_number(query, "min_significance") or 0.0,
        "region": parse_region(query.get("region")),
    }


def _require_param(query: dict, name: str) -> str:
    value = query.get(name)
    if not value:
        raise RestorationError(f"query param {name!r} is required")
    return value


@functools.lru_cache(maxsize=256)
def _npy_header(shape: tuple, dtype: np.dtype) -> tuple[bytes, dict]:
    """What a response says about an array before the array's bytes.

    Both are pure functions of shape and dtype, so each product shape
    pays for them once: the header ``np.save`` writes before a C-ordered
    array (from numpy's own format 1.0 writer), and the HTTP headers
    that describe the array.
    """
    out = bytearray()
    np.lib.format.write_array_header_1_0(
        types.SimpleNamespace(write=out.extend),
        {
            "descr": np.lib.format.dtype_to_descr(dtype),
            "fortran_order": False,
            "shape": shape,
        },
    )
    return bytes(out), {
        "x-canopus-shape": ",".join(str(n) for n in shape),
        "x-canopus-dtype": str(dtype),
        # A field holds one value per vertex of its level's mesh.
        "x-canopus-vertices": str(shape[-1]),
    }


#: (path below ``/v1``, method, handler). A ``{...}`` segment binds one
#: path segment, ``{key}`` the whole rest; the joined pattern is the
#: low-cardinality route label of metrics, SLOs and traces.
_ROUTES = tuple(
    (tuple(path.split("/")), method, handler)
    for path, method, handler in (
        ("metrics", "GET", "_metrics"),
        ("traces", "GET", "_traces"),
        ("trace/{id}", "GET", "_trace"),
        ("query/stats", "GET", "_query_stats"),
        ("query/blobs", "GET", "_query_blobs"),
        ("campaigns/{name}/open", "POST", "_open"),
        ("campaigns/{name}", "GET", "_open"),
        ("campaigns/{name}/vars/{var}/restore", "GET", "_restore"),
        ("campaigns/{name}/vars/{var}/stats", "GET", "_stats"),
        ("campaigns/{name}/vars/{var}/plan", "GET", "_plan"),
        ("campaigns/{name}/raw/{key}", "GET", "_raw"),
    )
)


@functools.lru_cache(maxsize=1024)
def _resolve(method: str, path: str) -> tuple[str, str, tuple]:
    """(route label, handler name, bound path segments).

    The one walk of :data:`_ROUTES` a request gets (none at all when
    the same method and path were seen before). A path that matches a
    pattern under another method keeps the label and is answered 404,
    like a path that matches nothing ("other").
    """
    if path == "/healthz":  # answered by _dispatch itself, before auth
        return "/healthz", "_healthz", ()
    parts = [p for p in path.split("/") if p]
    if parts[:1] == ["v1"]:
        del parts[0]
        for pattern, wanted, handler in _ROUTES:
            n = len(pattern)
            if len(parts) < n or (len(parts) > n and pattern[-1] != "{key}"):
                continue
            pairs = list(zip(pattern, parts))
            if all(w[0] == "{" or w == got for w, got in pairs):
                bound = [got for w, got in pairs if w[0] == "{"]
                if len(parts) > n:
                    bound[-1] = "/".join(parts[n - 1:])
                return (
                    "/v1/" + "/".join(pattern),
                    handler if method == wanted else "_not_found",
                    tuple(bound),
                )
    return "other", "_not_found", ()


class ServiceNode:
    """Stateless request handling over one data node."""

    def __init__(
        self,
        datanode: DataNode,
        tenants: TenantRegistry,
        *,
        metrics: MetricsRegistry | None = None,
        trace_buffer: TraceBuffer | None = None,
        access_log: JsonlLogger | None = None,
        slo_target_seconds: float = 0.5,
        slo_objective: float = 0.95,
    ) -> None:
        self.datanode = datanode
        self.tenants = tenants
        self.metrics = metrics if metrics is not None else get_registry()
        self.trace_buffer = trace_buffer
        self.access_log = access_log
        self.slo_target_seconds = float(slo_target_seconds)
        self.slo_objective = float(slo_objective)
        self._slos: dict[str, SLO] = {}

    # -- dispatch -------------------------------------------------------
    async def handle(self, request: Request) -> Response:
        """Route one request; never raises (errors become responses).

        This is where a request's observable identity is established:
        an incoming ``traceparent`` is honored (invalid ones are treated
        as absent), otherwise a fresh trace id is minted; the context is
        active for the whole request — asyncio hops and, via explicit
        propagation, every executor thread the request touches.
        """
        t0 = time.perf_counter()
        upstream = obs_context.parse_traceparent(request.traceparent)
        if upstream is not None:
            ctx = upstream
            head_sampled: bool | None = upstream.sampled
        else:
            ctx = obs_context.TraceContext(trace_id=obs_context.new_trace_id())
            head_sampled = None
        token = obs_context.activate(ctx)
        route, handler, bound = _resolve(request.method, request.path)
        error: str | None = None
        try:
            try:
                response = await self._dispatch(
                    request, route, handler, bound
                )
            except QuotaError as exc:
                response = Response.json(
                    {"error": str(exc), "code": exc.code},
                    status=http_status(exc),
                    headers={"retry-after": f"{exc.retry_after:.3f}"},
                )
            except ReproError as exc:
                response = Response.json(
                    {"error": str(exc), "code": error_code(exc)},
                    status=http_status(exc),
                )
            except Exception as exc:  # noqa: BLE001 — the wire must answer
                error = f"{type(exc).__name__}: {exc}"
                response = Response.json(
                    {"error": error, "code": "internal"},
                    status=500,
                )
            tenant_name = (obs_context.current() or ctx).tenant
            self._finish_request(
                request,
                response,
                route=route,
                tenant=tenant_name,
                wall_seconds=time.perf_counter() - t0,
                error=error,
                head_sampled=head_sampled,
                trace_id=ctx.trace_id,
            )
        finally:
            obs_context.deactivate(token)
        return response

    def _finish_request(
        self,
        request: Request,
        response: Response,
        *,
        route: str,
        tenant: str,
        wall_seconds: float,
        error: str | None,
        head_sampled: bool | None,
        trace_id: str,
    ) -> None:
        """Account one finished request and stamp its identity headers."""
        self.metrics.counter(
            "service.responses", status=str(response.status)
        ).inc()
        if route != "/healthz":
            self.metrics.histogram(
                "service.request_seconds",
                route=route,
                tenant=tenant or "-",
            ).observe(wall_seconds)
            slo = self._slos.get(route)
            if slo is None:
                slo = self._slos[route] = SLO(
                    route,
                    target_seconds=self.slo_target_seconds,
                    objective=self.slo_objective,
                    registry=self.metrics,
                )
            slo.observe(
                wall_seconds, error=error is not None or response.status >= 500
            )
        if self.access_log is not None:
            self.access_log.access(
                method=request.method,
                path=request.path,
                status=response.status,
                wall_seconds=wall_seconds,
                route=route,
                trace_id=trace_id,
                tenant=tenant,
                error=error,
            )
        if self.trace_buffer is not None:
            self.trace_buffer.finish(
                trace_id,
                route=route,
                method=request.method,
                tenant=tenant,
                status=response.status,
                wall_seconds=wall_seconds,
                error=error,
                sampled=head_sampled,
            )
        response.headers.setdefault("x-request-id", trace_id)
        response.headers.setdefault(
            "traceparent",
            obs_context.format_traceparent(
                trace_id,
                obs_context.new_span_id(),
                sampled=True if head_sampled is None else head_sampled,
            ),
        )

    async def _dispatch(
        self, request: Request, route: str, handler: str, bound: tuple
    ) -> Response:
        if handler == "_healthz":
            return Response.json({"ok": True})
        tenant = self.tenants.authenticate(request.header("authorization"))
        # Record the tenant on the request context: executor jobs copy
        # the context, so SimClock charges and spans inherit it; the
        # token is dropped deliberately — handle() resets the whole
        # context when the request ends.
        obs_context.bind_tenant(tenant.name)
        self.tenants.admit(tenant)
        try:
            with trace.span(
                f"http {request.method} {route}", "service",
                {"path": request.path, "tenant": tenant.name},
            ):
                response = await getattr(self, handler)(
                    request, tenant, *bound
                )
            self.tenants.charge_bytes(tenant, response.content_length)
            return response
        finally:
            self.tenants.release(tenant)

    async def _not_found(self, request: Request, tenant, *bound) -> Response:
        return Response.json(
            {
                "error": f"no route for {request.method} {request.path}",
                "code": "not-found",
            },
            status=404,
        )

    # -- handlers -------------------------------------------------------
    async def _open(self, request, tenant, name: str) -> Response:
        info = await self.datanode.open_campaign(name, tenant=tenant)
        return Response.json(info)

    async def _restore(
        self, request: Request, tenant: TenantConfig, name: str, var: str
    ) -> Response:
        if_none_match = (
            request.header("if-none-match", "") or ""
        ).strip('"') or None
        result = await self.datanode.restore(
            name,
            var,
            **_selection(request.query),
            cursor=request.query.get("cursor") or None,
            if_none_match=if_none_match,
            tenant=tenant,
        )
        hit = result.cache_hit
        self.metrics.counter(
            "service.cache.hits" if hit else "service.cache.misses",
            tenant=tenant.name,
        ).inc()
        common = {
            "etag": f'"{result.cursor}"',
            "x-canopus-cursor": result.cursor,
            "x-canopus-cache": "hit" if hit else "miss",
        }
        field = result.field
        if field is None:
            return Response(status=304, headers=common)
        npy_header, described = _npy_header(field.shape, field.dtype)
        headers = {
            **common,
            "x-canopus-level": str(result.level),
            "x-canopus-rms": repr(float(result.rms)),
            **described,
        }
        # The body is np.save(field) without the copy: the header, then
        # a view of the (C-ordered) field's own bytes.
        flat = np.ascontiguousarray(field).reshape(-1)
        return Response.binary(
            (npy_header, memoryview(flat.view(np.uint8))),
            content_type=NPY_CONTENT_TYPE,
            headers=headers,
        )

    async def _stats(
        self, request: Request, tenant: TenantConfig, name: str, var: str
    ) -> Response:
        level = _parse_number(request.query, "level", int)
        rows = await self.datanode.stats(
            name, var, level=level, tenant=tenant
        )
        return Response.json({"campaign": name, "var": var, "chunks": rows})

    async def _plan(
        self, request: Request, tenant: TenantConfig, name: str, var: str
    ) -> Response:
        plan = await self.datanode.plan(
            name, var, **_selection(request.query), tenant=tenant
        )
        return Response.json({"campaign": name, "plan": plan})

    async def _query_stats(
        self, request: Request, tenant: TenantConfig
    ) -> Response:
        name = _require_param(request.query, "campaign")
        var = _require_param(request.query, "var")
        region = parse_region(request.query.get("region"))
        result = await self.datanode.query_stats(
            name, var, step=_parse_number(request.query, "step", int),
            region=region, tenant=tenant,
        )
        return Response.json({"campaign": name, **result})

    async def _query_blobs(
        self, request: Request, tenant: TenantConfig
    ) -> Response:
        name = _require_param(request.query, "campaign")
        var = _require_param(request.query, "var")
        threshold = _parse_number(request.query, "threshold")
        if threshold is None:
            raise RestorationError("query param 'threshold' is required")
        region = parse_region(request.query.get("region"))
        shape = parse_shape(request.query.get("shape"))
        result = await self.datanode.query_blobs(
            name,
            var,
            threshold=threshold,
            step=_parse_number(request.query, "step", int),
            region=region,
            shape=shape,
            tenant=tenant,
        )
        return Response.json({"campaign": name, **result})

    async def _raw(
        self, request: Request, tenant: TenantConfig, name: str, key: str
    ) -> Response:
        start = _parse_number(request.query, "start", int) or 0
        length = _parse_number(request.query, "length", int)
        blob, meta = await self.datanode.read_raw(
            name, key, start=start, length=length, tenant=tenant
        )
        headers = {
            f"x-canopus-{k.replace('_', '-')}": str(v)
            for k, v in meta.items()
        }
        return Response.binary(blob, headers=headers)

    async def _metrics(self, request: Request, tenant) -> Response:
        fmt = (request.query.get("format") or "").strip().lower()
        if fmt == "prometheus":
            text = render_prometheus(self.metrics)
            return Response(
                status=200,
                headers={
                    "content-type": (
                        "text/plain; version=0.0.4; charset=utf-8"
                    )
                },
                body=text.encode("utf-8"),
            )
        if fmt and fmt != "json":
            raise RestorationError(
                f"unknown metrics format {fmt!r} (expected 'prometheus')"
            )
        payload = {
            "service": self.metrics.prefix_snapshot("service"),
            "metrics": self.metrics.snapshot(),
            "tenants": self.tenants.usage(),
            "datanode": self.datanode.metrics(),
            "slo": {
                route: slo.snapshot()
                for route, slo in sorted(self._slos.items())
            },
        }
        if self.trace_buffer is not None:
            payload["traces"] = self.trace_buffer.stats()
        return Response.json(payload)

    async def _traces(self, request: Request, tenant) -> Response:
        limit = _parse_number(request.query, "limit", int)
        if self.trace_buffer is None:
            return Response.json({"tracing": False, "traces": []})
        kept = self.trace_buffer.list(limit if limit is not None else 20)
        return Response.json(
            {
                "tracing": True,
                "traces": [t.to_summary() for t in kept],
                "stats": self.trace_buffer.stats(),
            }
        )

    async def _trace(self, request, tenant, trace_id: str) -> Response:
        if self.trace_buffer is None:
            return Response.json(
                {"error": "tracing is disabled", "code": "not-found"},
                status=404,
            )
        kept = self.trace_buffer.get(trace_id)
        if kept is None:
            return Response.json(
                {
                    "error": f"trace {trace_id!r} not in the buffer "
                    "(dropped by sampling or evicted)",
                    "code": "not-found",
                },
                status=404,
            )
        return Response.json(kept.to_dict())


class CanopusService:
    """The deployable unit: asyncio server + service node + data node.

    One process serves one storage hierarchy. ``tenants`` may be a
    :class:`TenantRegistry`, a list of :class:`TenantConfig`, or
    ``None`` for open access (single anonymous tenant, no budgets —
    development only).

    ``tracing=True`` turns on request tracing for the whole process: a
    :class:`~repro.obs.trace.Tracer` is installed for the server's
    lifetime (attached to the hierarchy's SimClock) feeding a
    :class:`~repro.obs.trace.TraceBuffer`, so sampled/slow/error
    requests are queryable at ``/v1/trace*``. It defaults to off —
    untraced serving must keep the one-attribute-check fast path.
    """

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        *,
        tenants: TenantRegistry | list[TenantConfig] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: int = 8,
        cache_bytes: int = 64 << 20,
        verify_checksums: bool = True,
        metrics: MetricsRegistry | None = None,
        tracing: bool = False,
        trace_capacity: int = 256,
        trace_sample_rate: float = 0.1,
        trace_slow_seconds: float = 1.0,
        slo_target_seconds: float = 0.5,
        slo_objective: float = 0.95,
        access_log: JsonlLogger | None = None,
    ) -> None:
        if isinstance(tenants, TenantRegistry):
            registry = tenants
        elif tenants is None:
            registry = TenantRegistry.open_access(metrics=metrics)
        else:
            registry = TenantRegistry(list(tenants), metrics=metrics)
        self.tenants = registry
        self.host = host
        self.port = port
        self.hierarchy = hierarchy
        self.datanode = DataNode(
            hierarchy,
            tenants=registry,
            executor_workers=executor_workers,
            cache_bytes=cache_bytes,
            verify_checksums=verify_checksums,
        )
        self.trace_buffer = (
            TraceBuffer(
                trace_capacity,
                sample_rate=trace_sample_rate,
                slow_seconds=trace_slow_seconds,
            )
            if tracing
            else None
        )
        self.node = ServiceNode(
            self.datanode,
            registry,
            metrics=metrics,
            trace_buffer=self.trace_buffer,
            access_log=access_log,
            slo_target_seconds=slo_target_seconds,
            slo_objective=slo_objective,
        )
        self.tracer: Tracer | None = None
        self._previous_tracer: Tracer | None = None
        self._server: asyncio.AbstractServer | None = None
        #: Open client connections: handler task -> its stream writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- connection plumbing -------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ServiceError as exc:
                    Response.json(
                        {"error": str(exc), "code": exc.code}, status=400
                    ).write_to(writer, keep_alive=False)
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self.node.handle(request)
                keep = (
                    request.header("connection", "keep-alive").lower()
                    != "close"
                )
                response.write_to(writer, keep_alive=keep)
                await writer.drain()
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away mid-frame; nothing to assemble
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        if self._server is not None:
            raise ServiceError("service already started")
        if self.trace_buffer is not None and self.tracer is None:
            self.tracer = Tracer(
                clock=self.hierarchy.clock,
                sinks=[self.trace_buffer],
                registry=self.node.metrics,
            )
            self.tracer.attach_clock(self.hierarchy.clock)
            self._previous_tracer = trace._install(self.tracer)
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # A closed transport reads as end of stream, so each handler
        # leaves its loop by itself; wait for them, or the loop would be
        # torn down around their pending reads.
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.wait(list(self._connections))
        if self.tracer is not None:
            trace._uninstall(self._previous_tracer)
            self.tracer.detach_clock()
            self.tracer = None
            self._previous_tracer = None
        # Executor shutdown waits for in-flight decodes; keep the loop
        # responsive by doing the wait off-loop.
        await asyncio.get_running_loop().run_in_executor(
            None, self.datanode.close
        )

    async def __aenter__(self) -> "CanopusService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()


class ServiceThread:
    """Host a :class:`CanopusService` on its own thread + event loop.

    The pattern every test/benchmark needs: start, learn the bound
    port, hammer it from the caller's own loop, stop. ``stop()`` joins
    the thread after the service has fully shut down.
    """

    def __init__(self, service: CanopusService) -> None:
        self.service = service
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._shutdown: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        if self._thread is not None:
            raise ServiceError("service thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServiceError("service thread failed to start in time")
        if self._startup_error is not None:
            raise ServiceError(
                f"service failed to start: {self._startup_error}"
            ) from self._startup_error
        return self.service.host, self.service.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def _main() -> None:
            self._shutdown = asyncio.Event()
            try:
                # start_server begins accepting immediately; no
                # serve_forever needed.
                await self.service.start()
            except BaseException as exc:  # noqa: BLE001 — report to starter
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            await self._shutdown.wait()
            await self.service.stop()

        try:
            loop.run_until_complete(_main())
        finally:
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        if self._shutdown is not None:
            loop.call_soon_threadsafe(self._shutdown.set)
        thread.join(timeout)
        self._loop = None
        self._thread = None
        self._shutdown = None

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
