"""High-level asyncio client for the Canopus read tier.

Wraps one keep-alive :class:`~repro.service.http.ClientConnection` with
typed methods mirroring the endpoint surface. Non-2xx responses raise
the *same* exception classes the server mapped from — the wire contract
is the ``code`` string, so ``except VariableNotFoundError`` works the
same whether the library runs in-process or behind the service.

.. code-block:: python

    async with ServiceClient(host, port, token="s3cret") as client:
        info = await client.open_campaign("fig9-multi")
        field, meta = await client.restore("fig9-multi", "dpot", level=1)
        finer, meta = await client.restore(
            "fig9-multi", "dpot", level=0, cursor=meta["cursor"]
        )
"""

from __future__ import annotations

import io

import numpy as np

from repro.errors import (
    AuthError,
    ConflictError,
    QuotaError,
    ReproError,
    RestorationError,
    ServiceError,
    StorageError,
    VariableNotFoundError,
)
from repro.obs import context as obs_context
from repro.service.http import ClientConnection, Response

__all__ = ["ServiceClient"]

#: Wire code → exception raised client-side (subset that matters to
#: callers; anything unrecognized raises plain ReproError).
_CODE_TO_ERROR: dict[str, type[ReproError]] = {
    "unauthorized": AuthError,
    "quota-exceeded": QuotaError,
    "not-found": VariableNotFoundError,
    "conflict": ConflictError,
    "bad-request": RestorationError,
    "bad-format": RestorationError,
    "storage": StorageError,
    "capacity": StorageError,
    "service": ServiceError,
}


def _raise_for(response: Response) -> None:
    if response.status < 400:
        return
    try:
        payload = response.parsed_json()
    except ValueError:
        payload = {}
    code = payload.get("code", "internal")
    message = payload.get("error", f"HTTP {response.status}")
    cls = _CODE_TO_ERROR.get(code, ReproError)
    if cls is QuotaError:
        retry = float(response.header("retry-after", "1.0") or 1.0)
        raise QuotaError(message, retry_after=retry)
    raise cls(message)


class ServiceClient:
    """One tenant's connection to a running :class:`CanopusService`.

    Every request carries a W3C ``traceparent`` header: when the caller
    already runs inside a trace context (e.g. under
    :func:`repro.api.trace_session` behind a service of its own) that
    context's trace id is forwarded, otherwise a fresh one is minted per
    request. The id the server answered under comes back in each
    ``meta["request_id"]`` — quote it to ``GET /v1/trace/{id}``
    (:meth:`trace`) to see where that exact request spent its time.
    """

    def __init__(self, host: str, port: int, *, token: str = "") -> None:
        self.token = token
        self._conn = ClientConnection(host, port)
        #: x-request-id of the most recent response (None before any).
        self.last_request_id: str | None = None

    # -- plumbing -------------------------------------------------------
    def _headers(self, extra: dict | None = None) -> dict[str, str]:
        headers: dict[str, str] = {}
        if self.token:
            headers["authorization"] = f"Bearer {self.token}"
        ctx = obs_context.current()
        if ctx is not None and ctx.trace_id:
            headers["traceparent"] = ctx.traceparent()
        else:
            headers["traceparent"] = obs_context.format_traceparent(
                obs_context.new_trace_id(), obs_context.new_span_id()
            )
        if extra:
            headers.update(extra)
        return headers

    def _note_response(self, resp: Response) -> None:
        rid = resp.header("x-request-id")
        if rid:
            self.last_request_id = rid

    async def _get(self, target: str, *, headers: dict | None = None) -> Response:
        resp = await self._conn.request(
            "GET", target, headers=self._headers(headers)
        )
        self._note_response(resp)
        return resp

    @staticmethod
    def _query(params: dict) -> str:
        pairs = [
            f"{k}={v}" for k, v in params.items() if v is not None and v != ""
        ]
        return "?" + "&".join(pairs) if pairs else ""

    @staticmethod
    def _region_param(region) -> str | None:
        if region is None:
            return None
        lo, hi = region
        return (
            ",".join(repr(float(v)) for v in np.asarray(lo).ravel())
            + ":"
            + ",".join(repr(float(v)) for v in np.asarray(hi).ravel())
        )

    # -- endpoints ------------------------------------------------------
    async def healthz(self) -> bool:
        resp = await self._get("/healthz")
        return resp.status == 200 and resp.parsed_json().get("ok") is True

    async def open_campaign(self, name: str) -> dict:
        resp = await self._conn.request(
            "POST", f"/v1/campaigns/{name}/open", headers=self._headers()
        )
        self._note_response(resp)
        _raise_for(resp)
        return resp.parsed_json()

    async def restore(
        self,
        name: str,
        var: str,
        *,
        step: int | None = None,
        level: int | None = None,
        tolerance: float | None = None,
        region=None,
        min_significance: float = 0.0,
        cursor: str | None = None,
        if_none_match: str | None = None,
    ) -> tuple[np.ndarray | None, dict]:
        """Restore a variable; returns ``(field, meta)``.

        ``step`` selects one timestep of a campaign variable.

        ``field`` is ``None`` on a 304 (the ``if_none_match`` cursor
        already names the result). ``meta`` carries ``level``,
        ``cursor``, ``rms``, ``cache`` and the raw byte count.
        """
        params: dict = {
            "step": step,
            "level": level,
            "tolerance": tolerance,
            "min_significance": min_significance or None,
            "cursor": cursor,
        }
        params["region"] = self._region_param(region)
        headers = {}
        if if_none_match:
            headers["if-none-match"] = f'"{if_none_match}"'
        resp = await self._get(
            f"/v1/campaigns/{name}/vars/{var}/restore" + self._query(params),
            headers=headers,
        )
        _raise_for(resp)
        meta = {
            "cursor": resp.header("x-canopus-cursor"),
            "cache": resp.header("x-canopus-cache"),
            "bytes": len(resp.body),
            "status": resp.status,
            "request_id": resp.header("x-request-id"),
        }
        if resp.status == 304:
            return None, meta
        meta["level"] = int(resp.header("x-canopus-level", "-1"))
        rms_raw = resp.header("x-canopus-rms", "nan") or "nan"
        meta["rms"] = float(rms_raw)
        field = np.load(io.BytesIO(resp.body), allow_pickle=False)
        return field, meta

    async def stats(
        self, name: str, var: str, *, level: int | None = None
    ) -> list[dict]:
        resp = await self._get(
            f"/v1/campaigns/{name}/vars/{var}/stats"
            + self._query({"level": level})
        )
        _raise_for(resp)
        return resp.parsed_json()["chunks"]

    async def plan(
        self,
        name: str,
        var: str,
        *,
        step: int | None = None,
        level: int | None = None,
        tolerance: float | None = None,
        region=None,
        min_significance: float = 0.0,
    ) -> dict:
        """Explain a restore without executing it (the retrieval plan)."""
        resp = await self._get(
            f"/v1/campaigns/{name}/vars/{var}/plan"
            + self._query(
                {
                    "step": step,
                    "level": level,
                    "tolerance": tolerance,
                    "min_significance": min_significance or None,
                    "region": self._region_param(region),
                }
            )
        )
        _raise_for(resp)
        return resp.parsed_json()["plan"]

    async def query_stats(
        self, name: str, var: str, *, step: int | None = None, region=None
    ) -> dict:
        """Pushdown aggregate statistics over an optional region.

        Executes against per-chunk summaries inside the data node —
        a pruned/summarized query ships no field bytes at all.
        """
        resp = await self._get(
            "/v1/query/stats"
            + self._query(
                {
                    "campaign": name,
                    "var": var,
                    "step": step,
                    "region": self._region_param(region),
                }
            )
        )
        _raise_for(resp)
        return resp.parsed_json()

    async def query_blobs(
        self,
        name: str,
        var: str,
        *,
        threshold: float,
        step: int | None = None,
        region=None,
        shape: tuple[int, int] | None = None,
    ) -> dict:
        """Pushdown blob detection above a field-value threshold."""
        resp = await self._get(
            "/v1/query/blobs"
            + self._query(
                {
                    "campaign": name,
                    "var": var,
                    "step": step,
                    "threshold": repr(float(threshold)),
                    "region": self._region_param(region),
                    "shape": (
                        None if shape is None
                        else ",".join(str(int(v)) for v in shape)
                    ),
                }
            )
        )
        _raise_for(resp)
        return resp.parsed_json()

    async def read_raw(
        self,
        name: str,
        key: str,
        *,
        start: int = 0,
        length: int | None = None,
    ) -> tuple[bytes, dict]:
        resp = await self._get(
            f"/v1/campaigns/{name}/raw/{key}"
            + self._query({"start": start or None, "length": length})
        )
        _raise_for(resp)
        meta = {
            k[len("x-canopus-") :]: v
            for k, v in resp.headers.items()
            if k.startswith("x-canopus-")
        }
        return resp.body, meta

    async def metrics(self, *, format: str | None = None) -> dict | str:
        """Server metrics: parsed JSON, or raw text for ``"prometheus"``."""
        target = "/v1/metrics"
        if format:
            target += f"?format={format}"
        resp = await self._get(target)
        _raise_for(resp)
        if format == "prometheus":
            return resp.body.decode("utf-8")
        return resp.parsed_json()

    async def traces(self, *, limit: int = 20) -> dict:
        """Summaries of recently kept request traces (newest first)."""
        resp = await self._get(f"/v1/traces?limit={int(limit)}")
        _raise_for(resp)
        return resp.parsed_json()

    async def trace(self, trace_id: str) -> dict:
        """One kept request trace with its full span tree.

        Raises :class:`VariableNotFoundError` when the id was dropped
        by sampling or already evicted from the ring.
        """
        resp = await self._get(f"/v1/trace/{trace_id}")
        _raise_for(resp)
        return resp.parsed_json()

    async def close(self) -> None:
        await self._conn.close()

    async def __aenter__(self) -> "ServiceClient":
        await self._conn.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
