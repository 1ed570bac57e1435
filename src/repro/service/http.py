"""Minimal HTTP/1.1 over asyncio streams (stdlib only).

The container image has no third-party HTTP stack, so the read tier
speaks a deliberately small slice of HTTP/1.1: request line + headers +
``Content-Length`` bodies, keep-alive connections, no chunked encoding,
no TLS. That slice is enough for ``curl``, for the bundled
:class:`~repro.service.client.ServiceClient`, and for hundreds of
concurrent load-generator connections, while keeping the parser a few
dozen auditable lines.

Both sides live here: :func:`read_request` / :meth:`Response.write_to`
serve the listener, and :class:`ClientConnection` issues requests and
parses :class:`Response` frames back.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import ServiceError

__all__ = [
    "ClientConnection",
    "REASONS",
    "Request",
    "Response",
    "read_request",
]

#: Reason phrases for every status the service emits.
REASONS = {
    200: "OK",
    204: "No Content",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Hard caps keeping one misbehaving client from ballooning the parser.
MAX_LINE = 16 * 1024
MAX_HEADERS = 100
MAX_BODY = 64 << 20

#: A body buffer up to this size is joined to what precedes it in the
#: frame: below it a ``send`` of its own (and the peer's extra wake-up)
#: costs more than the copy. Larger buffers are written as they are.
COALESCE_BYTES = 16 << 10


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)

    @property
    def traceparent(self) -> str | None:
        """Raw W3C ``traceparent`` header, if the caller sent one."""
        return self.headers.get("traceparent")

    def json(self):
        try:
            return json.loads(self.body.decode("utf-8") or "null")
        except ValueError as exc:
            raise ServiceError(f"invalid JSON body: {exc}") from exc


@dataclass
class Response:
    """One HTTP response, framed by Content-Length.

    ``body`` is one ``bytes`` object or a sequence of buffers (``bytes``
    or byte-format ``memoryview``s) that go to the socket in order; a
    large one is never copied (see :meth:`write_to`): a restore ships a
    view of the restored field.
    """

    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes | tuple = b""

    @classmethod
    def json(
        cls, payload, *, status: int = 200, headers: dict | None = None
    ) -> "Response":
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        hdrs = {"content-type": "application/json"}
        if headers:
            hdrs.update(headers)
        return cls(status=status, headers=hdrs, body=body)

    @classmethod
    def binary(
        cls,
        body: bytes | tuple,
        *,
        status: int = 200,
        content_type: str = "application/octet-stream",
        headers: dict | None = None,
    ) -> "Response":
        hdrs = {"content-type": content_type}
        if headers:
            hdrs.update(headers)
        return cls(status=status, headers=hdrs, body=body)

    def parsed_json(self):
        return json.loads(self.body.decode("utf-8") or "null")

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)

    @property
    def request_id(self) -> str | None:
        """The server-assigned ``x-request-id`` (= trace id), if any."""
        return self.headers.get("x-request-id")

    def buffers(self) -> tuple:
        """The body as the buffers to write, in order."""
        body = self.body
        return (body,) if isinstance(body, bytes) else tuple(body)

    @property
    def content_length(self) -> int:
        return sum(len(buf) for buf in self.buffers())

    def head(self, *, keep_alive: bool = True) -> bytes:
        """Status line and headers, up to and including the blank line."""
        reason = REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        headers = dict(self.headers)
        headers.setdefault("content-length", str(self.content_length))
        headers.setdefault(
            "connection", "keep-alive" if keep_alive else "close"
        )
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    def write_to(self, writer, *, keep_alive: bool = True) -> None:
        """Queue the whole frame on a stream writer.

        The head and the small buffers go out joined, one write per run
        of them; a buffer above :data:`COALESCE_BYTES` is handed to the
        writer as it is, uncopied.
        """
        small = [self.head(keep_alive=keep_alive)]
        for buf in self.buffers():
            if len(buf) <= COALESCE_BYTES:
                small.append(buf)
            else:
                writer.write(b"".join(small))
                writer.write(buf)
                small = []
        if small:
            writer.write(b"".join(small))


async def _read_head(reader: asyncio.StreamReader) -> list[str] | None:
    """Read request/status line + headers; None on clean EOF."""
    lines: list[str] = []
    while True:
        try:
            raw = await reader.readuntil(b"\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial and not lines:
                return None  # connection closed between requests
            raise ServiceError("truncated HTTP frame") from exc
        except asyncio.LimitOverrunError as exc:
            raise ServiceError("HTTP line too long") from exc
        if len(raw) > MAX_LINE:
            raise ServiceError("HTTP line too long")
        line = raw.decode("latin-1").rstrip("\r\n")
        if not line:
            if not lines:
                continue  # tolerate leading blank lines
            return lines
        lines.append(line)
        if len(lines) > MAX_HEADERS + 1:
            raise ServiceError("too many HTTP headers")


def _parse_headers(lines: list[str]) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise ServiceError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


async def _read_body(
    reader: asyncio.StreamReader, headers: dict[str, str]
) -> bytes:
    raw = headers.get("content-length") or "0"
    length = int(raw) if raw.isascii() and raw.isdigit() else -1
    if length < 0 or length > MAX_BODY:
        raise ServiceError(f"unacceptable content-length {raw!r}")
    if length == 0:
        return b""
    return await reader.readexactly(length)


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request; returns None when the peer closed cleanly."""
    lines = await _read_head(reader)
    if lines is None:
        return None
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ServiceError(f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)
    headers = _parse_headers(lines[1:])
    body = await _read_body(reader, headers)
    return Request(
        method=method.upper(),
        path=unquote(split.path),
        query={k: v for k, v in parse_qsl(split.query, keep_blank_values=True)},
        headers=headers,
        body=body,
    )


class ClientConnection:
    """One keep-alive client connection (the transport of :class:`ServiceClient`).

    Not a general HTTP client: exactly one in-flight request per
    connection, Content-Length framing only — the same slice the server
    speaks.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "ClientConnection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE
        )
        return self

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def request(
        self,
        method: str,
        target: str,
        *,
        headers: dict[str, str] | None = None,
        body: bytes = b"",
    ) -> Response:
        if self._writer is None:
            await self.connect()
        assert self._writer is not None and self._reader is not None
        hdrs = {"host": f"{self.host}:{self.port}"}
        if headers:
            hdrs.update({k.lower(): v for k, v in headers.items()})
        hdrs["content-length"] = str(len(body))
        lines = [f"{method.upper()} {target} HTTP/1.1"]
        lines.extend(f"{k}: {v}" for k, v in hdrs.items())
        self._writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        await self._writer.drain()
        return await self._read_response()

    async def _read_response(self) -> Response:
        assert self._reader is not None
        lines = await _read_head(self._reader)
        if lines is None:
            raise ServiceError("server closed connection mid-request")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ServiceError(f"malformed status line {lines[0]!r}")
        status = int(parts[1])
        headers = _parse_headers(lines[1:])
        body = await _read_body(self._reader, headers)
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return Response(status=status, headers=headers, body=body)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "ClientConnection":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()
