"""Tiny stdlib asyncio HTTP/1.1 server for the service tier.

Deliberately minimal, and the repo's one HTTP parser (the obs
``GET /metrics`` endpoint is a one-route handler on it):
one connection per request (``Connection: close``), a readline header
parse with per-read timeouts, JSON in / JSON out. Enough HTTP for a
control-plane front door — tenant registrations and state queries from
``curl`` or the CI smoke — without pulling a web framework into a
repo whose rule is "stdlib only".

Abuse guards at the parse layer: a body-size cap (``413``), a request
line over the stream's 64 KiB line limit (``414``), a header line cap
(the same limit), a header line count and byte cap so a slowloris-style
header stream cannot grow memory unboundedly (``431``), and a malformed ``Content-Length`` is a client
error (``400``), not a size error. Above the parser, ``max_connections``
bounds concurrently open sockets; excess connections get an immediate
``503`` with ``Retry-After`` instead of queueing without bound.

Request metrics (when a registry is wired): ``repro_http_requests_total``
labelled by method and status class, and a latency histogram.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.guard import ConcurrencyLimiter

__all__ = ["HttpRequest", "HttpResponse", "HttpServer"]

#: Largest request body accepted (tenant records are tiny; this is a
#: plain abuse guard, mirroring the wire protocol's frame cap spirit).
MAX_BODY = 1 * 1024 * 1024

#: Header-section caps: a well-formed client needs a handful of headers,
#: so 64 lines / 16 KiB is generous while keeping a hostile peer from
#: streaming headers forever into the parse buffer.
MAX_HEADERS = 64
MAX_HEADER_BYTES = 16 * 1024

#: Per-read timeout while parsing one request.
READ_TIMEOUT_S = 5.0

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _RequestError(Exception):
    """Parse-layer rejection carrying the HTTP status to report."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _readline(reader, status: int, message: str) -> bytes:
    """One line, or ``status`` if it overruns the stream's buffer limit."""
    try:
        return await asyncio.wait_for(reader.readline(), timeout=READ_TIMEOUT_S)
    except ValueError:  # asyncio.LimitOverrunError, re-raised by readline
        raise _RequestError(status, message) from None


@dataclass
class HttpRequest:
    """One parsed request: method, split path, query, headers, raw body."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Dict:
        """Decode the body as a JSON object; raises ValueError if not one."""
        if not self.body:
            return {}
        payload = json.loads(self.body.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload


@dataclass
class HttpResponse:
    """One response: status code plus a JSON payload or a plain-text body.

    ``headers`` carries extra response headers (e.g. ``Retry-After`` on a
    shed). ``text`` — when not ``None`` — replaces the JSON payload with a
    ``text/plain`` body, which the Prometheus ``/metrics`` route needs.
    """

    status: int
    payload: Dict = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    text: Optional[str] = None

    def encode(self) -> bytes:
        if self.text is not None:
            body = self.text.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = (json.dumps(self.payload, sort_keys=True) + "\n").encode(
                "utf-8"
            )
            content_type = "application/json; charset=utf-8"
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("ascii") + body


class HttpServer:
    """Serve one async ``handler(HttpRequest) -> HttpResponse``."""

    def __init__(
        self,
        handler: Callable[[HttpRequest], Awaitable[HttpResponse]],
        host: str = "127.0.0.1",
        port: int = 0,
        metrics=None,
        max_connections: Optional[int] = None,
    ) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.requests_served = 0
        self.connections_shed = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections = (
            ConcurrencyLimiter(max_connections)
            if max_connections is not None
            else None
        )
        self._metrics = metrics
        self._m_latency = None
        if metrics is not None:
            self._m_latency = metrics.histogram(
                "repro_http_request_seconds", "request handling latency"
            )

    async def start(self) -> None:
        """Begin serving; ``self.port`` holds the bound port."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and wait for the socket to release."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _count(self, method: str, status: int) -> None:
        self.requests_served += 1
        if self._metrics is not None:
            self._metrics.counter(
                "repro_http_requests_total",
                "HTTP requests served",
                method=method,
                code=str(status),
            ).inc()

    async def _read_request(self, reader) -> Optional[HttpRequest]:
        request_line = await _readline(reader, 414, "request line too long")
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        header_lines = header_bytes = 0
        while True:
            line = await _readline(reader, 431, "request header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            header_lines += 1
            header_bytes += len(line)
            if header_lines > MAX_HEADERS or header_bytes > MAX_HEADER_BYTES:
                raise _RequestError(431, "too many request headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _RequestError(400, "malformed content-length") from None
        if length < 0:
            raise _RequestError(400, "malformed content-length")
        if length > MAX_BODY:
            raise _RequestError(413, "body too large")
        body = b""
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=READ_TIMEOUT_S
            )
        split = urlsplit(target)
        return HttpRequest(
            method=method,
            path=split.path,
            query=dict(parse_qsl(split.query)),
            headers=headers,
            body=body,
        )

    async def _on_connection(self, reader, writer) -> None:
        if self._connections is not None and not self._connections.try_acquire():
            # Over the socket cap: answer cheaply and hang up rather
            # than letting connections queue without bound.
            self.connections_shed += 1
            self._count("?", 503)
            try:
                writer.write(
                    HttpResponse(
                        503,
                        {"error": "server at connection capacity"},
                        headers={"Retry-After": "1"},
                    ).encode()
                )
                await writer.drain()
                # Consume the request bytes already in flight so the
                # close sends FIN, not RST (an RST would destroy the
                # 503 before the client reads it).
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(reader.read(65536), timeout=0.25)
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):  # pragma: no cover
                    pass
            return
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Server teardown cancels in-flight connection tasks; finish
            # quietly (the connection is dead either way) so asyncio's
            # streams callback does not log every cancellation as an
            # unhandled error.
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
        finally:
            if self._connections is not None:
                self._connections.release()

    async def _serve_connection(self, reader, writer) -> None:
        started = time.perf_counter()
        method = "?"
        try:
            try:
                request = await self._read_request(reader)
            except _RequestError as exc:
                response = HttpResponse(exc.status, {"error": exc.message})
                request = None
            else:
                if request is None:
                    return
                method = request.method
                try:
                    response = await self.handler(request)
                except Exception as exc:  # noqa: BLE001 - boundary
                    response = HttpResponse(500, {"error": str(exc)})
            self._count(method, response.status)
            if self._m_latency is not None:
                self._m_latency.observe(time.perf_counter() - started)
            writer.write(response.encode())
            await writer.drain()
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass
