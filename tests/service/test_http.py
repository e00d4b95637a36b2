"""HTTP framing tests for the stdlib service-tier server."""

import asyncio
import json

import pytest

from repro.service.http import MAX_BODY, HttpRequest, HttpResponse, HttpServer


async def _raw_request(port: int, raw: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    return data


def _request(port: int, method: str, path: str, body=None) -> bytes:
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: 127.0.0.1:{port}\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    return head.encode() + payload


def _run_with_server(handler, scenario):
    async def main():
        server = HttpServer(handler)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestHttpServer:
    def test_roundtrip_parses_method_path_query_body(self):
        seen = {}

        async def handler(request: HttpRequest) -> HttpResponse:
            seen.update(
                method=request.method,
                path=request.path,
                query=request.query,
                body=request.json(),
            )
            return HttpResponse(201, {"ok": True})

        async def scenario(server):
            return await _raw_request(
                server.port,
                _request(server.port, "POST", "/tenants?dry=1", {"x": 2}),
            )

        raw = _run_with_server(handler, scenario)
        assert raw.startswith(b"HTTP/1.1 201 Created\r\n")
        assert b"Connection: close" in raw
        head, _, body = raw.partition(b"\r\n\r\n")
        assert json.loads(body) == {"ok": True}
        assert f"Content-Length: {len(body)}".encode() in head
        assert seen == {
            "method": "POST",
            "path": "/tenants",
            "query": {"dry": "1"},
            "body": {"x": 2},
        }

    def test_handler_exception_becomes_500(self):
        async def handler(request):
            raise RuntimeError("boom")

        async def scenario(server):
            return await _raw_request(
                server.port, _request(server.port, "GET", "/x")
            )

        raw = _run_with_server(handler, scenario)
        assert raw.startswith(b"HTTP/1.1 500 ")
        assert b"boom" in raw

    def test_oversized_body_rejected_with_413(self):
        async def handler(request):  # pragma: no cover - never reached
            return HttpResponse(200, {})

        async def scenario(server):
            head = (
                f"POST /tenants HTTP/1.1\r\n"
                f"Content-Length: {MAX_BODY + 1}\r\n\r\n"
            ).encode()
            return await _raw_request(server.port, head)

        raw = _run_with_server(handler, scenario)
        assert raw.startswith(b"HTTP/1.1 413 ")

    def test_requests_served_counts(self):
        async def handler(request):
            return HttpResponse(200, {})

        async def scenario(server):
            for _ in range(3):
                await _raw_request(
                    server.port, _request(server.port, "GET", "/healthz")
                )
            return server.requests_served

        assert _run_with_server(handler, scenario) == 3

    def test_non_object_json_body_raises_value_error(self):
        request = HttpRequest("POST", "/tenants", body=b"[1,2]")
        try:
            request.json()
        except ValueError as exc:
            assert "JSON object" in str(exc)
        else:
            raise AssertionError("expected ValueError")


class TestAbuseGuards:
    """Parse-layer overload/abuse defenses (PR 8 regression pins)."""

    def test_malformed_content_length_is_400_not_413(self):
        # Regression: ``Content-Length: banana`` used to raise ValueError
        # inside _read_request and surface as "413 body too large".
        async def handler(request):  # pragma: no cover - never reached
            return HttpResponse(200, {})

        async def scenario(server):
            head = (
                "POST /tenants HTTP/1.1\r\n"
                "Content-Length: banana\r\n\r\n"
            ).encode()
            return await _raw_request(server.port, head)

        raw = _run_with_server(handler, scenario)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"content-length" in raw

    def test_negative_content_length_is_400(self):
        async def handler(request):  # pragma: no cover - never reached
            return HttpResponse(200, {})

        async def scenario(server):
            head = (
                "POST /tenants HTTP/1.1\r\n"
                "Content-Length: -5\r\n\r\n"
            ).encode()
            return await _raw_request(server.port, head)

        raw = _run_with_server(handler, scenario)
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_too_many_header_lines_is_431(self):
        from repro.service.http import MAX_HEADERS

        async def handler(request):  # pragma: no cover - never reached
            return HttpResponse(200, {})

        async def scenario(server):
            lines = "".join(
                f"X-Flood-{i}: x\r\n" for i in range(MAX_HEADERS + 5)
            )
            head = f"GET /healthz HTTP/1.1\r\n{lines}\r\n".encode()
            return await _raw_request(server.port, head)

        raw = _run_with_server(handler, scenario)
        assert raw.startswith(b"HTTP/1.1 431 ")

    def test_header_bytes_cap_is_431(self):
        # Few header lines, but huge ones: the byte cap must trip even
        # when the line count stays under MAX_HEADERS.
        from repro.service.http import MAX_HEADER_BYTES

        async def handler(request):  # pragma: no cover - never reached
            return HttpResponse(200, {})

        async def scenario(server):
            big = "y" * (MAX_HEADER_BYTES // 4)
            lines = "".join(f"X-Big-{i}: {big}\r\n" for i in range(8))
            head = f"GET /healthz HTTP/1.1\r\n{lines}\r\n".encode()
            return await _raw_request(server.port, head)

        raw = _run_with_server(handler, scenario)
        assert raw.startswith(b"HTTP/1.1 431 ")

    def test_headers_under_caps_still_parse(self):
        seen = {}

        async def handler(request):
            seen.update(request.headers)
            return HttpResponse(200, {})

        async def scenario(server):
            lines = "".join(f"X-Ok-{i}: v\r\n" for i in range(10))
            head = (
                f"GET /healthz HTTP/1.1\r\n{lines}"
                "Content-Length: 0\r\n\r\n"
            ).encode()
            return await _raw_request(server.port, head)

        raw = _run_with_server(handler, scenario)
        assert raw.startswith(b"HTTP/1.1 200 ")
        assert seen["x-ok-0"] == "v"

    @pytest.mark.parametrize(
        "head, status",
        [
            # Longer than asyncio's 64 KiB line limit: readline raises
            # ValueError, which must become a reply, not a loop error.
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", b"414"),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"y" * 70_000 + b"\r\n\r\n", b"431"),
            # The cap counts header lines, not distinct names.
            (b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * 100 + b"\r\n", b"431"),
        ],
        ids=["request-line-over-stream-limit", "header-line-over-stream-limit",
             "repeated-header-name"],
    )
    def test_over_cap_lines_answered_not_raised(self, head, status):
        leaked = []

        async def handler(request):
            return HttpResponse(200, {})

        async def scenario(server):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: leaked.append(context)
            )
            return await _raw_request(server.port, head)

        raw = _run_with_server(handler, scenario)
        assert raw.startswith(b"HTTP/1.1 " + status + b" ")
        assert leaked == []


class TestResponseExtensions:
    def test_extra_headers_are_emitted(self):
        raw = HttpResponse(
            429, {"error": "shed"}, headers={"Retry-After": "2"}
        ).encode()
        head, _, _ = raw.partition(b"\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
        assert b"Retry-After: 2\r\n" in head

    def test_text_body_is_plain_text(self):
        raw = HttpResponse(200, text="metric_a 1\n").encode()
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"Content-Type: text/plain" in head
        assert body == b"metric_a 1\n"


class TestConnectionCap:
    def test_over_cap_connection_gets_503(self):
        release = asyncio.Event()

        async def handler(request):
            await release.wait()
            return HttpResponse(200, {})

        async def main():
            server = HttpServer(handler, max_connections=1)
            await server.start()
            try:
                # First connection parks inside the handler, holding
                # the only slot; the second must be shed with a 503.
                first = asyncio.create_task(
                    _raw_request(
                        server.port, _request(server.port, "GET", "/x")
                    )
                )
                await asyncio.sleep(0.05)
                second = await _raw_request(
                    server.port, _request(server.port, "GET", "/x")
                )
                release.set()
                first_raw = await first
                return first_raw, second, server.connections_shed
            finally:
                await server.stop()

        first_raw, second, shed = asyncio.run(main())
        assert first_raw.startswith(b"HTTP/1.1 200 ")
        assert second.startswith(b"HTTP/1.1 503 ")
        assert b"Retry-After: 1" in second
        assert shed == 1
