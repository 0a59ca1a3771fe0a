"""Clients for the evaluation service.

:class:`ServeClient` is the blocking client ``repro request`` uses —
plain ``http.client`` over a keep-alive connection, with JSON-line
chunked progress streams surfaced through a callback.
:func:`request_json` is a minimal asyncio client (one request per
connection) for concurrent tests and the throughput benchmark; it
returns the raw response body so bit-identity can be asserted on the
exact bytes the server produced.
"""

from __future__ import annotations

import asyncio
import http.client
import json
from typing import Any, Callable, Dict, Optional, Tuple

from repro.serve.protocol import DEFAULT_PORT

__all__ = ["ServeClient", "ServeError", "request_json"]


class ServeError(RuntimeError):
    """Non-2xx response (or an ``error`` event on a progress stream)."""

    def __init__(self, message: str, status: int = 500) -> None:
        super().__init__(message)
        self.status = status


class ServeClient:
    """Blocking JSON client on one keep-alive connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float = 600.0) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _send(self, method: str, path: str,
              payload: Optional[Dict[str, Any]]) -> http.client.HTTPResponse:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        self._conn.request(method, path, body=body, headers=headers)
        return self._conn.getresponse()

    def call(self, path: str,
             payload: Optional[Dict[str, Any]] = None,
             method: str = "POST") -> Dict[str, Any]:
        """One plain JSON request/response."""
        response = self._send(method, path, payload)
        data = response.read()
        parsed = json.loads(data.decode("utf-8")) if data else {}
        if response.status != 200:
            raise ServeError(parsed.get("error", data.decode("utf-8", "replace")),
                             status=response.status)
        return parsed

    def stream(self, path: str, payload: Dict[str, Any],
               on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
               ) -> Tuple[Dict[str, Any], int]:
        """A progress-streamed request → ``(result_payload, status)``.

        Every non-final event is passed to ``on_event``;
        ``http.client`` undoes the chunked transfer encoding, so the
        stream is plain JSON lines here.
        """
        response = self._send("POST", path, payload)
        if response.status != 200:
            data = response.read()
            try:
                message = json.loads(data.decode("utf-8")).get("error", "")
            except ValueError:
                message = data.decode("utf-8", "replace")
            raise ServeError(message, status=response.status)
        result: Optional[Tuple[Dict[str, Any], int]] = None
        while True:
            line = response.readline()
            if not line:
                break
            event = json.loads(line.decode("utf-8"))
            kind = event.get("event")
            if kind == "result":
                result = (event["payload"], int(event.get("status", 0)))
            elif kind == "error":
                raise ServeError(event.get("error", "server error"),
                                 status=int(event.get("status", 500)))
            elif on_event is not None:
                on_event(event)
        if result is None:
            raise ServeError("stream ended without a result event")
        return result

    # convenience verbs ------------------------------------------------- #
    def health(self) -> Dict[str, Any]:
        return self.call("/v1/health", method="GET")

    def metrics(self) -> Dict[str, float]:
        return self.call("/v1/metrics", method="GET")["metrics"]

    def run(self, **params: Any) -> Dict[str, Any]:
        return self.call("/v1/run", params)

    def sweep(self, **params: Any) -> Dict[str, Any]:
        return self.call("/v1/sweep", params)

    def map(self, on_event: Optional[Callable] = None,
            **params: Any) -> Tuple[Dict[str, Any], int]:
        return self.stream("/v1/map", params, on_event)

    def verify(self, on_event: Optional[Callable] = None,
               **params: Any) -> Tuple[Dict[str, Any], int]:
        return self.stream("/v1/verify", params, on_event)


async def request_json(host: str, port: int, path: str,
                       payload: Optional[Dict[str, Any]] = None,
                       method: str = "POST") -> Tuple[int, bytes]:
    """One asyncio request → ``(status, raw body bytes)``.

    Opens a fresh ``Connection: close`` connection per call so hundreds
    of these can be in flight at once from one event loop — exactly the
    concurrent-client shape whose sweeps the server coalesces into one
    batch while an earlier batch is being evaluated.  The body is
    returned verbatim (chunked streams are de-chunked).
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        chunked = False
        length = None
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "transfer-encoding" and "chunked" in value.lower():
                chunked = True
            elif name == "content-length":
                length = int(value)
        if length is not None:
            # the body ends at Content-Length; no need to wait for EOF
            return status, await reader.readexactly(length)
        if not chunked:
            return status, await reader.read()
        parts = []
        while True:
            size_line = await reader.readline()
            size = int(size_line.strip() or b"0", 16)
            if size == 0:
                break
            parts.append(await reader.readexactly(size))
            await reader.readline()  # chunk's trailing CRLF
        return status, b"".join(parts)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
