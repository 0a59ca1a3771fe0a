"""Wire protocol of the evaluation service.

Two halves, both dependency-free:

* **request schemas** — dataclasses whose defaults mirror the CLI's
  argparse defaults exactly, so ``{"network": "alexnet"}`` over HTTP
  means the same evaluation as ``repro run alexnet`` at a shell.
  Validation errors raise :class:`ProtocolError` (→ HTTP 400) with the
  same wording the CLI prints before ``exit 2``.
* **HTTP/1.1 framing** — the minimal subset the service needs
  (``Content-Length`` bodies, keep-alive, chunked responses for
  progress streams), parsed directly off asyncio streams; no external
  HTTP library.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from repro.analysis.batch import DEFAULT_OBJECTIVES
from repro.core.config import ChainConfig, ClockDomain
from repro.engine.cache import (
    CACHE_SCHEMA,
    canonical_json,
    config_fingerprint,
    workload_fingerprint,
)

__all__ = [
    "DEFAULT_PORT",
    "HttpRequest",
    "MapParams",
    "ProtocolError",
    "RunParams",
    "SweepParams",
    "VerifyParams",
    "chunk",
    "coalesce_key",
    "end_chunks",
    "http_response",
    "parse_params",
    "read_http_request",
    "start_chunked",
]

#: default service port ("repro" → 0x7265 % 56000... just a fixed
#: uncommon port; override with --port / REPRO_SERVE_PORT)
DEFAULT_PORT = 8347

#: request bodies past this size are refused (grids are specs, not data)
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            413: "Payload Too Large", 500: "Internal Server Error"}


class ProtocolError(ValueError):
    """Malformed or invalid request; maps to an HTTP 4xx response."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


# --------------------------------------------------------------------- #
# request schemas (defaults == CLI argparse defaults)
# --------------------------------------------------------------------- #
@dataclass
class RunParams:
    """``POST /v1/run`` — mirrors ``repro run``."""

    network: str = "alexnet"
    batch: int = 4
    engine: str = "analytical"
    mode: Optional[str] = None
    traffic: bool = False
    algorithm: str = "direct"
    pes: int = 576
    frequency_mhz: float = 700.0


@dataclass
class SweepParams:
    """``POST /v1/sweep`` — mirrors ``repro sweep --grid --json``."""

    network: str = "alexnet"
    grid: str = "pe=128:1152:32,freq=200:1000:50"
    batch: int = 16
    engine: str = "analytical"
    objectives: Tuple[str, ...] = DEFAULT_OBJECTIVES
    metric: str = "gops_per_watt"
    top: Optional[int] = None
    pareto: bool = False
    pes: int = 576
    frequency_mhz: float = 700.0


@dataclass
class MapParams:
    """``POST /v1/map`` — mirrors ``repro map --json``."""

    network: str = "alexnet"
    objective: str = "throughput"
    batch: int = 16
    seed: int = 2017
    algorithm: str = "direct"
    verify: bool = False
    pes: int = 576
    frequency_mhz: float = 700.0


@dataclass
class VerifyParams:
    """``POST /v1/verify`` — mirrors ``repro verify --sim functional``."""

    network: str = "tiny"
    seed: int = 2017
    algorithm: str = "direct"
    pes: int = 576
    frequency_mhz: float = 700.0


def parse_params(cls, body: Dict[str, Any]):
    """Instantiate a params dataclass from a JSON body, strictly.

    Unknown keys are 400s (a typo silently falling back to a default
    would return the *wrong evaluation* with a 200), and scalar types
    are coerced only in the safe direction (int → float).
    """
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    allowed = {spec.name: spec for spec in fields(cls)}
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ProtocolError(
            f"unknown parameter(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}")
    kwargs: Dict[str, Any] = {}
    for name, value in body.items():
        if name == "objectives":
            if not isinstance(value, (list, tuple)) or not all(
                    isinstance(item, str) for item in value):
                raise ProtocolError("objectives must be a list of strings")
            value = tuple(value)
        elif name == "frequency_mhz" and isinstance(value, int):
            value = float(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as error:  # pragma: no cover - dataclass re-raise
        raise ProtocolError(str(error)) from error


def config_of(params) -> ChainConfig:
    """The base :class:`ChainConfig` a request evaluates against."""
    return ChainConfig(num_pes=params.pes,
                       clock=ClockDomain(params.frequency_mhz * 1e6))


def coalesce_key(engine: str, network, base: ChainConfig) -> str:
    """Compatibility fingerprint: requests sharing it may share a batch.

    Same shape as the cache keys (engine name, workload fingerprint,
    base-config fingerprint, cache schema) — two requests with equal
    keys are guaranteed to evaluate through the same evaluator state, so
    concatenating their grids cannot change any per-point result.
    """
    return canonical_json({
        "schema": CACHE_SCHEMA,
        "engine": engine,
        "workload": workload_fingerprint(network),
        "base": config_fingerprint(base),
    })


# --------------------------------------------------------------------- #
# HTTP framing
# --------------------------------------------------------------------- #
@dataclass
class HttpRequest:
    """One parsed request off a keep-alive connection."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> Dict[str, Any]:
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise ProtocolError(f"invalid JSON body: {error}") from error


async def read_http_request(
        reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request; ``None`` on a cleanly closed connection."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {line!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError as error:
        raise ProtocolError("invalid Content-Length") from error
    if length > MAX_BODY_BYTES:
        raise ProtocolError(
            f"body of {length} bytes exceeds {MAX_BODY_BYTES}", status=413)
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(method=method, path=path, headers=headers, body=body)


def http_response(status: int, body: bytes,
                  content_type: str = "application/json") -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n")
    return head.encode("latin-1") + body


def start_chunked(status: int = 200,
                  content_type: str = "application/x-ndjson") -> bytes:
    """Header block of a chunked progress-stream response."""
    reason = _REASONS.get(status, "Unknown")
    return (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            "Transfer-Encoding: chunked\r\n"
            "\r\n").encode("latin-1")


def chunk(event: Dict[str, Any]) -> bytes:
    """One JSON-line event as an HTTP chunk."""
    data = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


def end_chunks() -> bytes:
    return b"0\r\n\r\n"
