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
from functools import lru_cache
from typing import (Any, Dict, Optional, Tuple, Union, get_args, get_origin,
                    get_type_hints)

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


#: JSON names of the field types the request schemas use
_WIRE_TYPES = {str: "a string", int: "an integer", float: "a number",
               bool: "a boolean"}

#: JSON type names of decoded values, for error messages
_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "a number",
               float: "a number", str: "a string", list: "an array",
               dict: "an object"}


def _typed(name: str, value: Any, hint: Any) -> Any:
    """``value`` checked against the field type ``hint``, or ProtocolError.

    ``Optional[T]`` also takes null, ``Tuple[str, ...]`` takes a list of
    strings, and the one widening is int → float.  JSON booleans are not
    numbers, although Python's ``bool`` is an ``int``.
    """
    optional = get_origin(hint) is Union and type(None) in get_args(hint)
    if optional:
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    if get_origin(hint) is tuple:
        if isinstance(value, list) and all(isinstance(item, str) for item in value):
            return tuple(value)
        expected = "a list of strings"
    else:
        if isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
            return value
        if hint is float and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        expected = _WIRE_TYPES[hint]
    if optional:
        expected += " or null"
    raise ProtocolError(f"{name} must be {expected}, "
                        f"got {_JSON_TYPES.get(type(value), type(value).__name__)}")


@lru_cache(maxsize=None)
def _field_types(cls) -> Dict[str, Any]:
    """Field name -> resolved type of a params dataclass (once per class:
    resolving the string annotations costs ~0.1 ms)."""
    hints = get_type_hints(cls)
    return {spec.name: hints[spec.name] for spec in fields(cls)}


def parse_params(cls, body: Dict[str, Any]):
    """Instantiate a params dataclass from a JSON body, strictly.

    Unknown keys are 400s (a typo silently falling back to a default
    would return the *wrong evaluation* with a 200), and so is a value of
    the wrong JSON type; types are coerced only in the safe direction
    (int → float).
    """
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    hints = _field_types(cls)
    unknown = sorted(set(body) - set(hints))
    if unknown:
        raise ProtocolError(
            f"unknown parameter(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(hints))}")
    return cls(**{name: _typed(name, value, hints[name])
                  for name, value in body.items()})


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
