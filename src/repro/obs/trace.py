"""Span-based structured tracing (wall-clock domain).

Nested spans with monotonic timestamps, free-form attributes, and
process identity, behind a context-manager/decorator API:

>>> from repro.obs import trace
>>> trace.enable()                       # or `repro ... --trace out.json`
>>> with trace.span("sweep.run_points", points=64):
...     ...
>>> trace.instant("sweep.done", points=64)

Disabled (the default) every call is a near-zero no-op: :func:`span`
returns a shared null context manager and :func:`instant` falls through
a single ``None`` check — cheap enough to leave in hot paths (the
``repro bench obs`` record asserts the <=1% budget).

**Only closed spans are recorded.**  A span buffers nothing until its
``__exit__`` appends one complete event, so an exported trace
structurally cannot contain unclosed spans.

The clock is injectable (``TraceRecorder(clock=...)``) so tests can
assert exact timestamps.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "TraceRecorder",
    "enable",
    "disable",
    "enabled",
    "get_recorder",
    "span",
    "instant",
    "traced",
]


class _Span:
    """A live span; appends one complete event to the recorder on exit."""

    __slots__ = ("_recorder", "name", "attrs", "_start")

    def __init__(self, recorder: "TraceRecorder", name: str,
                 attrs: Optional[Dict[str, Any]]) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered while the span is open."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        rec = self._recorder
        rec.depth += 1
        self._start = rec.now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        rec = self._recorder
        end = rec.now_us()
        rec.depth -= 1
        event: Dict[str, Any] = {
            "ph": "X",
            "name": self.name,
            "ts": self._start,
            "dur": end - self._start,
            "pid": rec.pid,
            "tid": rec.tid,
        }
        if self.attrs:
            event["args"] = self.attrs
        if exc_type is not None:
            event.setdefault("args", {})["error"] = exc_type.__name__
        rec.events.append(event)


class _NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Collects complete span/instant events for one process.

    ``label`` names the process lane in exported traces (``main``);
    ``clock`` defaults to the monotonic clock and is injectable for
    deterministic tests.
    """

    def __init__(self, label: str = "main",
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.label = label
        self.clock = time.monotonic if clock is None else clock
        self.pid = os.getpid()
        self.tid = 0
        self.depth = 0
        self.events: List[Dict[str, Any]] = []

    def now_us(self) -> int:
        return int(self.clock() * 1_000_000)

    def span(self, name: str, **attrs: Any) -> _Span:
        return _Span(self, name, attrs or None)

    def instant(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        event: Dict[str, Any] = {
            "ph": "i",
            "name": name,
            "ts": self.now_us(),
            "pid": self.pid,
            "tid": self.tid,
        }
        if attrs:
            event["args"] = attrs
        self.events.append(event)

    def drain(self) -> List[Dict[str, Any]]:
        """Take (and clear) the buffered events."""
        events, self.events = self.events, []
        return events

    def process_labels(self) -> Dict[int, str]:
        """pid -> label map of the exported process track."""
        return {self.pid: self.label}


#: the process-global recorder; ``None`` means tracing is disabled
_recorder: Optional[TraceRecorder] = None


def enabled() -> bool:
    return _recorder is not None


def get_recorder() -> Optional[TraceRecorder]:
    return _recorder


def enable(clock: Optional[Callable[[], float]] = None,
           label: str = "main") -> TraceRecorder:
    """Install the process recorder (a no-op when one is installed)."""
    global _recorder
    if _recorder is None:
        _recorder = TraceRecorder(label=label, clock=clock)
    return _recorder


def disable() -> None:
    global _recorder
    _recorder = None


def span(name: str, **attrs: Any):
    """A context manager timing ``name``; no-op while tracing is disabled."""
    rec = _recorder
    if rec is None:
        return _NULL_SPAN
    return _Span(rec, name, attrs or None)


def instant(name: str, **attrs: Any) -> None:
    """Record a point event (a zero-duration marker on the timeline)."""
    rec = _recorder
    if rec is not None:
        rec.instant(name, attrs or None)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator form of :func:`span` (span per call, qualname default)."""
    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            rec = _recorder
            if rec is None:
                return fn(*args, **kwargs)
            with _Span(rec, span_name, None):
                return fn(*args, **kwargs)
        return wrapper
    return decorate
