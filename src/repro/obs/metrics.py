"""Process-wide metrics registry: counters, gauges, histograms.

Every performance-critical subsystem (``RunCache``, ``SweepExecutor``,
``BatchDesignEvaluator``, the mapping search, the evaluation service)
increments named metrics through the module-global :data:`REGISTRY`.
Metrics are *always on*: an increment is a plain Python attribute add on
a memoised object, cheap enough to leave in the hot paths unconditionally
— that is what lets the CLI print its stats footer after every
``sweep``/``map`` without ``--trace``.

The registry takes no lock: it holds one process's statistics, and no
computed result depends on them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
]


class Counter:
    """A monotonically increasing count (hits, points, retries, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value (pool size, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A streaming summary (count/total/min/max) of observed samples.

    Full bucketed distributions are overkill for the latencies tracked
    here (lock waits, span durations).
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {"count": self.count, "total": self.total}
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
            out["mean"] = self.total / self.count
        return out


class MetricsRegistry:
    """Memoised name -> instrument store."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access ------------------------------------------------

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name)
        return inst

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Nested view of every non-zero instrument (JSON-serialisable)."""
        return {
            "counters": {c.name: c.value
                         for c in self._counters.values() if c.value},
            "gauges": {g.name: g.value
                       for g in self._gauges.values() if g.value},
            "histograms": {h.name: h.as_dict()
                           for h in self._histograms.values() if h.count},
        }

    # -- maintenance -------------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument *in place*.

        Call sites bind instrument objects once at module import
        (``_HITS = counter("cache.hits")``), so reset must keep the
        objects and zero their state rather than clear the dicts.
        """
        for c in self._counters.values():
            c.value = 0
        for g in self._gauges.values():
            g.value = 0.0
        for h in self._histograms.values():
            h.count = 0
            h.total = 0.0
            h.min = float("inf")
            h.max = float("-inf")

    def flat(self) -> Dict[str, float]:
        """Flat ``name -> number`` view for the ``--metrics`` text dump."""
        out: Dict[str, float] = {}
        snap = self.snapshot()
        out.update(snap["counters"])
        out.update(snap["gauges"])
        for name, summary in snap["histograms"].items():
            for key, value in summary.items():
                out[f"{name}.{key}"] = value
        return out


#: the process-global registry every instrumented subsystem writes to
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """Shorthand for ``REGISTRY.counter(name)`` (bind once at import)."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)


def render_metrics(flat: Optional[Dict[str, float]] = None,
                   prefixes: Optional[Iterable[str]] = None) -> str:
    """Human-readable flat dump, sorted by name, for ``--metrics``."""
    flat = REGISTRY.flat() if flat is None else flat
    lines = []
    for name in sorted(flat):
        if prefixes and not any(name.startswith(p) for p in prefixes):
            continue
        value = flat[name]
        if isinstance(value, float) and not value.is_integer():
            lines.append(f"{name:<44} {value:.6g}")
        else:
            lines.append(f"{name:<44} {int(value)}")
    return "\n".join(lines)
