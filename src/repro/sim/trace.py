"""Lightweight *cycle-domain* trace records for the cycle-level simulators.

The traces are intentionally simple — a list of (cycle, source, event, value)
tuples with filtering helpers — enough to debug a schedule or to dump a
text waveform, without pulling in a VCD dependency.

Two trace layers exist in this codebase and they are deliberately separate:

* **this module** records events in *simulated PE-chain cycles* — the
  ``cycle`` field is a position in the modelled hardware's time, produced
  by the cycle-accurate simulator, and has nothing to do with how long the
  simulation took to run;
* :mod:`repro.obs.trace` records *wall-clock host execution* — spans and
  instants timed with ``time.monotonic`` across the CLI, engines, cache
  and mapping search, exported via ``--trace`` to
  Perfetto/chrome://tracing.

Rule of thumb: debugging the modelled hardware's schedule → this module;
profiling where the *software* spends time → ``repro.obs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One observed event."""

    cycle: int
    source: str
    event: str
    value: Any = None

    def format(self) -> str:
        """Render the event as a single text line."""
        value = "" if self.value is None else f" = {self.value!r}"
        return f"[{self.cycle:>8}] {self.source:<24} {self.event}{value}"


@dataclass
class TraceLog:
    """An append-only list of :class:`TraceEvent` with simple queries."""

    events: List[TraceEvent] = field(default_factory=list)
    enabled: bool = True
    limit: Optional[int] = None

    def record(self, cycle: int, source: str, event: str, value: Any = None) -> None:
        """Append one event (ignored when disabled or over the limit)."""
        if not self.enabled:
            return
        if self.limit is not None and len(self.events) >= self.limit:
            return
        self.events.append(TraceEvent(cycle=cycle, source=source, event=event, value=value))

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> List[TraceEvent]:
        """Events satisfying ``predicate``."""
        return [event for event in self.events if predicate(event)]

    def by_source(self, source: str) -> List[TraceEvent]:
        """Events emitted by one source."""
        return self.filter(lambda event: event.source == source)

    def by_event(self, name: str) -> List[TraceEvent]:
        """Events with a given event name."""
        return self.filter(lambda event: event.event == name)

    def between(self, first_cycle: int, last_cycle: int) -> List[TraceEvent]:
        """Events within a cycle window (inclusive)."""
        return self.filter(lambda event: first_cycle <= event.cycle <= last_cycle)

    def dump(self, events: Optional[Iterable[TraceEvent]] = None) -> str:
        """Render events (default: all) as a text waveform."""
        selected = list(events) if events is not None else self.events
        return "\n".join(event.format() for event in selected)

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)
