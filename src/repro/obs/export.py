"""Trace/metrics exporters and trace-file analysis.

Three output shapes:

* **Chrome trace-event JSON** (default, any ``--trace`` path not ending
  in ``.jsonl``): a ``{"traceEvents": [...]}`` document loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` — each
  process renders as its own named track.
* **JSONL event log** (``--trace out.jsonl``): one JSON object per line,
  spans/instants in recording order, a final ``{"type": "metrics"}``
  line — grep/jq friendly.
* **Flat metrics dump** (``--metrics``): ``repro.obs.metrics.render_metrics``.

:func:`summarize_trace` / :func:`render_summary` back the
``repro trace summarize FILE`` command, and :func:`validate_chrome_trace`
is the structural check CI runs on the traced-sweep smoke artifact
(parseable JSON, non-empty, spans properly nested per process).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import REGISTRY
from repro.obs import trace as _trace

__all__ = [
    "chrome_trace_document",
    "export_trace",
    "write_chrome_trace",
    "write_jsonl",
    "load_trace",
    "validate_chrome_trace",
    "summarize_trace",
    "render_summary",
]


def chrome_trace_document(events: List[Dict[str, Any]],
                          labels: Optional[Dict[int, str]] = None,
                          metrics: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble the ``{"traceEvents": [...]}`` document.

    Emits one ``process_name`` metadata event per pid so Perfetto labels
    the process tracks, then the span (``ph:"X"``) and instant
    (``ph:"i"``) events with microsecond ``ts``/``dur``.
    """
    labels = dict(labels or {})
    for event in events:
        labels.setdefault(event["pid"], event.get("proc", f"pid-{event['pid']}"))
    trace_events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": label}}
        for pid, label in sorted(labels.items())
    ]
    for event in events:
        out: Dict[str, Any] = {
            "ph": event["ph"],
            "name": event["name"],
            "cat": "repro",
            "ts": event["ts"],
            "pid": event["pid"],
            "tid": event.get("tid", 0),
            "args": event.get("args", {}),
        }
        if event["ph"] == "X":
            out["dur"] = event.get("dur", 0)
        else:
            out["s"] = "t"  # thread-scoped instant
        trace_events.append(out)
    document: Dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    }
    if metrics:
        document["metadata"] = {"repro.metrics": metrics}
    return document


def write_chrome_trace(path: str, events: List[Dict[str, Any]],
                       labels: Optional[Dict[int, str]] = None,
                       metrics: Optional[Dict[str, Any]] = None) -> None:
    document = chrome_trace_document(events, labels, metrics)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=None, separators=(",", ":"))
        handle.write("\n")


def write_jsonl(path: str, events: List[Dict[str, Any]],
                metrics: Optional[Dict[str, Any]] = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            record = dict(event)
            record["type"] = "span" if event["ph"] == "X" else "instant"
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        if metrics:
            handle.write(json.dumps({"type": "metrics", "metrics": metrics},
                                    separators=(",", ":")) + "\n")


def export_trace(path: str, recorder: Optional[Any] = None) -> int:
    """Write the active recorder's trace to ``path``.

    Dispatches on extension (``.jsonl`` -> event log, anything else ->
    Chrome trace JSON).  Returns the number of events written.
    """
    recorder = recorder or _trace.get_recorder()
    if recorder is None:
        raise RuntimeError("tracing is not enabled; nothing to export")
    labels = recorder.process_labels()
    events = recorder.drain()
    metrics = REGISTRY.snapshot()
    if path.endswith(".jsonl"):
        write_jsonl(path, events, metrics)
    else:
        write_chrome_trace(path, events, labels, metrics)
    return len(events)


# -- reading traces back ---------------------------------------------------


def load_trace(path: str) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Read either export format back to (events, metadata).

    ``metadata`` carries ``labels`` (pid -> process name) and ``metrics``
    when the file recorded them.
    """
    meta: Dict[str, Any] = {"labels": {}, "metrics": {}}
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    # both formats start with "{": the Chrome document is ONE JSON object
    # carrying "traceEvents", the event log is one object PER LINE
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict) and "traceEvents" in document:
        for event in document["traceEvents"]:
            if event.get("ph") == "M":
                if event.get("name") == "process_name":
                    meta["labels"][event["pid"]] = event["args"]["name"]
                continue
            events.append(event)
        meta["metrics"] = (document.get("metadata") or {}).get(
            "repro.metrics", {})
        return events, meta
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") == "metrics":
            meta["metrics"] = record["metrics"]
            continue
        events.append(record)
    return events, meta


def validate_chrome_trace(path: str) -> Dict[str, Any]:
    """Structural validation of an exported Chrome trace (used by CI).

    Asserts the file is parseable JSON with a non-empty ``traceEvents``
    list and that complete spans nest properly within each (pid, tid)
    track — a span must close inside its parent; partial overlap means a
    merge bug.  Returns summary counts.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    trace_events = document.get("traceEvents")
    if not isinstance(trace_events, list) or not trace_events:
        raise ValueError(f"{path}: no traceEvents")
    spans = [e for e in trace_events if e.get("ph") == "X"]
    instants = [e for e in trace_events if e.get("ph") == "i"]
    if not spans:
        raise ValueError(f"{path}: no complete spans (ph=X)")
    for event in spans:
        for key in ("name", "ts", "dur", "pid"):
            if key not in event:
                raise ValueError(f"{path}: span missing {key!r}: {event}")
        if event["dur"] < 0:
            raise ValueError(f"{path}: negative duration: {event}")
    tracks: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for event in spans:
        tracks.setdefault((event["pid"], event.get("tid", 0)), []).append(event)
    for key, track in tracks.items():
        # sort outermost-first at equal start so nesting checks parent first
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[int] = []  # open span end timestamps
        for event in track:
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and stack[-1] <= start:
                stack.pop()
            if stack and end > stack[-1]:
                raise ValueError(
                    f"{path}: span {event['name']!r} on track {key} overlaps "
                    f"its parent ([{start}, {end}] vs parent end {stack[-1]})")
            stack.append(end)
    pids = sorted({e["pid"] for e in spans + instants})
    return {
        "spans": len(spans),
        "instants": len(instants),
        "processes": len(pids),
        "tracks": len(tracks),
    }


def summarize_trace(path: str) -> Dict[str, Any]:
    """Aggregate a trace file for ``repro trace summarize``."""
    events, meta = load_trace(path)
    spans = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "i"]
    by_name: Dict[str, Dict[str, float]] = {}
    for event in spans:
        entry = by_name.setdefault(event["name"], {
            "count": 0, "total_us": 0.0, "max_us": 0.0})
        entry["count"] += 1
        entry["total_us"] += event["dur"]
        if event["dur"] > entry["max_us"]:
            entry["max_us"] = float(event["dur"])
    instant_counts: Dict[str, int] = {}
    for event in instants:
        instant_counts[event["name"]] = instant_counts.get(event["name"], 0) + 1
    timestamps = [e["ts"] for e in events]
    ends = [e["ts"] + e.get("dur", 0) for e in events]
    processes = {}
    labels = meta.get("labels", {})
    for event in events:
        pid = event["pid"]
        processes.setdefault(
            pid, labels.get(pid) or labels.get(str(pid))
            or event.get("proc", f"pid-{pid}"))
    return {
        "path": path,
        "spans": sum(int(e["count"]) for e in by_name.values()),
        "instants": len(instants),
        "wall_us": (max(ends) - min(timestamps)) if events else 0,
        "processes": {str(pid): name for pid, name in sorted(processes.items())},
        "by_name": by_name,
        "instant_counts": instant_counts,
        "metrics": meta.get("metrics", {}),
    }


def render_summary(summary: Dict[str, Any]) -> str:
    lines = [
        f"trace {summary['path']}",
        f"  {summary['spans']} spans, {summary['instants']} instants over "
        f"{summary['wall_us'] / 1e3:.2f} ms across "
        f"{len(summary['processes'])} process(es)",
    ]
    for pid, name in summary["processes"].items():
        lines.append(f"    pid {pid}: {name}")
    if summary["by_name"]:
        lines.append(f"  {'span':<32} {'count':>7} {'total ms':>10} "
                     f"{'mean ms':>9} {'max ms':>9}")
        ranked = sorted(summary["by_name"].items(),
                        key=lambda item: -item[1]["total_us"])
        for name, entry in ranked:
            mean = entry["total_us"] / entry["count"] if entry["count"] else 0.0
            lines.append(
                f"  {name:<32} {int(entry['count']):>7} "
                f"{entry['total_us'] / 1e3:>10.2f} {mean / 1e3:>9.3f} "
                f"{entry['max_us'] / 1e3:>9.3f}")
    if summary["instant_counts"]:
        lines.append("  instants:")
        for name, count in sorted(summary["instant_counts"].items()):
            lines.append(f"    {name:<36} {count}")
    return "\n".join(lines)
