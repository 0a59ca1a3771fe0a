"""``repro.obs`` — unified tracing, metrics, and profiling.

The observability layer over the whole stack:

* :mod:`repro.obs.trace` — span-based *wall-clock* tracing with nested
  spans, monotonic timestamps, attributes, and process identity;
  near-zero overhead while disabled.
* :mod:`repro.obs.metrics` — an always-on registry of counters, gauges,
  and histograms fed by ``RunCache``, the sweep executors, the mapping
  search, and the evaluation service.
* :mod:`repro.obs.export` — JSONL and Chrome trace-event (Perfetto /
  ``chrome://tracing``) exporters plus trace summarization/validation.

Enabled by the CLI ``--trace FILE`` / ``--metrics`` flags or
programmatically::

    from repro import obs
    obs.enable()
    with obs.span("my.phase", n=42):
        ...
    obs.export_trace("trace.json")
"""

from repro.obs import metrics
from repro.obs import trace
from repro.obs.export import (
    export_trace,
    load_trace,
    render_summary,
    summarize_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    render_metrics,
)
from repro.obs.trace import (
    TraceRecorder,
    disable,
    enable,
    enabled,
    get_recorder,
    instant,
    span,
    traced,
)

__all__ = [
    "metrics",
    "trace",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "render_metrics",
    "TraceRecorder",
    "disable",
    "enable",
    "enabled",
    "get_recorder",
    "instant",
    "span",
    "traced",
    "export_trace",
    "load_trace",
    "render_summary",
    "summarize_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
