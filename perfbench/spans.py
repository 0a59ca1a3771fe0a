"""In-memory span recording around calls into the repro modules.

The benchmark measures end-to-end numbers with nothing installed.  For
the per-layer numbers it runs separate traced passes, during which
:class:`Instrumentation` replaces a fixed list of public functions and
methods of the ``repro`` package with thin wrappers that record one span
per call: a name, start and end on the system-wide monotonic clock, and
the span that was open when the call was made.  Uninstalling restores
the original attributes, so the program itself is never edited.

A span's *self time* is its duration minus the durations of the spans
it caused.  Spans are grouped into layers by name (``kernels.ofmap_block``,
``mapping.enumerate``, ...), so one layer's busy time is the sum of the
self times of its spans.

The parent link lives in a :class:`contextvars.ContextVar`, so
concurrent asyncio tasks of the evaluation server each keep their own
chain, and executor threads (which start from an empty context) record
root spans.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (id, name, start_ns, end_ns, parent id or None)
Span = Tuple[int, str, int, int, Optional[int]]

#: counts derived from one call: ``hook(args, kwargs, result) -> {name: n}``
CountHook = Callable[[tuple, dict, Any], Dict[str, float]]

clock_ns = time.monotonic_ns


class Recorder:
    """Collects closed spans and counters; safe across threads and tasks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_open_span", default=None)
        self._ids = itertools.count()
        self._count_lock = threading.Lock()

    def record(self, name: str, start: int, end: int,
               parent: Optional[int]) -> None:
        self.spans.append((next(self._ids), name, start, end, parent))

    def add_counts(self, counts: Dict[str, float]) -> None:
        with self._count_lock:
            for key, value in counts.items():
                self.counts[key] += value

    def wrap(self, name: str, fn: Callable,
             hook: Optional[CountHook] = None) -> Callable:
        """``fn`` recording one ``name`` span per call (async-aware)."""
        recorder = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id = next(recorder._ids)
                parent = recorder.current.get()
                token = recorder.current.set(span_id)
                start = clock_ns()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = clock_ns()
                    recorder.current.reset(token)
                    recorder.spans.append((span_id, name, start, end, parent))
                if hook is not None:
                    recorder.add_counts(hook(args, kwargs, result))
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(recorder._ids)
            parent = recorder.current.get()
            token = recorder.current.set(span_id)
            start = clock_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock_ns()
                recorder.current.reset(token)
                recorder.spans.append((span_id, name, start, end, parent))
            if hook is not None:
                recorder.add_counts(hook(args, kwargs, result))
            return result
        return traced


class _FirstLineClock:
    """Stream-reader proxy noting when a request's first line arrived.

    ``read_http_request`` first awaits the request line, which on a
    keep-alive connection means waiting for the client's next request;
    the parse span therefore starts when that line is in hand.
    """

    def __init__(self, reader) -> None:
        self._reader = reader
        self.started: Optional[int] = None

    async def readline(self):
        line = await self._reader.readline()
        if self.started is None:
            self.started = clock_ns()
        return line

    def __getattr__(self, name: str):
        return getattr(self._reader, name)


def _request_reader(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    async def traced_read(reader, *args, **kwargs):
        proxy = _FirstLineClock(reader)
        parent = recorder.current.get()
        result = await fn(proxy, *args, **kwargs)
        if result is not None and proxy.started is not None:
            recorder.record(name, proxy.started, clock_ns(), parent)
        return result
    return traced_read


# --------------------------------------------------------------------- #
# count hooks
# --------------------------------------------------------------------- #
def _functional_windows(args, kwargs, result) -> Dict[str, float]:
    return {"sim.windows_evaluated": result.stats.windows_evaluated,
            "sim.windows_kept": result.stats.windows_kept}


def _enumerated(args, kwargs, result) -> Dict[str, float]:
    return {"mapping.candidates_enumerated": len(result),
            "mapping.full_size": args[0].full_size()}


def _scored_rows(args, kwargs, result) -> Dict[str, float]:
    primitives = args[1] if len(args) > 1 else kwargs["primitives"]
    return {"analysis.score.rows": len(primitives)}


def _grid_points(args, kwargs, result) -> Dict[str, float]:
    return {"analysis.grid.points": result.n_points}


def _put_bytes(args, kwargs, result) -> Dict[str, float]:
    cache, key = args[0], args[1]
    try:
        return {"cache.put.bytes": cache.path_for(key).stat().st_size}
    except OSError:
        return {}


#: (module, attribute path, span name, count hook) patched in the process
#: that runs the CLI workloads in-process
CLI_POINTS: Tuple[Tuple[str, str, str, Optional[CountHook]], ...] = (
    ("repro.cli", "main", "cli", None),
    ("repro.sim.network", "FunctionalNetworkRunner.run", "sim.network", None),
    ("repro.sim.functional", "FunctionalChainSimulator.run_layer",
     "sim.functional", _functional_windows),
    ("repro.sim.winograd", "winograd_ofmap_block", "sim.winograd", None),
    ("repro.sim.cycle.engine", "CycleAccurateChainSimulator.run_layer",
     "sim.cycle", None),
    ("repro.sim.network", "pool2d", "sim.pool", None),
    ("repro.sim.network", "conv2d_im2col", "cnn.golden", None),
    ("repro.sim.functional", "conv2d_im2col", "cnn.golden", None),
    ("repro.sim.cycle.engine", "conv2d_direct", "cnn.golden", None),
    ("repro.sim.network", "choose_format", "cnn.quantize", None),
    ("repro.sim.cycle.engine", "choose_format", "cnn.quantize", None),
    ("repro.hwmodel.fixed_point", "FixedPointFormat.quantize",
     "cnn.quantize", None),
    ("repro.cnn.generator", "WorkloadGenerator.weights", "cnn.generate", None),
    ("repro.cnn.generator", "WorkloadGenerator.ifmaps", "cnn.generate", None),
    ("repro.cnn.generator", "WorkloadGenerator.layer_pair",
     "cnn.generate", None),
    ("repro.mapping.mapspace", "LayerMapSpace.enumerate",
     "mapping.enumerate", _enumerated),
    ("repro.mapping.optimizer", "candidate_arrays",
     "mapping.candidate_arrays", None),
    ("repro.mapping.strategies", "candidate_arrays",
     "mapping.candidate_arrays", None),
    ("repro.analysis.batch", "MappingBatchEvaluator.evaluate",
     "analysis.score", _scored_rows),
    ("repro.mapping.strategies", "ExhaustiveStrategy.search",
     "mapping.search", None),
    ("repro.mapping.optimizer", "ScheduleOptimizer.optimize",
     "mapping.optimize", None),
    ("repro.serve.payloads", "map_payload", "serve.payloads", None),
    ("repro.serve.payloads", "grid_payload", "serve.payloads", None),
    ("repro.serve.payloads", "run_payload", "serve.payloads", None),
    ("repro.serve.payloads", "reduce_grid_result", "serve.payloads", None),
    ("repro.serve.payloads", "dumps", "serve.payloads", None),
    ("repro.analysis.sweep", "DesignSpaceExplorer.sweep_grid",
     "analysis.sweep", None),
    ("repro.analysis.sweep", "DesignSpaceExplorer.sweep_chain_length",
     "analysis.sweep", None),
    ("repro.analysis.sweep", "DesignSpaceExplorer.sweep_frequency",
     "analysis.sweep", None),
    ("repro.analysis.sweep", "DesignSpaceExplorer.sweep_batch_size",
     "analysis.sweep", None),
    ("repro.analysis.batch", "BatchDesignEvaluator.evaluate_grid",
     "analysis.grid", _grid_points),
    ("repro.analysis.batch", "BatchSweepResult.to_json_dict",
     "analysis.result_json", None),
    ("repro.analysis.batch", "BatchSweepResult.from_json_dict",
     "analysis.result_json", None),
    ("repro.engine.adapters", "AnalyticalEngine.evaluate",
     "engine.evaluate", None),
    ("repro.engine.adapters", "AnalyticalBatchEngine.evaluate",
     "engine.evaluate", None),
    ("repro.engine.adapters", "CycleEngine.evaluate", "engine.evaluate", None),
    ("repro.engine.executor", "SweepExecutor.run_points",
     "engine.executor", None),
    ("repro.engine.executor", "SweepExecutor.run_grid",
     "engine.executor", None),
    ("repro.engine.cache", "RunCache.put", "cache.put", _put_bytes),
    ("repro.engine.cache", "RunCache.get", "cache.get", None),
)

#: patched inside the ``repro serve`` process
SERVE_POINTS: Tuple[Tuple[str, str, str, Optional[CountHook]], ...] = (
    ("repro.serve.server", "parse_params", "serve.parse", None),
    ("repro.serve.protocol", "HttpRequest.json", "serve.parse", None),
    ("repro.analysis.batch", "DesignGrid.parse", "serve.parse", None),
    ("repro.serve.coalesce", "merge_grids", "serve.coalesce", None),
    ("repro.serve.coalesce", "scatter_result", "serve.coalesce", None),
    ("repro.serve.payloads", "reduce_grid_result", "serve.reduce", None),
    ("repro.serve.payloads", "grid_payload", "serve.serialize", None),
    ("repro.serve.payloads", "run_payload", "serve.serialize", None),
    ("repro.serve.payloads", "dumps", "serve.serialize", None),
    ("repro.serve.server", "http_response", "serve.serialize", None),
    ("repro.engine.adapters", "AnalyticalBatchEngine.evaluate_batch",
     "engine.evaluate_batch", None),
    ("repro.analysis.batch", "BatchDesignEvaluator.evaluate_grid",
     "analysis.grid", _grid_points),
    ("repro.engine.adapters", "AnalyticalEngine.evaluate",
     "engine.evaluate", None),
    ("repro.engine.adapters", "AnalyticalBatchEngine.evaluate",
     "engine.evaluate", None),
)

#: modules that fetch the kernel backend per call; their ``get_backend``
#: is replaced by one handing out span-wrapped kernels
KERNEL_CONSUMERS = ("repro.analysis.batch", "repro.sim.functional_vectorized",
                    "repro.sim.winograd")

KERNEL_SPANS = {
    "ofmap_block_product": "kernels.ofmap_block",
    "winograd_group_conv": "kernels.winograd",
    "score_mappings": "kernels.score",
    "score_mappings_winograd": "kernels.score",
}


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Instrumentation:
    """Install/uninstall span wrappers at a table of patch points, plus
    the kernel wrappers; ``request_reader`` also times HTTP request
    parsing (for the server process)."""

    def __init__(self, recorder: Recorder,
                 points: Sequence[Tuple[str, str, str, Optional[CountHook]]],
                 request_reader: bool = False) -> None:
        self.recorder = recorder
        self.points = points
        self.request_reader = request_reader
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str,
               replace: Callable[[Any], Any]) -> None:
        """Set ``owner.attr`` to ``replace(raw attribute)``, remembering it."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replace(raw))

    def _wrapper(self, name: str, hook: Optional[CountHook]
                 ) -> Callable[[Any], Any]:
        def replace(raw: Any) -> Any:
            if isinstance(raw, (classmethod, staticmethod)):
                return type(raw)(self.recorder.wrap(name, raw.__func__, hook))
            return self.recorder.wrap(name, raw, hook)
        return replace

    def install(self) -> None:
        for module_name, path, name, hook in self.points:
            self._patch(*_resolve(module_name, path), self._wrapper(name, hook))
        if self.request_reader:
            self._patch(*_resolve("repro.serve.server", "read_http_request"),
                        lambda raw: _request_reader(self.recorder, "serve.parse", raw))
        self._install_kernels()

    def _install_kernels(self) -> None:
        wrapped: Dict[int, Tuple[Any, Any]] = {}
        recorder = self.recorder

        def traced_backend(backend):
            entry = wrapped.get(id(backend))
            if entry is None or entry[0] is not backend:
                fields = {attr: recorder.wrap(span, getattr(backend, attr))
                          for attr, span in KERNEL_SPANS.items()}
                entry = (backend, dataclasses.replace(backend, **fields))
                wrapped[id(backend)] = entry
            return entry[1]

        def replace(original):
            return lambda name=None: traced_backend(original(name))

        for module_name in KERNEL_CONSUMERS:
            self._patch(importlib.import_module(module_name), "get_backend", replace)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #
def in_windows(spans: Iterable[Span],
               windows: Sequence[Tuple[int, int]]) -> List[Span]:
    """The spans that start inside one of the ``(start, end)`` windows."""
    return [span for span in spans
            if any(lo <= span[2] < hi for lo, hi in windows)]


def self_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"busy_s": self seconds, "calls": spans}}``."""
    child_ns: Dict[int, int] = defaultdict(int)
    for _id, _name, start, end, parent in spans:
        if parent is not None:
            child_ns[parent] += end - start
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"busy_s": 0.0, "calls": 0})
    for span_id, name, start, end, _parent in spans:
        layers[name]["busy_s"] += max(0, end - start - child_ns[span_id]) / 1e9
        layers[name]["calls"] += 1
    return dict(layers)


def covered_s(spans: Sequence[Span],
              windows: Sequence[Tuple[int, int]]) -> float:
    """Seconds of the windows that at least one span covers."""
    total = 0
    for lo, hi in windows:
        intervals = sorted((max(lo, s[2]), min(hi, s[3])) for s in spans
                           if s[3] > lo and s[2] < hi)
        cursor = lo
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                total += end - start
                cursor = end
    return total / 1e9
