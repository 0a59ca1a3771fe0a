"""One benchmark process for one workload (launched by ``run.py``).

Usage: ``python3 perfbench/session.py --workload NAME --seed N --seconds S
--trace 0|1 --tmp DIR [--probe | --out FILE]``

The process imports ``repro``, runs the workload's set-up (a warm-up on
small inputs) and prints ``READY`` with the monotonic time at which the
import ended; the launcher times launch-to-``READY`` as one set-up
sample, split at that time.  With ``--probe`` it stops there.  Otherwise it
runs timed passes until ``--seconds`` is used (at least ``MIN_PASSES``),
and with ``--trace 1`` a second series of passes with the span wrappers
installed.  It writes its findings to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from spans import (
    CLI_POINTS,
    Instrumentation,
    Recorder,
    clock_ns,
    covered_s,
    in_windows,
    self_times,
)
from workloads import WORKLOADS, PassResult, ServeMixed, Workload

#: timed passes per series, at least
MIN_PASSES = 3

#: traced passes, at least; serve-mixed needs ~1000 sweeps for a p99
MIN_TRACED_PASSES = {"serve-mixed": 4}


def timed_pass(workload: Workload) -> PassResult:
    start, start_ns = time.perf_counter(), clock_ns()
    result = workload.run_pass()
    elapsed = time.perf_counter() - start
    result.wall_s = result.wall_s or elapsed
    result.phases["pass"] = (start_ns, clock_ns())
    if not result.op_s:  # concurrent requests: the pass is the one op
        result.op_s["pass"] = result.wall_s
    return result


def run_series(workload: Workload, seconds: float, min_passes: int
               ) -> List[PassResult]:
    """Timed passes until ``seconds`` would be exceeded (>= min_passes)."""
    passes: List[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(timed_pass(workload))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def floor_s(passes: Sequence[PassResult]) -> float:
    """A pass at every op's fastest: each op's quickest run, summed.

    On a shared 2-core host, neighbours slowed work in bursts: over three
    minutes of 2.4 ms CPU tasks, the median task of a 5 s window slowed up
    to 1.4x, yet its fastest tenth stayed within 10% of the quiet value.
    A short op's fastest run therefore steadies far sooner than a whole
    pass's.
    """
    return sum(min(p.op_s[op] for p in passes) for op in passes[0].op_s)


def percentile(samples: Sequence[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def layer_metrics(spans: Sequence, counts: Dict[str, float],
                  traced: List[PassResult], untraced: List[PassResult]
                  ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer numbers per traced pass, and the coverage summary."""
    n = len(traced)
    windows = [p.phases["pass"] for p in traced]
    selected = in_windows(spans, windows)
    layers = self_times(selected)
    metrics: Dict[str, float] = {}
    for layer, values in layers.items():
        metrics[f"{layer}.busy_s"] = values["busy_s"] / n
        metrics[f"{layer}.calls"] = values["calls"] / n
    for key, value in counts.items():
        metrics[key] = value / n
    metrics["cache.put.count"] = metrics.get("cache.put.calls", 0.0)
    metrics["cache.get.count"] = metrics.get("cache.get.calls", 0.0)
    evaluated = metrics.get("sim.windows_evaluated", 0.0)
    metrics["sim.keep_ratio"] = (metrics.get("sim.windows_kept", 0.0) / evaluated
                                 if evaluated else 0.0)
    full = metrics.get("mapping.full_size", 0.0)
    metrics["mapping.prune_ratio"] = (
        metrics.get("mapping.candidates_enumerated", 0.0) / full if full else 0.0)
    for phase in ("cold", "warm"):
        if f"{phase}.hit_ratio" in traced[0].stats:
            metrics[f"cache.hit_ratio.{phase}"] = float(traced[0].stats[f"{phase}.hit_ratio"])

    wall = sum(p.wall_s for p in traced)
    metrics["trace.unattributed_share"] = 1.0 - covered_s(selected, windows) / wall
    metrics["trace.overhead_ratio"] = floor_s(traced) / floor_s(untraced)

    # the top layer; for sweep-cached, of the cold (cache-writing) halves
    top_windows = [p.phases["cold"] for p in traced if "cold" in p.phases]
    top_scope = "cold pass" if top_windows else "pass"
    top_layers = self_times(in_windows(selected, top_windows)) if top_windows else layers
    top_wall = (sum(p.phase_s["cold"] for p in traced) if top_windows else wall)
    top_name = max(top_layers, key=lambda name: top_layers[name]["busy_s"])
    metrics["trace.top_layer_share"] = top_layers[top_name]["busy_s"] / top_wall
    ranked = sorted(layers.items(), key=lambda item: -item[1]["busy_s"])
    return metrics, {"top_layer": top_name, "top_scope": top_scope,
                     "layer_shares": {name: values["busy_s"] / wall
                                      for name, values in ranked}}


def serve_metrics(metrics: Dict[str, float], outcome: Dict[str, Any],
                  traced: List[PassResult]) -> None:
    """Serve-side additions: queue waits, batching, unattributed time."""
    n = len(traced)
    waits = outcome.get("queue_waits_s", [])
    if waits:
        metrics["serve.queue_wait_p50_ms"] = percentile(waits, 0.50) * 1e3
    if len(waits) * 0.01 >= 10:  # p99 only with 10 samples beyond it
        metrics["serve.queue_wait_p99_ms"] = percentile(waits, 0.99) * 1e3
    registry = outcome.get("registry", {})
    batches = registry.get("serve.coalesced_batches", 0)
    metrics["serve.batches"] = batches / n
    metrics["serve.requests_per_batch"] = (
        registry.get("serve.coalesced_requests", 0) / batches if batches else 0.0)
    latencies = [value for p in traced for value in p.latencies_s]
    busy = sum(value for key, value in metrics.items() if key.endswith(".busy_s"))
    requests = len(latencies) / n
    metrics["serve.unattributed_ms"] = (
        (statistics.fmean(latencies) - busy / requests) * 1e3 if latencies else 0.0)


def check_passes(passes: List[PassResult]) -> None:
    """Fail a pass whose statistics or outputs differ from the first's."""
    first = passes[0]
    for number, result in enumerate(passes[1:], start=1):
        for key, value in result.stats.items():
            if first.stats.get(key) != value:
                result.fail(f"pass {number}: {key} = {value}, first pass "
                            f"{first.stats.get(key)}")
        for key, text in result.outputs.items():
            if key in first.outputs and first.outputs[key] != text:
                result.fail(f"pass {number}: output {key} differs from the first pass")


def environment() -> Dict[str, Any]:
    import numpy
    from repro.kernels import resolve_backend_name

    return {
        "kernel_backend": resolve_backend_name(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def session(workload: Workload, args: argparse.Namespace) -> Dict[str, Any]:
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_series(workload, budget, MIN_PASSES if not args.trace else 2)
    timed = list(untraced)
    report: Dict[str, Any] = {"environment": environment()}
    traced: List[PassResult] = []
    if args.trace:
        min_traced = MIN_TRACED_PASSES.get(workload.name, 2)
        if isinstance(workload, ServeMixed):
            workload.stop_server()
            workload.start_server(traced=True)
            traced = run_series(workload, budget, min_traced)
            outcome = workload.stop_server()
            metrics, summary = layer_metrics(outcome.get("spans", []),
                                             outcome.get("counts", {}),
                                             traced, untraced)
            serve_metrics(metrics, outcome, traced)
        else:
            recorder = Recorder()
            instrumentation = Instrumentation(recorder, CLI_POINTS)
            instrumentation.install()
            try:
                traced = run_series(workload, budget, min_traced)
            finally:
                instrumentation.uninstall()
            metrics, summary = layer_metrics(recorder.spans, recorder.counts,
                                             traced, untraced)
        timed += traced
        report.update(per_layer=metrics, **summary)
    check_passes(timed)
    workload.teardown()  # the server reports when it stops
    failures = workload.final_checks()
    if isinstance(workload, ServeMixed):
        rss_kb = workload.server_results[0].get("maxrss_kb", 0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [value for p in untraced for value in p.latencies_s]
    report.update(
        pass_walls=[p.wall_s for p in untraced],
        floor_s=floor_s(untraced),
        ops=len(untraced[0].op_s),
        pass_work=[p.work for p in untraced],
        phase_s={phase: [p.phase_s[phase] for p in untraced]
                 for phase in untraced[0].phase_s},
        latencies_s=latencies,
        stats=untraced[0].stats,
        attempted=sum(p.attempted for p in timed),
        failed=sum(p.failed for p in timed) + len(failures),
        errors=[error for p in timed for error in p.errors] + failures,
        peak_rss_kb=rss_kb,
        traced_passes=len(traced),
    )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    import repro.cli  # noqa: F401 - the import is part of set-up
    imported_ns = clock_ns()

    workload = WORKLOADS[args.workload](args.seed, Path(args.tmp))
    try:
        workload.setup()
        print(f"READY {imported_ns}", flush=True)
        if args.probe:
            return 0
        report = session(workload, args)
    finally:
        workload.teardown()
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
