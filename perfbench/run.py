"""Repository benchmark: four workloads, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload simulate-alexnet --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 1

``--trace 0`` reports the end-to-end metrics (timed with nothing
installed); ``--trace 1`` reports the per-layer metrics of a separate
traced series.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.

Each workload runs in fresh ``session.py`` processes with every inherited
``REPRO_*`` variable removed and a fresh scratch directory under
``.bench_tmp/``.  Set-up is measured ``SETUPS`` times, each from process
launch to ready, split where the ``repro`` import ends; each part is
reported at its fastest.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent

#: the workloads and metrics, as the root BENCHMARK.json declares them;
#: every workload reports every metric (per-layer ones it never touches as 0)
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(workload["name"] for workload in DECLARED["workloads"])
UNITS = {metric["name"]: metric["unit"]
         for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]}

#: set-up samples per run: the measuring session and SETUPS - 1 probes,
#: half before it and half after
SETUPS = 13

#: one run must finish within this many seconds
DEADLINE_S = 170.0

#: BLAS/OpenMP pools are pinned to one thread: every load is serial, and
#: on a 2-core host a second BLAS thread made AlexNet verify slower and
#: its timings noisier
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")

#: what one unit of work is, per workload
WORK_UNITS = {
    "simulate-alexnet": ("windows_per_s", "kept windows simulated"),
    "map-zoo": ("candidates_per_s", "mapping candidates searched"),
    "serve-mixed": ("requests_per_s", "requests answered"),
    "sweep-cached": ("points_per_s", "design points returned"),
}

SEED_USE = {
    "simulate-alexnet": "verify --seed; the cycle run ignores it",
    "map-zoo": "ignored: exhaustive search is deterministic",
    "serve-mixed": "request list and checked sample",
    "sweep-cached": "ignored: sweeps are deterministic",
}


def hermetic_env(root: Path, tmp: Path) -> Dict[str, str]:
    """The parent environment minus ``REPRO_*``, with ``src`` importable."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    for name in BLAS_THREAD_VARIABLES:
        env[name] = "1"
    return env


def launch(argv: List[str], env: Dict[str, str], root: Path,
           deadline: float) -> Tuple[subprocess.Popen, Tuple[float, float]]:
    """Start a session; return it with its set-up seconds split in two:
    launch to ``repro`` imported, and imported to ``READY``."""
    start = time.monotonic_ns()
    # a session of its own, so stop() also reaches a server it started
    process = subprocess.Popen(argv, env=env, cwd=root, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    for line in process.stdout:
        if line.startswith("READY "):
            ready = time.monotonic_ns()
            imported = int(line.split()[1])  # the same system-wide clock
            return process, ((imported - start) / 1e9, (ready - imported) / 1e9)
        sys.stderr.write(line)
        if time.monotonic() > deadline:
            break
    stop(process)
    raise RuntimeError(f"session exited (code {process.returncode}) "
                       "before its set-up completed")


def stop(process: subprocess.Popen) -> None:
    """Kill the session's whole process group and reap the session."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()


def finish(process: subprocess.Popen, deadline: float) -> None:
    """Wait for a session to exit by ``deadline``; raise unless it exited 0."""
    try:
        process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(process)
        raise RuntimeError(f"session did not finish within {DEADLINE_S:.0f} s")
    if process.returncode != 0:
        raise RuntimeError(f"session exited with {process.returncode}")


def run_workload(name: str, args: argparse.Namespace, root: Path,
                 deadline: float) -> Dict[str, Any]:
    tmp = root / ".bench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = hermetic_env(root, tmp)
    base = [sys.executable, str(HERE / "session.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--tmp", str(tmp)]
    report_path = tmp / "report.json"
    setups: List[Tuple[float, float]] = []
    process = None
    try:
        # probes on both sides of the measuring session, so one burst of
        # host contention cannot skew every set-up sample
        for number in range(SETUPS):
            measuring = number == SETUPS // 2
            extra = ["--out", str(report_path)] if measuring else ["--probe"]
            process, seconds = launch(base + extra, env, root, deadline)
            setups.append(seconds)
            finish(process, deadline)
        report = json.loads(report_path.read_text())
    finally:
        if process is not None and process.returncode is None:
            stop(process)  # interrupted while a session was running
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    report["setups_s"] = setups
    return report


def end_to_end(report: Dict[str, Any]) -> Dict[str, float]:
    """Times from their fastest samples, part by part.

    On a shared 2-core host, neighbours slowed passes and launches by up
    to ~1.7x, in bursts; they only ever add time.  ``wall_s`` is a pass at
    every op's fastest (``session.floor_s``), ``setup_s`` a launch whose
    import and warm-up each ran at their fastest.  Over ~100 simulated
    runs of 13 launches, the fastest launch spread 0.06-0.10 of its median
    from run to run, the median launch ~0.19.
    """
    wall = report["floor_s"]
    imports, warmups = zip(*report["setups_s"])
    measured = {
        "wall_s": wall,
        "setup_s": min(imports) + min(warmups),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        # every pass does the same work
        "work_per_s": report["pass_work"][0] / wall,
    }
    return {metric["name"]: measured[metric["name"]]
            for metric in DECLARED["end_to_end"]}


def per_layer(report: Dict[str, Any]) -> Dict[str, float]:
    measured = report.get("per_layer", {})
    return {metric["name"]: float(measured.get(metric["name"], 0.0))
            for metric in DECLARED["per_layer"]}


def describe(name: str, args: argparse.Namespace, report: Dict[str, Any],
             metrics: Dict[str, float]) -> List[str]:
    """Human-readable lines: every metric by name, unit and sample count."""
    env = report["environment"]
    passes = len(report["pass_walls"])
    lines = [
        f"== {name}  seed={args.seed} ({SEED_USE[name]})  trace={args.trace}  "
        f"backend={env['kernel_backend']} nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']}",
        f"   error_ratio = {report['failed']}/{report['attempted']} ops",
    ]
    e2e = end_to_end(report)
    floor = f"each of {report['ops']} ops at its fastest of {passes} passes"
    samples = {"wall_s": floor,
               "setup_s": f"import and warm-up each at its fastest of "
                          f"{len(report['setups_s'])} launches",
               "peak_rss_mb": "1 sample",
               "work_per_s": floor}
    rate_name, rate_unit = WORK_UNITS[name]
    for metric, value in e2e.items():
        label = f"{metric} [{rate_name}: {rate_unit}]" if metric == "work_per_s" else metric
        lines.append(f"   {label} = {value:.6g} {UNITS[metric]} ({samples[metric]})")
    lines.append("   pass_walls_s = " + " ".join(f"{wall:.3f}" for wall in report["pass_walls"]))
    lines.append("   setups_s (import+warm-up) = " + " ".join(
        f"{imported:.3f}+{warmup:.3f}" for imported, warmup in report["setups_s"]))
    for phase, values in report["phase_s"].items():
        lines.append(f"   {phase}_pass_s = {min(values):.4f} s "
                     f"(fastest of {len(values)})")
    latencies = sorted(report["latencies_s"])
    if latencies:
        count = len(latencies)
        lines.append(f"   latency_p50_ms = {latencies[count // 2] * 1e3:.3f} ms "
                     f"({count} requests)")
        if count * 0.01 >= 10:
            p99 = latencies[min(int(0.99 * count), count - 1)]
            lines.append(f"   latency_p99_ms = {p99 * 1e3:.3f} ms ({count} requests)")
        else:
            lines.append(f"   latency_p99_ms not reported: {count} requests "
                         "leave fewer than 10 beyond it")
    for key, value in sorted(report["stats"].items()):
        lines.append(f"   stat {key} = {value}")
    if args.trace:
        lines.append(f"   traced coverage: top layer {report['top_layer']} "
                     f"({metrics['trace.top_layer_share']:.1%} of the "
                     f"{report['top_scope']}), unattributed "
                     f"{metrics['trace.unattributed_share']:.1%}, overhead "
                     f"x{metrics['trace.overhead_ratio']:.3f} "
                     f"({report['traced_passes']} traced passes)")
        for layer, share in list(report["layer_shares"].items())[:8]:
            lines.append(f"     {layer:<28} {share:7.1%} of wall")
        for metric, value in metrics.items():
            if value:
                lines.append(f"   {metric} = {value:.6g} {UNITS[metric]}")
    for error in report["errors"][:20]:
        lines.append(f"   FAILED: {error}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM unwind normally, so the running session group is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    started = time.monotonic()
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            report = run_workload(name, args, root, deadline)
        except (RuntimeError, OSError, ValueError) as error:
            print(f"error: {name}: {error}", file=sys.stderr)
            return 1
        values = per_layer(report) if args.trace else end_to_end(report)
        print("\n".join(describe(name, args, report, values)), flush=True)
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({f"{prefix}{key}": {"value": value, "unit": UNITS[key]}
                        for key, value in values.items()})
    print(f"== {len(names)} workload(s) in {time.monotonic() - started:.1f} s",
          flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
