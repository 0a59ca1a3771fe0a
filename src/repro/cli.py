"""Command-line interface.

``python -m repro <command>`` exposes the most common workflows without
writing any Python:

* ``info``        — describe the configured accelerator (peak GOPS, memories,
  Table II utilization);
* ``engines``     — list the registered execution engines;
* ``run``         — evaluate a zoo network through any engine (fps, GOPS,
  power, traffic), with ``--mode {paper,detailed}`` fidelity selection;
* ``experiments`` — regenerate every paper table/figure (paper vs measured),
  with ``--json`` machine-readable headline export;
* ``sweep``       — chain-length / frequency / batch design-space sweeps,
  with ``--engine`` and an on-disk result cache; dense grids
  via ``--grid pe=128:1152:32,freq=200:1000:50`` run through the columnar
  ``analytical-batch`` fast path, with ``--pareto`` / ``--top`` reduction;
* ``pareto``      — grid sweep + Pareto frontier (time vs. power vs. area)
  in one command;
* ``cache``       — ``stats`` / ``clear`` for the on-disk sweep result cache;
* ``verify``      — run a network's conv layers through the cycle-accurate
  simulator (``--sim cycle``, the default) or whole-network functional
  dataflow verification (``--sim functional``), on the tiny test network
  or ``--network alexnet``; every layer must equal the golden exactly;
* ``map``         — exhaustively search the pruned per-layer mapping space
  (primitive partition, stripe height, kernel chunking, batch interleave)
  for a latency / throughput / EDP / energy objective, report
  searched-vs-baseline schedules and optionally ``--verify`` every searched
  mapping against the im2col golden reference;
* ``networks``    — list the network zoo with per-network layer counts,
  MACs, parameter totals and Winograd-eligible MAC coverage;
* ``bench``       — run a registered benchmark (``sweep``, ``cycle``,
  ``functional``, ``mapping``, ``obs``, ``winograd``, ``serve`` or
  ``all``) and write its ``BENCH_*.json``
  trajectory record;
* ``trace``       — ``summarize FILE`` renders per-span statistics for a
  wall-clock trace exported with ``--trace``.

Observability (:mod:`repro.obs`) is global: ``--trace FILE`` records a
wall-clock span trace of the whole command — engines, cache and mapping
search on one timeline — as Chrome trace-event JSON (load in Perfetto /
chrome://tracing; a ``.jsonl`` suffix selects the line-oriented format
instead), and ``--metrics`` dumps the metrics registry (cache
hits/misses, candidates enumerated/pruned/scored, ...) to stderr after
the command.  ``sweep`` and ``map`` always print a one-line stats footer
(wall time, throughput, cache hit-rate) even without either flag.

``run``/``map``/``verify`` take ``--algorithm {direct,winograd,auto}`` to
select the conv execution algorithm: ``winograd`` runs (or pins the search
to) the Winograd F(2x2,3x3) transform domain on eligible 3x3-stride-1
layers, ``auto`` lets the mapping search pick direct vs Winograd per layer
under the never-worse guarantee.

Every command takes ``--pes`` and ``--frequency-mhz`` so non-paper
instantiations can be explored from the shell, and cache-carrying
commands take ``--cache-max-mb`` to bound the on-disk store with LRU
eviction.  Every command runs in one process: the exact GEMM kernels
already use every core through BLAS.  All evaluation dispatches through
the unified engine layer (:mod:`repro.engine`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.analysis.batch import DEFAULT_OBJECTIVES
from repro.analysis.winograd import network_winograd_coverage, winograd_eligible
from repro.analysis.report import render_bar_chart, render_dict_table, render_table
from repro.analysis.sweep import DesignSpaceExplorer
from repro.cnn.layer import FullyConnectedLayer
from repro.cnn.network import Network
from repro.cnn.zoo import NETWORKS, get_network, tiny_test_network
from repro.core.config import MAINSTREAM_KERNEL_SIZES, ChainConfig
from repro.core.utilization import utilization_table
from repro.engine import (
    ALGORITHM_ENGINES,
    CACHE_DIR_ENV,
    CACHE_MAX_MB_ENV,
    RunCache,
    available_engines,
    create_engine,
)
from repro.errors import INPUT_ERRORS, ConfigurationError
from repro.hwmodel.clock import ClockDomain
from repro.mapping import OBJECTIVES, ScheduleOptimizer
from repro.mapping.mapspace import ALGORITHM_MODES
from repro.obs import trace as obs_trace
from repro.obs.export import export_trace, render_summary, summarize_trace
from repro.obs.metrics import REGISTRY, render_metrics
from repro.serve import payloads as serve_payloads
from repro.serve.protocol import DEFAULT_PORT
from repro.sim.network import FunctionalNetworkRunner


def _config_from_args(args: argparse.Namespace) -> ChainConfig:
    return ChainConfig(
        num_pes=args.pes,
        clock=ClockDomain(args.frequency_mhz * 1e6),
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _cache_from_args(args: argparse.Namespace) -> Optional[RunCache]:
    """Sweep cache selection: ``--cache-dir`` wins, else ``$REPRO_CACHE_DIR``
    enables the default location, else caching stays off."""
    if getattr(args, "no_cache", False):
        return None
    max_mb = getattr(args, "cache_max_mb", None)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        return RunCache(cache_dir, max_mb=max_mb)
    if os.environ.get(CACHE_DIR_ENV):
        return RunCache(max_mb=max_mb)
    return None


# --------------------------------------------------------------------- #
# sub-commands
# --------------------------------------------------------------------- #
def cmd_info(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    print(config.describe())
    rows = {}
    for kernel, entry in utilization_table(config.num_pes, MAINSTREAM_KERNEL_SIZES).items():
        rows[f"K={kernel}"] = {
            "primitives": entry.active_primitives,
            "active PEs": entry.active_pes,
            "utilization (%)": entry.utilization * 100.0,
        }
    print(render_dict_table(rows, title="PE utilization (Table II)", row_label="kernel"))
    return 0


def cmd_engines(args: argparse.Namespace) -> int:
    print("registered engines:")
    for name in available_engines():
        print(f"  {name}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    network = get_network(args.network)
    engine_kwargs = {}
    if args.engine == "analytical":
        engine_kwargs = {"mode": args.mode or "paper"}
    elif args.mode is not None:
        expected = "detailed" if args.engine == "analytical-detailed" else None
        if args.mode != expected:
            print(f"error: --mode {args.mode} conflicts with --engine {args.engine}",
                  file=sys.stderr)
            return 2
    if args.algorithm != "direct":
        if args.engine not in ALGORITHM_ENGINES:
            print(f"error: --algorithm {args.algorithm} applies to "
                  f"--engine {{{','.join(ALGORITHM_ENGINES)}}}, "
                  f"not {args.engine}", file=sys.stderr)
            return 2
        engine_kwargs["algorithm"] = args.algorithm
    engine = create_engine(args.engine, **engine_kwargs)
    record = engine.evaluate(network, config, batch=args.batch)
    traffic = (serve_payloads.traffic_table(network, config, args.batch)
               if args.traffic else None)

    if args.json:
        print(serve_payloads.dumps(serve_payloads.run_payload(record, traffic)))
        return 0

    # the mapped engine reports search metrics, not the per-layer analytical
    # summary; it renders through the generic engine table below
    if args.engine.startswith("analytical") and args.engine != "analytical-mapped":
        summary_keys = ("batch", "fps", "conv_time_per_batch_ms", "kernel_load_time_ms",
                        "achieved_gops", "total_power_w", "gops_per_watt")
        summary = {key: record.metrics[key] for key in summary_keys}
        print(record.config_summary)
        print(network.summary())
        print()
        print(render_table([summary],
                           title=f"{network.name}, batch {args.batch} ({record.engine})"))
        print()
        print(render_bar_chart(record.extra["layer_times_ms"],
                               title="Per-layer convolution time (ms)", unit=" ms"))
        _print_traffic(traffic)
        return 0

    print(record.config_summary or config.describe())
    print(network.summary())
    print()
    rows = {record.engine: {k: v for k, v in sorted(record.metrics.items())}}
    print(render_dict_table(rows, title=f"{network.name}, batch {args.batch}",
                            row_label="engine"))
    _print_traffic(traffic)
    return 0


def _print_traffic(traffic) -> None:
    if traffic is not None:
        print()
        print(render_dict_table(traffic, title="Memory traffic (MB)",
                                row_label="layer"))


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import runner

    if args.json or args.write_md:
        # one implementation of the export paths for both entry points
        argv = ["--json"] if args.json else []
        if args.write_md:
            argv += ["--write-md", args.write_md]
        return runner.main(argv)
    report = runner.run_all()
    print(report.report())
    print()
    for key, value in report.headline().items():
        print(f"{key:<36} {value:10.2f}")
    return 0


def _print_cache_counters(explorer: DesignSpaceExplorer) -> None:
    """Surface the executor's cache hit/miss counters after a sweep."""
    cache = explorer.executor.cache
    if cache is None:
        return
    stats = cache.stats()
    print(f"cache: {stats['hits']} hits / {stats['misses']} misses, "
          f"{stats['entries']} entries on disk ({stats['root']})")


def cmd_sweep_grid(args: argparse.Namespace) -> int:
    """Dense-grid sweep through the columnar batch path."""
    # analytical records are one-point views of the columnar evaluator, so
    # dense grids dispatch to its whole-grid engine in either fidelity mode
    engine = serve_payloads.upgrade_grid_engine(args.engine)
    explorer = DesignSpaceExplorer(
        get_network(args.network),
        batch=args.batch,
        engine=engine,
        cache=_cache_from_args(args),
    )
    result = explorer.sweep_grid(args.grid, base=_config_from_args(args))
    pareto, top = serve_payloads.reduce_grid_result(
        result, args.objectives, args.metric, args.top, args.pareto)

    if args.json:
        print(serve_payloads.dumps(serve_payloads.grid_payload(
            args.grid, engine, args.network, result, pareto, top,
            args.objectives, args.metric)))
        return 0

    print(f"{result.n_points} design points on {args.network} ({engine}), "
          f"grid {args.grid}")
    if pareto is not None:
        shown = min(pareto.n_points, args.max_rows)
        title = (f"Pareto frontier ({pareto.n_points} points, "
                 f"{' vs '.join(args.objectives)})")
        if shown < pareto.n_points:
            title += f" — first {shown} shown, use --json for all"
        order = pareto.top_k("gops_per_watt", shown)
        print(render_table(order.rows(), title=title, row_names=order.labels(),
                           row_label="point"))
    if top is not None:
        print(render_table(top.rows(), title=f"top {top.n_points} by {args.metric}",
                           row_names=top.labels(), row_label="point"))
    _print_cache_counters(explorer)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.grid is not None and args.axis is not None:
        raise ConfigurationError("give either a sweep axis or --grid, not both")
    if args.grid is None and args.axis is None:
        raise ConfigurationError("need a sweep axis (pes/frequency/batch) or --grid")
    if args.grid is not None:
        return cmd_sweep_grid(args)
    explorer = DesignSpaceExplorer(
        get_network(args.network),
        batch=args.batch,
        engine=args.engine,
        cache=_cache_from_args(args),
    )
    base = _config_from_args(args)
    if args.axis == "pes":
        points = explorer.sweep_chain_length(base=base)
    elif args.axis == "frequency":
        points = explorer.sweep_frequency(base=base)
    else:
        fps = explorer.sweep_batch_size(base=base)
        if args.json:
            print(json.dumps({"axis": "batch", "engine": args.engine,
                              "network": args.network,
                              "fps_by_batch": {str(b): v for b, v in fps.items()}},
                             indent=2, sort_keys=True))
            return 0
        print(render_bar_chart({f"batch {b}": value for b, value in fps.items()},
                               title="fps vs batch size", unit=" fps"))
        return 0
    if args.json:
        payload = {
            "axis": args.axis,
            "engine": args.engine,
            "network": args.network,
            "batch": args.batch,
            "points": [{"label": point.label, **point.as_row()} for point in points],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(render_table([point.as_row() for point in points],
                       title=f"{args.axis} sweep on {args.network} ({args.engine})",
                       row_names=[point.label for point in points], row_label="point"))
    _print_cache_counters(explorer)
    return 0


def cmd_pareto(args: argparse.Namespace) -> int:
    """Grid sweep + Pareto reduction in one command."""
    args.pareto = True
    args.top = None
    return cmd_sweep_grid(args)


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the on-disk sweep result cache."""
    # explicit None check: RunCache defines __len__, so an *empty* cache is
    # falsy and `or` would silently swap a --cache-dir selection for the
    # default root
    cache = _cache_from_args(args)
    if cache is None:
        cache = RunCache(max_mb=args.cache_max_mb)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached records from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"cache root : {stats['root']}")
    print(f"entries    : {stats['entries']}")
    print(f"size       : {stats['bytes'] / 1024:.1f} KiB")
    if stats["max_bytes"] is not None:
        print(f"size bound : {stats['max_bytes'] / (1024 * 1024):.1f} MiB (LRU)")
    if stats["tmp_orphans"]:
        print(f"tmp orphans: {stats['tmp_orphans']} (crash debris; "
              "'repro cache clear' reaps them)")
    if stats["corrupt"]:
        print(f"corrupt    : {stats['corrupt']} quarantined record(s)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.sim == "functional":
        return _verify_functional(args)
    if args.algorithm != "direct":
        print("error: --algorithm applies to --sim functional only (the "
              "cycle simulator executes the direct dataflow)", file=sys.stderr)
        return 2
    network = _verify_network(args)
    # the cycle engine's simulator raises on any nonzero difference from the
    # direct golden, so a record that comes back has verified every layer
    record = create_engine("cycle", seed=args.seed).evaluate(
        network, _config_from_args(args))
    for layer in network.conv_layers:
        simulated = record.extra["layers"][layer.name]
        print(f"{layer.name:<10} K={layer.kernel_size} "
              f"max|err|={simulated['max_abs_error']:.2e} "
              f"cycles={int(simulated['primitive_cycles'])}")
    print("verification PASSED")
    return 0


def cmd_networks(args: argparse.Namespace) -> int:
    """List the network zoo with layer counts, MACs and parameter totals."""
    entries = {}
    for name in sorted(NETWORKS):
        network = get_network(name)
        fc_params = sum(layer.in_features * layer.out_features
                        for layer in network.layers
                        if isinstance(layer, FullyConnectedLayer))
        conv_layers = network.conv_layers
        coverage = network_winograd_coverage(network)
        entries[name] = {
            "network": network.name,
            "layers": len(network.layers),
            "conv_layers": len(conv_layers),
            "conv_macs_per_image": network.total_conv_macs,
            "conv_weights": network.total_conv_weights,
            "fc_weights": fc_params,
            "total_weights": network.total_conv_weights + fc_params,
            "max_kernel": max((layer.kernel_size for layer in conv_layers),
                              default=0),
            # which conv layers the Winograd F(2x2,3x3) mode can execute,
            # and what fraction of the network's conv MACs they hold
            "winograd_eligible": {
                layer.name: winograd_eligible(layer) for layer in conv_layers
            },
            "winograd_mac_coverage": coverage["mac_coverage"],
        }
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    rows = {
        name: {
            "layers": entry["layers"],
            "conv": entry["conv_layers"],
            "MACs/image (M)": entry["conv_macs_per_image"] / 1e6,
            "conv params (M)": entry["conv_weights"] / 1e6,
            "total params (M)": entry["total_weights"] / 1e6,
            "max K": entry["max_kernel"],
            "wino MAC cov (%)": entry["winograd_mac_coverage"] * 100.0,
        }
        for name, entry in entries.items()
    }
    print(render_dict_table(rows, title="network zoo", row_label="network"))
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    """Search the mapping space and report the optimised schedule."""
    optimizer = ScheduleOptimizer(
        config=_config_from_args(args),
        objective=args.objective,
        batch=args.batch,
        cache=_cache_from_args(args),
        algorithm=args.algorithm,
    )
    network = get_network(args.network)
    schedule = optimizer.optimize(network)
    verification = (optimizer.verify(network, schedule, seed=args.seed)
                    if args.verify else None)

    if args.json:
        print(serve_payloads.dumps(
            serve_payloads.map_payload(schedule, args.algorithm, verification)))
        return 0 if verification is None or verification.passed else 1

    print(schedule.describe())
    searched_fps = schedule.frames_per_second()
    base_time = sum(s.metrics["time_per_batch_s"] for s in schedule.baseline)
    print(f"  fps: searched {searched_fps:.1f} vs baseline "
          f"{schedule.batch / base_time:.1f}; first image "
          f"{schedule.first_image_latency_s() * 1e3:.2f} ms, "
          f"energy/batch {schedule.total_energy_per_batch_j() * 1e3:.1f} mJ")
    if verification is not None:
        print()
        print(verification.describe())
        return 0 if verification.passed else 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the evaluation service until interrupted (Ctrl-C or SIGTERM)."""
    import asyncio
    import signal

    from repro.serve.server import EvalServer

    server = EvalServer(args.host, args.port, cache=_cache_from_args(args))

    async def _serve() -> None:
        await server.start()
        # SIGTERM stops gracefully too, as Ctrl-C does: a server started in
        # the background of a non-interactive shell ignores SIGINT
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, asyncio.current_task().cancel)
        except NotImplementedError:  # event loops without signal support
            pass
        print(f"repro serve listening on http://{server.host}:{server.port} "
              "(Ctrl-C or SIGTERM stops)")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except (KeyboardInterrupt, asyncio.CancelledError):
        # a second Ctrl-C or SIGTERM cuts the graceful stop short
        pass
    flat = REGISTRY.flat()
    print(f"[serve] {int(flat.get('serve.requests', 0))} requests, "
          f"{int(flat.get('serve.coalesced_batches', 0))} coalesced batches, "
          f"{int(flat.get('serve.points', 0))} points", file=sys.stderr)
    return 0


def cmd_request(args: argparse.Namespace) -> int:
    """Send one request to a running evaluation service.

    The response body is printed exactly as the server produced it, which
    is byte-identical to the matching ``repro <command> --json`` output.
    """
    from repro.serve.client import ServeClient, ServeError

    try:
        params = json.loads(args.params) if args.params else {}
    except ValueError as error:
        print(f"error: request parameters must be a JSON object ({error})",
              file=sys.stderr)
        return 2
    if not isinstance(params, dict):
        print("error: request parameters must be a JSON object", file=sys.stderr)
        return 2
    try:
        with ServeClient(args.host, args.port, timeout=args.timeout) as client:
            if args.op in ("map", "verify"):
                def on_event(event: dict) -> None:
                    print(json.dumps(event, sort_keys=True), file=sys.stderr)
                payload, status = client.stream(
                    f"/v1/{args.op}", params,
                    on_event if args.progress else None)
                print(serve_payloads.dumps(payload))
                return status
            if args.op in ("health", "metrics"):
                payload = client.call(f"/v1/{args.op}", method="GET")
            else:
                payload = client.call(f"/v1/{args.op}", params)
            print(serve_payloads.dumps(payload))
            return 0
    except ServeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: cannot reach the evaluation service at "
              f"{args.host}:{args.port} ({error}); start one with "
              "'repro serve'", file=sys.stderr)
        return 1


#: registered benchmarks: name -> pytest files that measure it and write
#: ``BENCH_<name>.json`` at the repo root (run from a repo checkout)
BENCHMARKS = {
    "sweep": ("benchmarks/bench_batch_sweep.py",),
    "cycle": ("benchmarks/bench_vectorized_cycle.py",),
    "functional": ("benchmarks/bench_functional.py",),
    "mapping": ("benchmarks/bench_mapping.py",),
    "winograd": ("benchmarks/bench_winograd.py",),
    "obs": ("benchmarks/bench_obs.py",),
    "serve": ("benchmarks/bench_serve.py",),
}


def cmd_bench(args: argparse.Namespace) -> int:
    """Run registered benchmarks and write their ``BENCH_*.json`` records.

    ``repro bench <name>`` replaces the ad-hoc per-file pytest invocations
    CI used to carry: it locates the benchmark files relative to the
    installed sources, runs them through pytest (``--timing`` enables the
    pytest-benchmark timing loop; the default smoke pass only asserts the
    qualitative claims and records the measured numbers) and reports where
    the trajectory JSON landed.
    """
    import subprocess
    from pathlib import Path

    import repro

    src_dir = Path(repro.__file__).resolve().parent.parent
    repo_root = src_dir.parent
    names = sorted(BENCHMARKS) if args.name == "all" else [args.name]
    for name in names:
        paths = [repo_root / path for path in BENCHMARKS[name]]
        missing = [str(path) for path in paths if not path.is_file()]
        if missing:
            print(f"error: benchmark files not found: {', '.join(missing)} "
                  "(repro bench needs a repository checkout)", file=sys.stderr)
            return 2
        command = [sys.executable, "-m", "pytest",
                   *[str(path) for path in paths], "-q"]
        if not args.timing:
            command.append("--benchmark-disable")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        print(f"[bench {name}] {' '.join(command[2:])}")
        outcome = subprocess.run(command, env=env, cwd=repo_root)
        if outcome.returncode != 0:
            print(f"error: benchmark {name!r} failed "
                  f"(exit {outcome.returncode})", file=sys.stderr)
            return outcome.returncode
        record = repo_root / f"BENCH_{name}.json"
        if record.is_file():
            print(f"[bench {name}] wrote {record}")
        else:  # pragma: no cover - benchmark contract violation
            print(f"warning: benchmark {name!r} did not write {record}",
                  file=sys.stderr)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a wall-clock trace file written by ``--trace``."""
    try:
        summary = summarize_trace(args.path)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_summary(summary))
    return 0


def _verify_network(args: argparse.Namespace) -> Network:
    """The network ``verify --network`` names (``tiny`` is the test network)."""
    return tiny_test_network() if args.network == "tiny" else get_network(args.network)


def _verify_functional(args: argparse.Namespace) -> int:
    """Whole-network dataflow verification through the functional simulator.

    Every conv stage must equal the im2col golden exactly; the whole-array
    simulator keeps full AlexNet/VGG verification a seconds-scale operation.
    """
    runner = FunctionalNetworkRunner(
        _config_from_args(args), seed=args.seed, algorithm=args.algorithm,
    )
    result = runner.run(_verify_network(args))
    print(result.describe())
    return 0 if result.passed else 1


# --------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chain-NN (DATE 2017) reproduction — accelerator models and experiments",
    )
    parser.add_argument("--pes", type=int, default=576, help="number of PEs in the chain")
    parser.add_argument("--frequency-mhz", type=float, default=700.0, help="core clock (MHz)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record a wall-clock span trace of the command "
                             "(engines, cache, mapping search) as Chrome "
                             "trace-event JSON for Perfetto/chrome://tracing; "
                             "a .jsonl suffix writes line-oriented JSON "
                             "instead")
    parser.add_argument("--metrics", action="store_true",
                        help="dump the repro.obs metrics registry to stderr "
                             "after the command")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="describe the accelerator and its Table II utilization")
    sub.add_parser("engines", help="list the registered execution engines")

    run = sub.add_parser("run", help="evaluate a zoo network")
    run.add_argument("network", choices=sorted(NETWORKS), help="network to evaluate")
    run.add_argument("--batch", type=_positive_int, default=4, help="batch size")
    run.add_argument("--mode", choices=("paper", "detailed"), default=None,
                     help="analytical fidelity mode (paper-idealised or "
                          "register-level); only valid with analytical engines")
    run.add_argument("--engine", choices=available_engines(), default="analytical",
                     help="execution engine to dispatch through")
    run.add_argument("--json", action="store_true", help="emit the run record as JSON")
    run.add_argument("--traffic", action="store_true", help="also print the traffic table")
    run.add_argument("--algorithm", choices=ALGORITHM_MODES, default="direct",
                     help="conv execution algorithm: winograd/auto run "
                          "eligible 3x3-stride-1 layers in the transform "
                          "domain (functional engines) or add the algorithm "
                          "axis to the search (analytical-mapped)")

    experiments = sub.add_parser("experiments",
                                 help="regenerate every paper table and figure")
    experiments.add_argument("--json", action="store_true",
                             help="emit the headline numbers as JSON")
    experiments.add_argument("--write-md", nargs="?", const="EXPERIMENTS.md", default=None,
                             metavar="PATH", help="write EXPERIMENTS.md and exit")

    config_sensitive = tuple(name for name in available_engines()
                             if not name.startswith("baseline-"))

    def add_grid_arguments(parser: argparse.ArgumentParser,
                           pareto_implied: bool) -> None:
        parser.add_argument("--network", default="alexnet", choices=sorted(NETWORKS))
        parser.add_argument("--batch", type=_positive_int, default=16)
        parser.add_argument("--engine", choices=config_sensitive, default="analytical",
                            help="engine evaluating each design point (baselines are "
                                 "fixed architectures and cannot be swept); grids "
                                 "upgrade 'analytical' to the columnar "
                                 "'analytical-batch' fast path")
        parser.add_argument("--grid", default=None if not pareto_implied
                            else "pe=128:1152:32,freq=200:1000:50",
                            metavar="SPEC",
                            help="dense design grid, e.g. "
                                 "pe=128:1152:32,freq=200:1000:50[,batch=...][,bits=...] "
                                 "(freq in MHz, ranges are start:stop:step with "
                                 "inclusive stop)")
        parser.add_argument("--objectives", default=DEFAULT_OBJECTIVES,
                            type=lambda text: tuple(text.split(",")),
                            metavar="COL1,COL2,...",
                            help="metric columns minimised by the Pareto frontier "
                                 f"(default: {','.join(DEFAULT_OBJECTIVES)})")
        parser.add_argument("--metric", default="gops_per_watt",
                            help="metric column for --top ranking")
        parser.add_argument("--max-rows", type=_positive_int, default=20,
                            help="frontier rows printed in text mode")
        parser.add_argument("--json", action="store_true",
                            help="emit the results as JSON")
        parser.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="memoise design points in this directory "
                                 f"(${CACHE_DIR_ENV} enables the default location)")
        parser.add_argument("--no-cache", action="store_true",
                            help="disable the on-disk result cache even when "
                                 f"${CACHE_DIR_ENV} is set")
        parser.add_argument("--cache-max-mb", type=_positive_float, default=None,
                            metavar="MB",
                            help="bound the cache directory to this many MB; "
                                 "least-recently-used records are evicted "
                                 f"(default: ${CACHE_MAX_MB_ENV} or unbounded)")

    sweep = sub.add_parser("sweep", help="design-space sweeps")
    sweep.add_argument("axis", nargs="?", choices=("pes", "frequency", "batch"),
                       help="sweep axis (omit when sweeping a dense --grid)")
    add_grid_arguments(sweep, pareto_implied=False)
    sweep.add_argument("--pareto", action="store_true",
                       help="reduce a --grid sweep to its Pareto frontier")
    sweep.add_argument("--top", type=_positive_int, default=None, metavar="K",
                       help="also report the top-K points by --metric")

    pareto = sub.add_parser("pareto",
                            help="grid sweep reduced to its Pareto frontier "
                                 "(time vs. power vs. area)")
    add_grid_arguments(pareto, pareto_implied=True)

    cache = sub.add_parser("cache", help="inspect or clear the on-disk sweep cache")
    cache.add_argument("action", choices=("stats", "clear"),
                       help="show entry/size statistics, or delete every "
                            "record")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (default: "
                            f"${CACHE_DIR_ENV} or ~/.cache/repro-chain-nn)")
    cache.add_argument("--cache-max-mb", type=_positive_float, default=None,
                       metavar="MB",
                       help="size bound reported by stats (eviction applies "
                            "when sweeps write through a bounded cache)")

    networks = sub.add_parser("networks",
                              help="list the network zoo (layer counts, MACs, "
                                   "parameter totals)")
    networks.add_argument("--json", action="store_true",
                          help="emit the zoo statistics as JSON")

    map_cmd = sub.add_parser(
        "map",
        help="search the per-layer mapping space for an objective and report "
             "the optimised schedule vs the paper's Table II mapping",
    )
    map_cmd.add_argument("--network", default="alexnet", choices=sorted(NETWORKS))
    map_cmd.add_argument("--objective", default="throughput",
                         choices=tuple(OBJECTIVES),
                         help="objective the schedule is optimised for")
    map_cmd.add_argument("--strategy", default="exhaustive",
                         choices=("exhaustive",),
                         help="search strategy; exhaustive, the only one, "
                              "scores the whole pruned space")
    map_cmd.add_argument("--batch", type=_positive_int, default=16,
                         help="batch size the schedule is optimised for")
    map_cmd.add_argument("--seed", type=int, default=2017,
                         help="seed for the --verify tensors")
    map_cmd.add_argument("--algorithm", choices=ALGORITHM_MODES,
                         default="direct",
                         help="algorithm axis of the search: 'auto' lets the "
                              "optimizer pick direct vs Winograd per layer, "
                              "'winograd' forces the transform domain on "
                              "eligible layers (default: direct only)")
    map_cmd.add_argument("--verify", action="store_true",
                         help="functionally verify every searched mapping "
                              "against the im2col golden reference")
    map_cmd.add_argument("--json", action="store_true",
                         help="emit the optimised schedule as JSON")
    map_cmd.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="memoise searches in this directory "
                              f"(${CACHE_DIR_ENV} enables the default location)")
    map_cmd.add_argument("--no-cache", action="store_true",
                         help="disable the on-disk search cache even when "
                              f"${CACHE_DIR_ENV} is set")
    map_cmd.add_argument("--cache-max-mb", type=_positive_float, default=None,
                         metavar="MB",
                         help="bound the search cache to this many MB with "
                              "LRU eviction")

    verify = sub.add_parser(
        "verify",
        help="simulator verification: a network's conv layers through the "
             "cycle-accurate simulator, or whole-network functional dataflow "
             "verification, each checked exactly against the golden",
    )
    verify.add_argument("--seed", type=int, default=2017)
    verify.add_argument("--sim", choices=("cycle", "functional"), default="cycle",
                        help="which simulator to verify (default: cycle)")
    verify.add_argument("--network", choices=("tiny",) + tuple(sorted(NETWORKS)),
                        default="tiny",
                        help="network to verify (default: the tiny test "
                             "network)")
    verify.add_argument("--algorithm", choices=ALGORITHM_MODES,
                        default="direct",
                        help="run eligible 3x3-stride-1 layers through the "
                             "Winograd F(2x2,3x3) transform domain "
                             "(--sim functional; checked against the im2col "
                             "golden, exact on the fixed-point path)")

    bench = sub.add_parser(
        "bench",
        help="run a registered benchmark and write its BENCH_*.json record",
    )
    bench.add_argument("name", choices=sorted(BENCHMARKS) + ["all"],
                       help="benchmark to run (or 'all')")
    bench.add_argument("--timing", action="store_true",
                       help="enable the pytest-benchmark timing loop instead "
                            "of the smoke pass")

    serve_cmd = sub.add_parser(
        "serve",
        help="run the evaluation service: concurrent run/sweep/map/verify "
             "over HTTP/JSON; a sweep is evaluated at once when no "
             "compatible batch is in flight, and sweeps arriving during "
             "one are coalesced into the next batch",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: loopback)")
    serve_cmd.add_argument("--port", type=int, default=DEFAULT_PORT,
                           help=f"TCP port (default: {DEFAULT_PORT}; 0 picks "
                                "a free port)")
    serve_cmd.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="shared RunCache for mapping searches "
                                f"(${CACHE_DIR_ENV} enables the default "
                                "location)")
    serve_cmd.add_argument("--no-cache", action="store_true",
                           help="disable the on-disk cache even when "
                                f"${CACHE_DIR_ENV} is set")
    serve_cmd.add_argument("--cache-max-mb", type=_positive_float, default=None,
                           metavar="MB", help="bound the cache with LRU eviction")

    request_cmd = sub.add_parser(
        "request",
        help="send one request to a running evaluation service and print "
             "the JSON response (byte-identical to the --json CLI output)",
    )
    request_cmd.add_argument("op",
                             choices=("run", "sweep", "map", "verify",
                                      "health", "metrics"),
                             help="operation to request")
    request_cmd.add_argument("params", nargs="?", default=None,
                             metavar="JSON",
                             help="request parameters as a JSON object, e.g. "
                                  '\'{"network": "alexnet", "batch": 8}\' '
                                  "(defaults mirror the CLI defaults)")
    request_cmd.add_argument("--host", default="127.0.0.1")
    request_cmd.add_argument("--port", type=int, default=DEFAULT_PORT)
    request_cmd.add_argument("--timeout", type=_positive_float, default=600.0,
                             help="response timeout in seconds")
    request_cmd.add_argument("--progress", action="store_true",
                             help="print map/verify progress events to stderr "
                                  "as they stream in")

    trace_cmd = sub.add_parser(
        "trace",
        help="inspect wall-clock traces exported with --trace",
    )
    trace_cmd.add_argument("action", choices=("summarize",),
                           help="render per-span statistics for a trace file")
    trace_cmd.add_argument("path", metavar="FILE",
                           help="trace written by --trace (Chrome trace-event "
                                "JSON or .jsonl)")

    return parser


def _print_stats_footer(args: argparse.Namespace, wall_s: float,
                        before: Dict[str, float]) -> None:
    """One-line run statistics after ``sweep``/``map`` (metrics-registry
    sourced, printed even without ``--trace``).

    The registry counts the whole process; ``before`` is its snapshot from
    the start of this command, so the footer counts this command alone.
    """
    flat = REGISTRY.flat()

    def delta(name: str) -> float:
        return flat.get(name, 0) - before.get(name, 0)

    if args.command == "map":
        count = delta("mapping.candidates_searched")
        unit = "candidates"
    else:
        count = delta("sweep.points") + delta("sweep.grid_points")
        unit = "points"
    hits = delta("cache.hits")
    lookups = hits + delta("cache.misses")
    cache_part = (f"cache {hits}/{lookups} hits ({hits / lookups:.0%})"
                  if lookups else "cache off")
    rate = f", {count / wall_s:.1f} {unit}/s" if wall_s > 0 and count else ""
    print(f"[obs] {args.command}: {count} {unit} in {wall_s:.2f}s{rate}, "
          + cache_part, file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.trace:
        obs_trace.enable()
    handlers = {
        "info": cmd_info,
        "engines": cmd_engines,
        "run": cmd_run,
        "experiments": cmd_experiments,
        "sweep": cmd_sweep,
        "pareto": cmd_pareto,
        "cache": cmd_cache,
        "verify": cmd_verify,
        "map": cmd_map,
        "networks": cmd_networks,
        "bench": cmd_bench,
        "trace": cmd_trace,
        "serve": cmd_serve,
        "request": cmd_request,
    }
    before = REGISTRY.flat()
    start = time.perf_counter()
    try:
        with obs_trace.span("cli." + args.command):
            status = handlers[args.command](args)
    except INPUT_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    wall_s = time.perf_counter() - start
    if args.command in ("sweep", "pareto", "map"):
        _print_stats_footer(args, wall_s, before)
    if args.trace:
        events = export_trace(args.trace)
        print(f"[obs] wrote {events} trace events to {args.trace} — load in "
              "Perfetto (ui.perfetto.dev) or chrome://tracing, or run "
              f"'repro trace summarize {args.trace}'", file=sys.stderr)
    if args.metrics:
        print(render_metrics(), file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
