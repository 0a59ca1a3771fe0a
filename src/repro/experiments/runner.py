"""Run every paper experiment and collect a reproduction report.

``python -m repro.experiments.runner`` prints the full paper-vs-measured
report; :func:`run_all` returns the structured results so the benchmark
harness and EXPERIMENTS.md generation can reuse them.

Machine-readable exports:

* ``python -m repro.experiments.runner --json`` emits the headline numbers
  as JSON (the ``BENCH_*.json`` trajectory consumes this to track
  paper-vs-measured drift across PRs);
* ``python -m repro.experiments.runner --write-md [PATH]`` regenerates
  ``EXPERIMENTS.md`` (the committed document docstrings refer to).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.experiments.fig5 import Fig5Result, run_fig5
from repro.experiments.fig9 import Fig9Result, run_fig9
from repro.experiments.fig10 import Fig10Result, run_fig10
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.table4 import Table4Result, run_table4
from repro.experiments.table5 import Table5Result, run_table5


@dataclass(frozen=True)
class ReproductionReport:
    """All paper artifacts regenerated in one pass."""

    table2: Table2Result
    table4: Table4Result
    table5: Table5Result
    fig5: Fig5Result
    fig9: Fig9Result
    fig10: Fig10Result

    def report(self) -> str:
        """Concatenated human-readable report."""
        sections = [
            self.table2.report(),
            self.fig5.report(),
            self.fig9.report(),
            self.table4.report(),
            self.fig10.report(),
            self.table5.report(),
        ]
        divider = "\n" + "=" * 78 + "\n"
        return divider.join(sections)

    def headline(self) -> Dict[str, float]:
        """One-dictionary summary of the most important reproduced numbers."""
        return {
            "min_pe_utilization_pct": self.table2.minimum_efficiency_pct,
            "fps_batch128": self.fig9.measured_fps_batch128,
            "fps_batch4": self.fig9.measured_fps_batch4,
            "peak_gops": self.fig9.measured_peak_gops,
            "total_power_mw_calibrated": self.fig10.calibrated.total_w * 1e3,
            "gops_per_watt_calibrated": self.fig10.measured_efficiency(),
            "modelled_efficiency_ratio_min": self.table5.modelled_ratio_range[0],
            "modelled_efficiency_ratio_max": self.table5.modelled_ratio_range[1],
            "modelled_area_ratio": self.table5.modelled_area_ratio,
        }


def run_all() -> ReproductionReport:
    """Regenerate every table and figure of the paper's evaluation."""
    return ReproductionReport(
        table2=run_table2(),
        table4=run_table4(),
        table5=run_table5(),
        fig5=run_fig5(),
        fig9=run_fig9(),
        fig10=run_fig10(),
    )


def headline_json(report: Optional[ReproductionReport] = None) -> Dict[str, Any]:
    """The reproduction headline as a JSON-serialisable document.

    The ``headline`` block mirrors :meth:`ReproductionReport.headline`; the
    ``fig9_deviation`` block adds the per-layer paper-vs-measured ratios so a
    trajectory of these files shows *where* drift happens, not only that it
    does.
    """
    report = report or run_all()
    fig9 = report.fig9
    return {
        "schema": "repro-headline/1",
        "headline": report.headline(),
        "fig9_deviation": {
            "conv_time_ratio": fig9.conv_time_ratio(),
            "worst_layer_deviation": fig9.worst_layer_deviation(),
        },
    }


def design_space_section(bench_path: str | Path = "BENCH_sweep.json") -> str:
    """The design-space-exploration chapter of EXPERIMENTS.md.

    Documents the grid syntax and the Pareto output, and quotes the measured
    grid-vs-point sweep throughput from ``BENCH_sweep.json`` when the
    benchmark has been run (``pytest benchmarks/bench_batch_sweep.py``).
    """
    lines = [
        "## Design-space exploration",
        "",
        "Dense grids are evaluated through the columnar `analytical-batch`",
        "engine: one pass of the analytical model (struct-of-arrays NumPy",
        "expressions) over the whole grid.  An `analytical` run record is",
        "the same evaluator at one design point, so the two agree bit for",
        "bit; `tests/test_batch_sweep.py` checks both against a per-layer",
        "oracle.",
        "",
        "Grid syntax (CLI `repro sweep --grid` / `repro pareto --grid`):",
        "",
        "```text",
        "pe=128:1152:32,freq=200:1000:50[,batch=1:128:16][,bits=16]",
        "```",
        "",
        "Axes: `pe` (chain length), `freq` (MHz), `batch`, `bits` (datapath",
        "width, multiples of 8).  Ranges are `start:stop:step` with an",
        "inclusive stop; omitted axes default to the `--pes`/`--frequency-mhz`",
        "configuration.  `--pareto` reduces the grid to its frontier",
        "(minimising `total_time_per_batch_s`, `power_w` and `total_gates` by",
        "default; override with `--objectives col1,col2,...`); `--top K",
        "--metric NAME` ranks by a single column.  `--json` emits the",
        "reduction as `{grid, engine, n_points, pareto: {objectives, points},",
        "top: {metric, points}}`, where each point row carries PEs, frequency,",
        "batch, bits, peak/achieved GOPS, fps, power, GOPS/W, worst-case",
        "utilization and gate count.",
        "",
    ]
    bench_path = Path(bench_path)
    bench = None
    if bench_path.is_file():
        try:
            bench = json.loads(bench_path.read_text(encoding="utf-8"))
        except ValueError:
            bench = None
    if bench and "batch_points_per_s" in bench:
        lines += [
            "Measured sweep throughput (`BENCH_sweep.json`, "
            f"{bench.get('n_points', '?')}-point grid `{bench.get('grid', '?')}`):",
            "",
            "| path | points/s |",
            "| --- | --- |",
            f"| columnar (`analytical-batch`) | {bench['batch_points_per_s']:,.0f} |",
            f"| per-point (`analytical`) | {bench.get('scalar_points_per_s', 0):,.0f} |",
            "",
            f"Speedup: **{bench.get('speedup_vs_scalar', 0):,.0f}x** "
            f"({bench.get('batch_ns_per_point', 0):,.0f} ns/point).",
        ]
    else:
        lines += [
            "Measured throughput: run `pytest benchmarks/bench_batch_sweep.py`",
            "to populate `BENCH_sweep.json` (the numbers quoted here are",
            "regenerated from it).",
        ]
    return "\n".join(lines)


def functional_verification_section(
        bench_path: str | Path = "BENCH_functional.json") -> str:
    """The functional-verification-throughput chapter of EXPERIMENTS.md.

    Documents the ``repro verify --sim functional`` workflow and quotes the
    measured speedup of the simulator over the scalar oracle walk from
    ``BENCH_functional.json`` when the benchmark has been run
    (``pytest benchmarks/bench_functional.py``).
    """
    lines = [
        "## Functional verification throughput",
        "",
        "The functional (dataflow-level) simulator enumerates every scan",
        "window of the Chain-NN stripe/column-scan decomposition.  Its input",
        "domain is the chip's 16-bit fixed point, checked by an",
        "accumulator-width guard, so every float64 sum is exact.  It",
        "computes each conv group's kept windows as one im2col BLAS GEMM and",
        "derives the dataflow counters in closed form — bit-identical ofmaps",
        "and identical `FunctionalRunStats` to the scalar per-window walk, a",
        "test oracle no engine runs (asserted by",
        "`tests/test_sim_functional_vectorized.py` and",
        "`tests/test_cross_fidelity.py`), which turns whole-network dataflow",
        "verification, VGG-16 included, into a seconds-scale CI step; every",
        "conv stage must equal the im2col golden exactly:",
        "",
        "```text",
        "repro verify --sim functional                     # tiny test network",
        "repro verify --sim functional --network alexnet   # full AlexNet vs the golden reference",
        "repro verify --sim functional --network vgg16",
        "```",
        "",
        "The first ifmaps and every layer's weights are drawn directly on",
        "the 16-bit grid (inverse-transform sampling from a table of 2^16",
        "Gaussian quantiles, `repro.cnn.generator`), so no generated operand",
        "is quantised again.  Between conv stages the runner applies ReLU,",
        "re-quantises the activations onto the 16-bit fixed-point grid",
        "(`repro.cnn.quantize`) and applies pooling in NumPy, so the chained",
        "shapes and dynamic ranges stay faithful to the fixed-point inference",
        "flow the paper's MatConvNet-integrated simulator modelled.",
        "",
    ]
    bench_path = Path(bench_path)
    bench = None
    if bench_path.is_file():
        try:
            bench = json.loads(bench_path.read_text(encoding="utf-8"))
        except ValueError:
            bench = None
    if bench and "speedup_vs_scalar" in bench:
        lines += [
            f"Measured throughput (`BENCH_functional.json`, AlexNet "
            f"`{bench.get('layer', '?')}`):",
            "",
            "| path | seconds | windows/s |",
            "| --- | --- | --- |",
            f"| simulator | {bench.get('vectorized_seconds', 0):.2f} | "
            f"{bench.get('vectorized_windows_per_s', 0):,.0f} |",
            f"| scalar oracle walk | {bench.get('scalar_seconds', 0):.1f} | "
            f"{bench.get('windows_evaluated', 0) / bench['scalar_seconds']:,.0f} |"
            if bench.get("scalar_seconds") else "| scalar oracle walk | — | — |",
            "",
            f"Speedup: **{bench['speedup_vs_scalar']:,.0f}x** over the scalar",
            "walk (scalar seconds extrapolated per channel pair from a",
            f"{bench.get('scalar_probe_pairs', '?')}-pair probe with identical",
            "per-pair geometry).",
        ]
        if "alexnet_verify_seconds" in bench:
            lines += [
                "Whole-network AlexNet verification: "
                f"**{bench['alexnet_verify_seconds']:.1f}s** "
                f"({bench.get('alexnet_verify_windows_kept', 0):,} windows kept, "
                f"max abs error {bench.get('alexnet_verify_max_abs_error', 0):.1e}).",
            ]
    else:
        lines += [
            "Measured throughput: run `pytest benchmarks/bench_functional.py`",
            "to populate `BENCH_functional.json` (the numbers quoted here are",
            "regenerated from it).",
        ]
    return "\n".join(lines)


def mapping_search_section(bench_path: str | Path = "BENCH_mapping.json") -> str:
    """The mapping-search chapter of EXPERIMENTS.md.

    Documents the ``repro map`` workflow and quotes the measured
    baseline-vs-searched objective values from ``BENCH_mapping.json`` when
    the benchmark has been run (``pytest benchmarks/bench_mapping.py``).
    """
    lines = [
        "## Mapping search",
        "",
        "The paper maps every layer with one fixed decomposition (Table II:",
        "`floor(P/K^2)` primitives, full `K`-row stripes, kernels streamed in",
        "kMemory-sized chunks, batch-interleaved kernel loads).  `repro map`",
        "searches the pruned space of legal alternatives per layer —",
        "primitive partition, stripe height, kernel-streaming chunk, batch",
        "interleave — exhaustively for a chosen objective, scoring every",
        "candidate on that objective alone through the columnar",
        "`MappingBatchEvaluator`, scoring the few best on every metric, and",
        "assembling a schedule that is never worse than the Table II",
        "baseline by construction:",
        "",
        "```text",
        "repro map --network alexnet --objective latency --verify",
        "repro map --network vgg16 --objective energy",
        "```",
        "",
        "Objectives: `latency` (first-image), `throughput` (batch makespan),",
        "`energy` (J/batch), `edp` (energy x delay).  Every searched mapping",
        "is functionally verified: the vectorized functional simulator runs",
        "the candidate's exact stripe plan and the ofmaps must be",
        "bit-identical to the baseline full-stripe simulation and match the",
        "im2col golden reference exactly (`--verify`,",
        "`tests/test_mapping.py`).",
        "",
    ]
    bench_path = Path(bench_path)
    bench = None
    if bench_path.is_file():
        try:
            bench = json.loads(bench_path.read_text(encoding="utf-8"))
        except ValueError:
            bench = None
    if bench and "networks" in bench:
        lines += [
            f"Measured schedules (`BENCH_mapping.json`, batch "
            f"{bench.get('batch', '?')}, `{bench.get('strategy', '?')}` "
            "strategy; objective values are seconds for latency/throughput,",
            "joules for energy, joule-seconds for EDP; lower is better):",
            "",
            "| network | objective | Table II baseline | searched | gain |",
            "| --- | --- | --- | --- | --- |",
        ]
        for network in sorted(bench["networks"]):
            entry = bench["networks"][network]
            for objective in sorted(entry.get("objectives", {})):
                row = entry["objectives"][objective]
                lines.append(
                    f"| {network} | {objective} | {row['baseline']:.6g} | "
                    f"{row['searched']:.6g} | "
                    f"{row['improvement_pct']:.2f} % |"
                )
        lines.append("")
        for network in sorted(bench["networks"]):
            verification = bench["networks"][network].get("verification")
            if verification:
                status = "passed" if verification.get("passed") else "FAILED"
                lines.append(
                    f"Verification on {network}: {status} "
                    f"({verification.get('distinct_mappings', '?')} distinct "
                    f"mappings, max abs error "
                    f"{verification.get('max_abs_error', 0):.1e} vs the "
                    "im2col golden reference, bit-identical to the baseline "
                    "stripe plan).")
    else:
        lines += [
            "Measured schedules: run `pytest benchmarks/bench_mapping.py` to",
            "populate `BENCH_mapping.json` (the numbers quoted here are",
            "regenerated from it).",
        ]
    return "\n".join(lines)


def winograd_execution_section(bench_path: str | Path = "BENCH_winograd.json") -> str:
    """The Winograd-execution chapter of EXPERIMENTS.md.

    Documents the F(2x2,3x3) transform-domain fast path and the per-layer
    algorithm axis, quoting the modeled MAC reduction / transform overhead
    and the auto-vs-direct search results from ``BENCH_winograd.json`` when
    the benchmark has been run (``repro bench winograd``).
    """
    lines = [
        "## Winograd execution",
        "",
        "Every 3x3 stride-1 convolution can run in the Winograd F(2x2,3x3)",
        "transform domain: 4x4 input tiles become 2x2 output tiles through",
        "16 element-wise multiplies instead of 36 direct MACs (2.25x fewer",
        "multiplies before the input/output transform overhead).  The axis",
        "is opt-in per layer — `repro map --algorithm auto` lets the search",
        "choose `direct` or `winograd` independently for each eligible",
        "layer, and the schedule stays **never worse** than direct-only by",
        "construction (the direct candidate set is always enumerated too):",
        "",
        "```text",
        "repro map --network vgg16 --objective throughput --algorithm auto",
        "repro run alexnet --engine functional --algorithm winograd",
        "repro verify --sim functional --network vgg16 --algorithm winograd",
        "repro networks --json   # per-layer eligibility + MAC coverage",
        "```",
        "",
        "The functional simulator's Winograd mode runs the transform-domain",
        "products as 16 batched GEMMs.  On the fixed-point path its transforms and",
        "sums are exact, so it equals the im2col golden bit for bit",
        "(`max|err|=0.00e+00`) and is bit-identical across block partitions",
        "(`tests/test_winograd.py` in the CI equivalence gate).  The cost",
        "model charges the 16/9 kMemory inflation of transformed filters,",
        "a 1.25x PE energy factor and the tile transforms, so `auto`",
        "typically keeps energy-objective schedules on `direct` and flips",
        "throughput-objective VGG-16 layers to `winograd`.",
        "",
    ]
    bench_path = Path(bench_path)
    bench = None
    if bench_path.is_file():
        try:
            bench = json.loads(bench_path.read_text(encoding="utf-8"))
        except ValueError:
            bench = None
    if bench and "networks" in bench:
        min_reduction = bench.get("vgg16_min_mac_reduction")
        speedup = bench.get("vgg16_throughput_cycle_speedup")
        lines += [
            f"Measured (`BENCH_winograd.json`, batch {bench.get('batch', '?')},"
            f" `{bench.get('strategy', '?')}` strategy): worst eligible VGG-16"
            f" layer keeps a {min_reduction:.2f}x modeled multiply reduction"
            if isinstance(min_reduction, (int, float)) else
            f"Measured (`BENCH_winograd.json`, batch {bench.get('batch', '?')}):",
        ]
        if isinstance(speedup, (int, float)):
            lines[-1] += (f" and the algorithm axis buys a {speedup:.3f}x"
                          " cycle speedup on VGG-16 throughput.")
        lines.append("")
        vgg = bench["networks"].get("vgg16", {})
        if vgg.get("layers"):
            lines += [
                "| VGG-16 layer | direct MACs | Winograd multiplies | "
                "reduction | transform overhead |",
                "| --- | --- | --- | --- | --- |",
            ]
            for summary in vgg["layers"]:
                lines.append(
                    f"| {summary['layer']} | {summary['direct_macs']:,} | "
                    f"{summary['winograd_multiplies']:,} | "
                    f"{summary['mac_reduction']:.2f}x | "
                    f"{summary['transform_overhead_fraction'] * 100:.1f} % |"
                )
            lines.append("")
        lines += [
            "Auto-vs-direct search (objective values: lower is better; the",
            "never-worse assertion holds for every network x objective):",
            "",
            "| network | objective | direct-only | auto | gain | "
            "winograd layers |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for network in sorted(bench["networks"]):
            entry = bench["networks"][network]
            for objective in sorted(entry.get("objectives", {})):
                row = entry["objectives"][objective]
                lines.append(
                    f"| {network} | {objective} | {row['direct']:.6g} | "
                    f"{row['auto']:.6g} | {row['improvement_pct']:.2f} % | "
                    f"{len(row.get('winograd_layers', []))} |"
                )
    else:
        lines += [
            "Measured numbers: run `repro bench winograd` to populate",
            "`BENCH_winograd.json` (the numbers quoted here are regenerated",
            "from it).",
        ]
    return "\n".join(lines)


def observability_section(bench_path: str | Path = "BENCH_obs.json") -> str:
    """The observability chapter of EXPERIMENTS.md.

    Documents the unified tracing/metrics layer and quotes the measured
    overhead budgets from ``BENCH_obs.json`` when the benchmark has been
    run (``repro bench obs``).
    """
    lines = [
        "## Observability",
        "",
        "Every command can record a wall-clock span trace of itself:",
        "`--trace FILE` exports Chrome trace-event JSON covering the CLI,",
        "engines, cache and mapping search on one timeline.  `--metrics`",
        "dumps the always-on metrics registry — cache hits/misses/",
        "evictions/lock waits, sweep points, mapping candidates",
        "enumerated/pruned/scored — and `sweep`/`map` print a",
        "one-line stats footer from the same registry even untraced:",
        "",
        "```text",
        "repro --trace sweep.json --metrics sweep pes",
        "repro trace summarize sweep.json   # or load in ui.perfetto.dev",
        "repro map --network alexnet        # footer: candidates/s, cache",
        "repro bench obs --timing           # asserts the overhead budgets",
        "```",
        "",
        "Only *closed* spans are recorded, so an exported trace",
        "structurally cannot contain unclosed spans.",
        "",
    ]
    bench_path = Path(bench_path)
    bench = None
    if bench_path.is_file():
        try:
            bench = json.loads(bench_path.read_text(encoding="utf-8"))
        except ValueError:
            bench = None
    if bench:
        lines += [
            f"Measured (`BENCH_obs.json`, {bench.get('sweep_points', '?')}-point",
            "analytical sweep + AlexNet mapping search):",
            "",
            "| metric | value |",
            "| --- | --- |",
            f"| tracing disabled: estimated overhead | "
            f"{bench.get('disabled_overhead_pct', 0):.3f}% (budget 1%) |",
            f"| disabled span / counter cost | "
            f"{bench.get('disabled_span_ns', 0):.0f} ns / "
            f"{bench.get('disabled_counter_inc_ns', 0):.0f} ns |",
            f"| tracing enabled: wall-clock overhead | "
            f"{bench.get('enabled_overhead_pct', 0):.1f}% (budget 5%) |",
            f"| span events / metric increments per run | "
            f"{bench.get('span_events_per_run', 0)} / "
            f"{bench.get('metric_increments_per_run', 0)} |",
            f"| bit-identical traced / untraced | "
            f"{bench.get('bit_identical_serial', False)} |",
        ]
    else:
        lines += [
            "Measured overhead: run `repro bench obs` to populate",
            "`BENCH_obs.json` (the numbers quoted here are regenerated",
            "from it).",
        ]
    return "\n".join(lines)


def evaluation_service_section(bench_path: str | Path = "BENCH_serve.json") -> str:
    """The evaluation-service chapter of EXPERIMENTS.md.

    Documents ``repro serve`` (the coalescing evaluation service), quoting
    the measured throughput from ``BENCH_serve.json`` when the benchmark
    has been run (``repro bench serve``).
    """
    lines = [
        "## Evaluation service throughput",
        "",
        "`repro serve` turns the engine stack into a long-running service:",
        "concurrent `run`/`sweep`/`map`/`verify` requests over HTTP/JSON.",
        "A sweep is evaluated at once when no batch of its coalesce key",
        "(engine, network, base config) is in flight; compatible sweeps",
        "that arrive during an evaluation wait for it to land and are then",
        "coalesced into one columnar `evaluate_batch` call, with the",
        "per-request slices scattered back (byte-identical to `repro",
        "<cmd> --json`; `tests/test_serve.py` pins this):",
        "",
        "```text",
        "repro serve --port 8347            # start the service",
        "repro request sweep '{\"grid\": \"pe=128:1152:64\"}'",
        "repro bench serve --timing         # asserts the 5x floor",
        "```",
        "",
    ]
    bench_path = Path(bench_path)
    bench = None
    if bench_path.is_file():
        try:
            bench = json.loads(bench_path.read_text(encoding="utf-8"))
        except ValueError:
            bench = None
    if bench:
        lines += [
            f"Measured (`BENCH_serve.json`, {bench.get('points', '?')}-point",
            f"mixed workload from {bench.get('clients', '?')} concurrent",
            "clients):",
            "",
            "| metric | value |",
            "| --- | --- |",
            f"| sequential single-point requests | "
            f"{bench.get('sequential_points_per_s', 0):.0f} points/s |",
            f"| coalesced concurrent clients | "
            f"{bench.get('coalesced_points_per_s', 0):.0f} points/s "
            f"({bench.get('coalesce_speedup', 0):.1f}x, floor 5x) |",
            f"| coalesced batches | {bench.get('coalesced_batches', 0)} "
            f"({bench.get('mean_points_per_batch', 0):.0f} points/batch) |",
            f"| queue wait p50 / p99 | "
            f"{bench.get('queue_wait_p50_ms', 0):.1f} ms / "
            f"{bench.get('queue_wait_p99_ms', 0):.1f} ms |",
        ]
    else:
        lines += [
            "Measured throughput: run `repro bench serve` to populate",
            "`BENCH_serve.json` (the numbers quoted here are regenerated",
            "from it).",
        ]
    return "\n".join(lines)


def render_experiments_md(report: Optional[ReproductionReport] = None,
                          bench_path: str | Path = "BENCH_sweep.json",
                          functional_bench_path: str | Path = "BENCH_functional.json",
                          mapping_bench_path: str | Path = "BENCH_mapping.json",
                          winograd_bench_path: str | Path = "BENCH_winograd.json",
                          obs_bench_path: str | Path = "BENCH_obs.json",
                          serve_bench_path: str | Path = "BENCH_serve.json",
                          ) -> str:
    """EXPERIMENTS.md content: every paper artifact, paper vs measured."""
    report = report or run_all()
    headline_rows = "\n".join(
        f"| `{key}` | {value:.4g} |" for key, value in report.headline().items()
    )
    sections = [
        ("Table II — PE utilization", report.table2.report()),
        ("Fig. 5 — dual-channel vs single-channel PEs", report.fig5.report()),
        ("Fig. 9 — AlexNet timing", report.fig9.report()),
        ("Table IV — memory traffic", report.table4.report()),
        ("Fig. 10 — power breakdown", report.fig10.report()),
        ("Table V — state of the art", report.table5.report()),
    ]
    body = "\n\n".join(
        f"## {title}\n\n```text\n{text.rstrip()}\n```" for title, text in sections
    )
    return (
        "# EXPERIMENTS — paper vs measured\n"
        "\n"
        "Regenerated by `python -m repro.experiments.runner --write-md`\n"
        "(equivalently `repro experiments`); do not edit by hand.  The same\n"
        "numbers are exported as JSON by `python -m repro.experiments.runner\n"
        "--json` so benchmark trajectories can track paper-vs-measured drift.\n"
        "\n"
        "## Headline numbers\n"
        "\n"
        "| metric | value |\n"
        "| --- | --- |\n"
        f"{headline_rows}\n"
        "\n"
        f"{body}\n"
        "\n"
        f"{design_space_section(bench_path)}\n"
        "\n"
        f"{functional_verification_section(functional_bench_path)}\n"
        "\n"
        f"{mapping_search_section(mapping_bench_path)}\n"
        "\n"
        f"{winograd_execution_section(winograd_bench_path)}\n"
        "\n"
        f"{observability_section(obs_bench_path)}\n"
        "\n"
        f"{evaluation_service_section(serve_bench_path)}\n"
    )


def write_experiments_md(path: str | Path = "EXPERIMENTS.md",
                         report: Optional[ReproductionReport] = None) -> Path:
    """Write :func:`render_experiments_md` output to ``path``.

    ``BENCH_sweep.json`` / ``BENCH_functional.json`` / ``BENCH_mapping.json``
    are looked up next to the output file (that is where
    ``benchmarks/_record.py`` writes them — the repo root), so regeneration
    quotes the measured throughputs regardless of the caller's cwd.
    """
    path = Path(path)
    root = path.resolve().parent
    path.write_text(
        render_experiments_md(
            report,
            bench_path=root / "BENCH_sweep.json",
            functional_bench_path=root / "BENCH_functional.json",
            mapping_bench_path=root / "BENCH_mapping.json",
            winograd_bench_path=root / "BENCH_winograd.json",
            obs_bench_path=root / "BENCH_obs.json",
            serve_bench_path=root / "BENCH_serve.json",
        ),
        encoding="utf-8",
    )
    return path


def main(argv: Optional[list] = None) -> int:
    """Print the report, or export it (``--json`` / ``--write-md``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Regenerate every paper table/figure of the evaluation",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit the headline numbers as JSON instead of text")
    parser.add_argument("--write-md", nargs="?", const="EXPERIMENTS.md", default=None,
                        metavar="PATH", help="write EXPERIMENTS.md (default: ./EXPERIMENTS.md)")
    args = parser.parse_args(argv)
    report = run_all()
    if args.write_md:
        target = write_experiments_md(args.write_md, report)
        print(f"wrote {target}", file=sys.stderr)
    if args.json:
        print(json.dumps(headline_json(report), indent=2, sort_keys=True))
    if args.write_md or args.json:
        return 0
    print(report.report())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
