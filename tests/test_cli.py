"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.cnn.generator import WorkloadGenerator
from repro.cnn.zoo import get_network, tiny_test_network
from repro.sim.cycle.oracle import register_level_layer
from repro.obs.metrics import REGISTRY
from repro.serve.protocol import (
    MapParams,
    RunParams,
    SweepParams,
    VerifyParams,
    parse_params,
)

ROOT = Path(__file__).resolve().parent.parent

#: documents whose fenced code blocks show ``repro`` commands
DOCUMENTS = ("README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")

#: how a documented line invokes the CLI
PREFIXES = ("PYTHONPATH=src python -m repro ", "python -m repro ", "repro ")

#: SHA-256 of the stdout of every pinned command (see :class:`TestPinnedOutput`)
OUTPUT_DIGESTS = ROOT / "tests" / "fixtures" / "cli_output_digests.json"

REQUEST_PARAMS = {"run": RunParams, "sweep": SweepParams, "map": MapParams,
                  "verify": VerifyParams}


def documented_commands():
    """``(document, argv)`` of every CLI line in a fenced code block."""
    commands = []
    for name in DOCUMENTS:
        text = (ROOT / name).read_text(encoding="utf-8")
        for block in re.findall(r"^```[^\n]*\n(.*?)^```", text,
                                flags=re.M | re.S):
            for line in re.sub(r"\\\n\s*", " ", block).splitlines():
                line = line.strip()
                prefix = next((p for p in PREFIXES if line.startswith(p)), None)
                if prefix is None or "<command>" in line:
                    continue
                argv = shlex.split(line[len(prefix):], comments=True)
                if argv and argv[-1] == "&":
                    argv.pop()
                commands.append((name, argv))
    return commands


class TestDocumentedCommands:
    def test_every_documented_command_parses(self):
        """Parse (never run) each documented command, request bodies too."""
        commands = documented_commands()
        assert len(commands) >= 45
        failures = []
        for name, argv in commands:
            try:
                args = build_parser().parse_args(argv)
                if args.command == "request" and args.op in REQUEST_PARAMS:
                    parse_params(REQUEST_PARAMS[args.op],
                                 json.loads(args.params or "{}"))
            except (SystemExit, ValueError) as error:
                failures.append(f"{name}: repro {shlex.join(argv)} ({error!r})")
        assert not failures, "\n".join(failures)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.pes == 576
        assert args.frequency_mhz == 700.0

    def test_run_arguments(self):
        args = build_parser().parse_args(["run", "alexnet", "--batch", "8", "--traffic"])
        assert args.network == "alexnet"
        assert args.batch == 8
        assert args.traffic

    def test_rejects_unknown_network(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "resnet50"])

    def test_sweep_axes(self):
        args = build_parser().parse_args(["sweep", "frequency"])
        assert args.axis == "frequency"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "voltage"])

    @pytest.mark.parametrize("argv", [
        ["run", "lenet5", "--workers", "2"],
        ["sweep", "pes", "--workers", "2"],
        ["sweep", "pes", "--parallel"],
        ["sweep", "pes", "--jobs", "2"],
        ["sweep", "--grid", "pe=128:256:64", "--parallel"],
        ["map", "--workers", "2"],
        ["verify", "--sim", "functional", "--workers", "2"],
        ["serve", "--workers", "2"],
        *([f"--task-{knob}=5", "sweep", "pes"]
          for knob in ("deadline", "retries")),
        # one code path per simulator engine: no backend selection
        ["verify", "--backend", "both"],
        ["verify", "--sim", "functional", "--backend", "scalar"],
        ["run", "lenet5", "--engine", "functional-vectorized"],
        ["run", "lenet5", "--engine", "cycle-scalar"],
    ], ids=" ".join)
    def test_removed_worker_options_are_usage_errors(self, argv, capsys):
        """Removed options exit 2: the old pool knobs (every command runs
        serially) and the simulator backend selections."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        option = next(arg for arg in argv if arg.startswith("--")
                      and arg not in ("--sim", "--grid"))
        assert option in capsys.readouterr().err


class TestInputErrors:
    """Bad model inputs are usage errors: one ``error:`` line, exit 2."""

    @pytest.mark.parametrize("argv", [
        ["run", "alexnet", "--batch", "0"],
        ["--pes", "100", "run", "alexnet"],
        ["--frequency-mhz", "0", "run", "alexnet"],
        ["sweep", "--grid", "foo=1"],
        ["sweep", "--grid", "pe=100:200:10", "--network", "alexnet"],
    ], ids=" ".join)
    def test_exit_2_without_traceback(self, argv, capsys):
        try:
            status = main(argv)
        except SystemExit as exit_info:  # argparse rejects the value itself
            status = exit_info.code
        assert status == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert [line for line in captured.err.splitlines() if "error:" in line]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--network", "lenet5"],
        ["sweep", "pes", "--grid", "pe=128:576:64", "--network", "lenet5"],
    ], ids=" ".join)
    def test_sweep_usage_errors_print_no_stats_footer(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "[obs]" not in captured.err

    def test_model_errors_print_one_line(self, capsys):
        assert main(["--pes", "100", "run", "alexnet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and "121 PEs" in captured.err


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "806.4" in out and "K=11" in out

    def test_info_with_custom_chain(self, capsys):
        assert main(["--pes", "288", "--frequency-mhz", "350", "info"]) == 0
        out = capsys.readouterr().out
        assert "288 PEs" in out

    def test_run_lenet(self, capsys):
        assert main(["run", "lenet5", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "LeNet-5" in out and "fps" in out

    def test_run_with_traffic(self, capsys):
        assert main(["run", "cifar10", "--batch", "2", "--traffic"]) == 0
        out = capsys.readouterr().out
        assert "Memory traffic" in out

    def test_sweep_batch(self, capsys):
        assert main(["sweep", "batch", "--network", "lenet5"]) == 0
        assert "fps vs batch size" in capsys.readouterr().out

    def test_sweep_pes(self, capsys):
        assert main(["sweep", "pes", "--network", "lenet5", "--batch", "4"]) == 0
        assert "pes sweep" in capsys.readouterr().out

    def test_sweep_rows_report_the_swept_networks_fps(self, capsys):
        assert main(["sweep", "pes", "--network", "lenet5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["run", "lenet5", "--batch", "16", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        row = next(point for point in payload["points"] if point["PEs"] == 576)
        assert "AlexNet fps" not in row
        assert row["fps"] == record["metrics"]["fps"]

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "verification PASSED"
        # one exact line per conv layer of the tiny network; its cycle count
        # is the register-accurate oracle's, which depends only on geometry
        generator = WorkloadGenerator(seed=0)
        expected = []
        for layer in tiny_test_network().conv_layers:
            _, stats = register_level_layer(layer, *generator.layer_pair(layer))
            expected.append([layer.name, f"K={layer.kernel_size}",
                             "max|err|=0.00e+00", f"cycles={stats.primitive_cycles}"])
        assert [line.split() for line in lines[:-1]] == expected

    def test_verify_functional_tiny(self, capsys):
        assert main(["verify", "--sim", "functional"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out and "max|err|=0.00e+00 (exact), " in out
        assert main(["verify", "--sim", "functional",
                     "--algorithm", "winograd"]) == 0
        out = capsys.readouterr().out
        stages = [line for line in out.splitlines() if " conv  -> " in line]
        assert stages and all(line.endswith(" wino") for line in stages)

    def test_verify_functional_network(self, capsys):
        assert main(["verify", "--sim", "functional", "--network", "lenet5"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out and "pool1" in out
        verdict = out.splitlines()[-1]
        assert re.fullmatch(r"functional verification PASSED: 2 conv layers, "
                            r"max\|err\|=0\.00e\+00 \(exact\), \d+ windows "
                            r"kept, \d+\.\d\ds", verdict), verdict

    @pytest.mark.parametrize("network", ["cifar10", "lenet5", "alexnet"])
    def test_verify_cycle_network(self, capsys, network):
        assert main(["verify", "--network", network]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "verification PASSED"
        # one exact line per conv layer of the chosen network
        assert [line.split()[:3] for line in lines[:-1]] == [
            [layer.name, f"K={layer.kernel_size}", "max|err|=0.00e+00"]
            for layer in get_network(network).conv_layers]
        assert all(re.fullmatch(r"cycles=[1-9]\d*", line.split()[3])
                   for line in lines[:-1])

    def test_verify_cycle_rejects_algorithm(self, capsys):
        assert main(["verify", "--algorithm", "winograd"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--algorithm applies to --sim functional only" in captured.err


class TestEngineCommands:
    def test_engines_lists_registry(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "analytical" in out and "cycle" in out and "baseline-eyeriss" in out

    def test_run_detailed_mode(self, capsys):
        assert main(["run", "lenet5", "--batch", "2", "--mode", "detailed"]) == 0
        assert "analytical-detailed" in capsys.readouterr().out

    def test_run_through_cycle_engine(self, capsys):
        assert main(["run", "lenet5", "--batch", "1", "--engine", "cycle"]) == 0
        assert "cycle" in capsys.readouterr().out

    def test_run_rejects_conflicting_mode_and_engine(self, capsys):
        assert main(["run", "lenet5", "--engine", "cycle", "--mode", "detailed"]) == 2
        assert "conflicts" in capsys.readouterr().err
        assert main(["run", "lenet5", "--engine", "analytical-detailed",
                     "--mode", "paper"]) == 2
        assert "conflicts" in capsys.readouterr().err
        assert main(["run", "lenet5", "--engine", "analytical-detailed",
                     "--mode", "detailed", "--batch", "1"]) == 0
        capsys.readouterr()

    def test_run_json_record(self, capsys):
        assert main(["run", "lenet5", "--batch", "2", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["engine"] == "analytical"
        assert record["metrics"]["fps"] > 0

    def test_sweep_batch_honors_global_config(self, capsys):
        assert main(["sweep", "batch", "--network", "lenet5", "--json"]) == 0
        default = json.loads(capsys.readouterr().out)["fps_by_batch"]
        assert main(["--pes", "288", "sweep", "batch", "--network", "lenet5",
                     "--json"]) == 0
        small = json.loads(capsys.readouterr().out)["fps_by_batch"]
        assert small["128"] < default["128"]

    def test_cache_env_var_enables_default_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "pes", "--network", "lenet5", "--batch", "4",
                     "--json"]) == 0
        capsys.readouterr()
        assert len(list(tmp_path.glob("*.json"))) > 0
        # --no-cache must suppress it again
        for stale in tmp_path.glob("*.json"):
            stale.unlink()
        assert main(["sweep", "pes", "--network", "lenet5", "--batch", "4",
                     "--json", "--no-cache"]) == 0
        capsys.readouterr()
        assert len(list(tmp_path.glob("*.json"))) == 0

    def test_sweep_through_cycle_engine(self, capsys):
        assert main(["sweep", "batch", "--network", "lenet5", "--engine",
                     "cycle", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "cycle"
        assert len(payload["fps_by_batch"]) > 0

    def test_experiments_json_headline(self, capsys):
        assert main(["experiments", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-headline/1"
        assert payload["headline"]["peak_gops"] == pytest.approx(806.4)


class TestGridCommands:
    def test_sweep_grid_pareto_alexnet(self, capsys):
        assert main(["sweep", "--grid", "pe=128:1152:32,freq=200:1000:50",
                     "--pareto"]) == 0
        out = capsys.readouterr().out
        assert "561 design points" in out
        assert "Pareto frontier" in out
        assert "analytical-batch" in out

    def test_sweep_grid_json_has_nonempty_pareto(self, capsys):
        assert main(["sweep", "--grid", "pe=128:1152:64,freq=200:1000:200",
                     "--pareto", "--network", "alexnet", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "analytical-batch"
        assert payload["n_points"] > 0
        assert len(payload["pareto"]["points"]) > 0

    def test_sweep_grid_top_k(self, capsys):
        assert main(["sweep", "--grid", "pe=128:576:64", "--top", "3",
                     "--network", "lenet5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["top"]["metric"] == "gops_per_watt"
        assert len(payload["top"]["points"]) == 3

    def test_sweep_rejects_axis_and_grid_together(self, capsys):
        assert main(["sweep", "pes", "--grid", "pe=128:256:64"]) == 2
        assert "not both" in capsys.readouterr().err
        assert main(["sweep"]) == 2
        assert "need a sweep axis" in capsys.readouterr().err

    def test_sweep_grid_upgrades_detailed_engine(self, capsys):
        assert main(["sweep", "--grid", "pe=128:256:64", "--network", "lenet5",
                     "--engine", "analytical-detailed", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "analytical-batch-detailed"

    def test_top_ranks_lower_is_better_metrics_ascending(self, capsys):
        assert main(["sweep", "--grid", "pe=128:576:64", "--network", "lenet5",
                     "--top", "3", "--metric", "power_w", "--json"]) == 0
        points = json.loads(capsys.readouterr().out)["top"]["points"]
        powers = [p["Power (W)"] for p in points]
        assert powers == sorted(powers)  # best = lowest power first

    def test_pareto_respects_metric_direction_in_objectives(self, capsys):
        # fps is higher-is-better: with a single maximised objective the
        # frontier collapses to the fastest point(s), not the slowest
        assert main(["sweep", "--grid", "pe=128:576:64", "--network", "lenet5",
                     "--pareto", "--objectives", "fps", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        frontier_fps = {p["fps"] for p in payload["pareto"]["points"]}
        assert len(frontier_fps) == 1
        assert main(["sweep", "--grid", "pe=128:576:64", "--network", "lenet5",
                     "--top", "1", "--metric", "fps", "--json"]) == 0
        best = json.loads(capsys.readouterr().out)["top"]["points"][0]["fps"]
        assert frontier_fps == {best}

    def test_pareto_command_defaults(self, capsys):
        assert main(["pareto", "--network", "lenet5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["pareto"]["points"]) > 0

    def test_grid_sweep_uses_cache(self, capsys, tmp_path):
        args = ["sweep", "--grid", "pe=128:576:64", "--network", "lenet5",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 hits" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "1 hits" in second

    @pytest.mark.parametrize("argv", [
        # 20,817 points: three chunk records, stitched by concatenate
        ["sweep", "--grid", "pe=128:1152:4,freq=200:1000:10", "--network", "lenet5"],
        ["sweep", "pes", "--network", "lenet5"],
    ], ids=["grid", "axis"])
    def test_warm_cache_prints_the_cold_bytes(self, capsys, tmp_path, argv):
        argv = argv + ["--cache-dir", str(tmp_path), "--json"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        before = REGISTRY.flat()
        assert main(argv) == 0
        warm = capsys.readouterr().out
        after = REGISTRY.flat()
        assert warm == cold
        delta = {key: after.get(key, 0) - before.get(key, 0)
                 for key in ("cache.hits", "cache.misses", "sweep.points",
                             "sweep.grid_chunks", "sweep.grid_chunks_cached")}
        assert delta["cache.misses"] == 0
        assert delta["cache.hits"] == delta["sweep.grid_chunks"] + delta["sweep.points"] > 0
        assert delta["sweep.grid_chunks_cached"] == delta["sweep.grid_chunks"]


class TestNetworksCommand:
    def test_lists_the_zoo(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        assert "alexnet" in out and "vgg16" in out and "MACs/image" in out

    def test_json_statistics(self, capsys):
        assert main(["networks", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alexnet"]["conv_layers"] == 5
        assert payload["alexnet"]["conv_macs_per_image"] == 665_784_864
        assert payload["vgg16"]["conv_layers"] == 13
        assert payload["lenet5"]["total_weights"] > payload["lenet5"]["conv_weights"]


class TestMapCommand:
    def test_map_lenet_exhaustive(self, capsys):
        assert main(["map", "--network", "lenet5", "--objective", "latency",
                     "--strategy", "exhaustive", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "objective=latency" in out and "baseline" in out

    def test_map_json_with_verification(self, capsys):
        assert main(["map", "--network", "lenet5", "--objective", "throughput",
                     "--batch", "4", "--verify", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective_value"] <= payload["baseline_objective_value"]
        assert payload["verification"]["passed"]
        assert len(payload["layers"]) == 2

    def test_map_rejects_inapplicable_strategy_knobs(self, capsys):
        # exhaustive is the only search: other strategy names and the knobs
        # of the retired sampling searches are usage errors
        with pytest.raises(SystemExit) as exit_info:
            main(["map", "--network", "lenet5", "--strategy", "random"])
        assert exit_info.value.code == 2
        assert "--strategy" in capsys.readouterr().err
        for knob in ("samples", "iterations"):
            with pytest.raises(SystemExit) as exit_info:
                main(["map", "--network", "lenet5", f"--{knob}", "9"])
            assert exit_info.value.code == 2
            assert f"--{knob}" in capsys.readouterr().err

    def test_map_uses_the_search_cache(self, capsys, tmp_path):
        args = ["map", "--network", "lenet5", "--objective", "latency",
                "--batch", "4", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "cached" in capsys.readouterr().out


class TestCacheCommands:
    def test_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "pes", "--network", "lenet5", "--batch", "4",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries    : 7" in out and cache_dir in out
        assert "index" not in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 7 cached records" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries    : 0" in capsys.readouterr().out

    def test_migrate_is_a_usage_error(self, capsys, tmp_path):
        """The record files are the whole store: there is nothing to migrate."""
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "migrate", "--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'migrate'" in capsys.readouterr().err

    def test_cache_env_var_location(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "stats"]) == 0
        assert str(tmp_path) in capsys.readouterr().out

    def test_stats_on_empty_cache_dir_keeps_that_dir(self, capsys, tmp_path):
        # RunCache defines __len__, so an *empty* cache is falsy; the command
        # must not let truthiness chaining swap a --cache-dir selection for
        # the default root
        cache_dir = str(tmp_path / "empty-cache")
        assert main(["cache", "stats", "--cache-dir", cache_dir,
                     "--cache-max-mb", "16"]) == 0
        out = capsys.readouterr().out
        assert cache_dir in out
        assert "entries    : 0" in out
        assert "16.0 MiB" in out


class TestPinnedOutput:
    """``sweep``, ``pareto``, ``experiments --json``, ``verify``, ``info`` and
    ``networks --json`` are pinned byte for byte over the zoo (recorded
    digests, see :data:`OUTPUT_DIGESTS`)."""

    DIGESTS = json.loads(OUTPUT_DIGESTS.read_text())

    def test_fixture_covers_every_sweep_of_the_zoo(self):
        sweeps = [command for command in self.DIGESTS
                  if command.startswith(("sweep ", "pareto "))]
        # three axes, one dense grid and its Pareto frontier per network
        assert len(sweeps) == 4 * 5

    @pytest.mark.parametrize("command", sorted(DIGESTS))
    def test_output_bytes(self, command, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(command.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.DIGESTS[command]
