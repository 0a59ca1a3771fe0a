"""The four benchmark workloads.

Each workload has a light ``setup`` (part of the measured set-up time), a
``run_pass`` that performs one timed pass and checks its outputs, and a
``teardown``.  Three workloads drive the public CLI entry point
``repro.cli.main(argv)`` in this process; ``serve-mixed`` drives a
``repro serve`` child process with a closed-loop load generator.

Every load is serial: no command passes ``--workers`` (on a 2-core host
a 2-worker AlexNet verify is inside the noise of the serial one).
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from spans import clock_ns

#: kept windows of one AlexNet functional verify, direct and --algorithm auto
ALEXNET_KEPT_WINDOWS = {"direct": 47_209_248, "auto": 20_667_168}

#: the cycle simulator's own golden bound
CYCLE_MAX_ABS_ERROR = 1e-6

ZOO = ("alexnet", "vgg16", "lenet5", "cifar10")


@dataclass
class PassResult:
    """Outcome of one pass of a workload."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: units of the workload's work (windows, candidates, requests, points)
    work: float = 0.0
    #: exact simulated statistics; every pass must reproduce the first's
    stats: Dict[str, Any] = field(default_factory=dict)
    #: outputs that must be byte-identical across passes
    outputs: Dict[str, str] = field(default_factory=dict)
    #: named sub-intervals of the pass on the monotonic clock
    phases: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: phase durations in seconds
    phase_s: Dict[str, float] = field(default_factory=dict)
    #: per-request latencies (serve-mixed)
    latencies_s: List[float] = field(default_factory=list)
    #: seconds of each op (a CLI command); every pass runs the same ops
    op_s: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def cli(self, op: str, argv: List[str]) -> Tuple[int, str]:
        """``call_cli(argv)``, timed as the op ``op``."""
        start = time.perf_counter()
        try:
            return call_cli(argv)
        finally:
            self.op_s[op] = time.perf_counter() - start


def call_cli(argv: List[str]) -> Tuple[int, str]:
    """Run ``repro.cli.main(argv)`` in-process; (status, captured stdout)."""
    import repro.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = repro.cli.main(argv)
    except Exception as error:  # noqa: BLE001 - one failed op, reported
        return 1, f"{type(error).__name__}: {error}\n{err.getvalue()}"
    if status != 0:
        return status, out.getvalue() + err.getvalue()
    return status, out.getvalue()


def _registry() -> Dict[str, float]:
    from repro.obs.metrics import REGISTRY

    return REGISTRY.flat()


class Workload:
    name = ""

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        """Warm-up on small inputs (counted in the set-up time).

        It runs the same code paths as a pass, so the first timed pass is
        no slower than the others.
        """

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` created."""

    def final_checks(self) -> List[str]:
        """Checks made once after the timed passes; returns failures."""
        return []


# --------------------------------------------------------------------- #
# simulate-alexnet
# --------------------------------------------------------------------- #
_STAGE = re.compile(r"^(\S+)\s+conv\s+->\s+(\S+)\s+max\|err\|=(\S+)\s+"
                    r"windows=(\d+)\s+cycles=(\d+)")
_VERDICT = re.compile(r"functional verification (PASSED|FAILED): (\d+) conv "
                      r"layers, max\|err\|=(\S+) .* (\d+) windows kept")


class SimulateAlexNet(Workload):
    """Simulators, kernels and golden reference do almost all the work;
    mapping, serve and the cache do none."""

    name = "simulate-alexnet"

    def _verify(self, network: str, algorithm: str) -> List[str]:
        argv = ["verify", "--sim", "functional", "--network", network,
                "--seed", str(self.seed)]
        return argv + (["--algorithm", "auto"] if algorithm == "auto" else [])

    def setup(self) -> None:
        for argv in (self._verify("cifar10", "direct"),
                     self._verify("cifar10", "auto"),
                     ["run", "cifar10", "--engine", "cycle", "--json"]):
            status, out = call_cli(argv)
            if status != 0:
                raise RuntimeError(f"warm-up {' '.join(argv)} failed: {out}")

    def run_pass(self) -> PassResult:
        result = PassResult()
        for algorithm in ("direct", "auto"):
            result.attempted += 1
            status, out = result.cli(f"verify-{algorithm}",
                                     self._verify("alexnet", algorithm))
            verdict = _VERDICT.search(out)
            if status != 0 or verdict is None:
                result.fail(f"verify {algorithm}: status {status}: {out[-300:]}")
                continue
            passed, max_err, kept = verdict.group(1), verdict.group(3), int(verdict.group(4))
            result.work += kept
            for line in out.splitlines():
                stage = _STAGE.match(line)
                if stage:
                    name, shape, _err, windows, cycles = stage.groups()
                    result.stats[f"verify.{algorithm}.{name}"] = (
                        f"{shape} windows={windows} cycles={cycles}")
            if passed != "PASSED":
                result.fail(f"verify {algorithm}: {verdict.group(0)}")
            elif kept != ALEXNET_KEPT_WINDOWS[algorithm]:
                result.fail(f"verify {algorithm}: {kept} windows kept, expected "
                            f"{ALEXNET_KEPT_WINDOWS[algorithm]}")
            elif algorithm == "direct" and float(max_err) != 0.0:
                result.fail(f"verify direct: max|err|={max_err}, expected 0")
        result.attempted += 1
        status, out = result.cli("run-cycle",
                                 ["run", "alexnet", "--engine", "cycle", "--json"])
        try:
            metrics = json.loads(out)["metrics"] if status == 0 else None
        except ValueError:
            metrics = None
        if metrics is None:
            result.fail(f"run cycle: status {status}: {out[-300:]}")
        else:
            result.outputs["run-cycle"] = out
            for key in ("conv_cycles_per_image", "fps"):
                result.stats[f"cycle.{key}"] = repr(metrics[key])
            if not metrics["max_abs_error"] <= CYCLE_MAX_ABS_ERROR:
                result.fail(f"run cycle: max_abs_error {metrics['max_abs_error']!r}"
                            f" > {CYCLE_MAX_ABS_ERROR}")
        return result


# --------------------------------------------------------------------- #
# map-zoo
# --------------------------------------------------------------------- #
class MapZoo(Workload):
    """Mapspace enumeration and candidate scoring dominate; ``exhaustive``
    is pinned because its ``--json`` is the mapping reference."""

    name = "map-zoo"
    #: one objective per network: the objectives share one enumeration, so
    #: the other three would repeat the same layers and leave room for only
    #: three ~9 s passes in a run
    NETWORKS = ("alexnet", "vgg16")
    OBJECTIVE = "latency"

    @staticmethod
    def _argv(network: str, objective: str) -> List[str]:
        return ["map", "--network", network, "--objective", objective,
                "--strategy", "exhaustive", "--algorithm", "auto", "--json"]

    def setup(self) -> None:
        status, out = call_cli(self._argv("lenet5", "latency"))
        if status != 0:
            raise RuntimeError(f"warm-up map failed: {out}")

    def run_pass(self) -> PassResult:
        result = PassResult()
        for network in self.NETWORKS:
            label = f"{network}.{self.OBJECTIVE}"
            result.attempted += 1
            status, out = result.cli(label, self._argv(network, self.OBJECTIVE))
            try:
                payload = json.loads(out) if status == 0 else None
            except ValueError:
                payload = None
            if payload is None:
                result.fail(f"map {label}: status {status}: {out[-300:]}")
                continue
            result.outputs[label] = out
            result.work += payload["evaluations"]
            for key in ("objective_value", "baseline_objective_value",
                        "evaluations"):
                result.stats[f"{label}.{key}"] = repr(payload[key])
            if not payload["improvement_fraction"] >= 0:
                result.fail(f"map {label}: improvement_fraction "
                            f"{payload['improvement_fraction']!r} < 0")
        return result


# --------------------------------------------------------------------- #
# sweep-cached
# --------------------------------------------------------------------- #
class SweepCached(Workload):
    """The only workload touching ``RunCache`` and ``SweepExecutor``; the
    cold round times the write side, the warm round the read side."""

    name = "sweep-cached"
    GRIDS = ("pe=128:1152:4,freq=200:1000:10",
             "pe=128:1152:8,freq=200:1000:20,batch=1:64:7")

    def _commands(self) -> List[List[str]]:
        commands = [["sweep", "--grid", grid, "--network", network]
                    for network in ("alexnet", "vgg16") for grid in self.GRIDS]
        commands += [["sweep", axis, "--network", network]
                     for network in ZOO for axis in ("pes", "frequency", "batch")]
        return commands

    def setup(self) -> None:
        cache_dir = self.tmp / "setup-cache"
        for argv in (["sweep", "--grid", "pe=128:1152:256,freq=200:1000:400",
                      "--network", "lenet5"], ["sweep", "batch", "--network", "lenet5"]):
            status, out = call_cli(argv + ["--cache-dir", str(cache_dir), "--json"])
            if status != 0:
                raise RuntimeError(f"warm-up sweep failed: {out}")
        shutil.rmtree(cache_dir, ignore_errors=True)

    def run_pass(self) -> PassResult:
        result = PassResult()
        cache_dir = self.tmp / "cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        outputs: Dict[str, List[str]] = {}
        for phase in ("cold", "warm"):
            before = _registry()
            phase_start, phase_clock = time.perf_counter(), clock_ns()
            texts = []
            for argv in self._commands():
                result.attempted += 1
                status, out = result.cli(f"{phase} {' '.join(argv)}",
                                         argv + ["--cache-dir", str(cache_dir), "--json"])
                if status != 0:
                    result.fail(f"{phase} {' '.join(argv)}: status {status}: {out[-300:]}")
                texts.append(out)
            result.phases[phase] = (phase_clock, clock_ns())
            result.phase_s[phase] = time.perf_counter() - phase_start
            after = _registry()
            delta = {key: after.get(key, 0) - before.get(key, 0)
                     for key in ("cache.hits", "cache.misses", "sweep.points",
                                 "sweep.grid_points")}
            lookups = delta["cache.hits"] + delta["cache.misses"]
            hit_ratio = delta["cache.hits"] / lookups if lookups else 0.0
            result.stats[f"{phase}.hit_ratio"] = repr(hit_ratio)
            result.work += delta["sweep.points"] + delta["sweep.grid_points"]
            outputs[phase] = texts
            result.outputs[phase] = "".join(texts)
        result.wall_s = sum(result.phase_s.values())
        if outputs["warm"] != outputs["cold"]:
            result.fail("warm-pass stdout differs from the cold pass")
        if result.stats["warm.hit_ratio"] != repr(1.0):
            result.fail(f"warm-pass cache hit ratio {result.stats['warm.hit_ratio']}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        return result


# --------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------- #
#: points per sweep request, the size mix of benchmarks/bench_serve.py
SWEEP_SIZES = (1, 2, 4, 8, 16, 32, 64)

#: requests in the seeded list one pass replays
REQUESTS_PER_PASS = 400

#: closed-loop clients, one keep-alive connection each (= nproc here)
CLIENTS = 2

#: requests checked byte for byte against the CLI after the timed passes
SAMPLE_SIZE = 8


def request_list(seed: int) -> List[Tuple[str, Dict[str, Any], List[str]]]:
    """Seeded ``(path, body, equivalent CLI argv)`` list: ~80% sweeps."""
    rng = random.Random(seed)
    requests = []
    for _ in range(REQUESTS_PER_PASS):
        if rng.random() < 0.8:
            network = rng.choice(("alexnet", "vgg16"))
            points = rng.choice(SWEEP_SIZES)
            start = 128 + rng.randrange(128) * 8
            grid = f"pe={start}:{start + (points - 1) * 8}:8"
            requests.append(("/v1/sweep", {"network": network, "grid": grid},
                             ["sweep", "--network", network, "--grid", grid, "--json"]))
        else:
            network = rng.choice(ZOO)
            engine = rng.choice(("analytical", "analytical-detailed"))
            batch = rng.choice((1, 4, 16))
            requests.append(("/v1/run", {"network": network, "engine": engine,
                                         "batch": batch},
                             ["run", network, "--engine", engine, "--batch",
                              str(batch), "--json"]))
    return requests


class ServerProcess:
    """A ``repro serve --port 0`` child, optionally traced."""

    def __init__(self, env: Dict[str, str], tmp: Path, traced: bool,
                 tag: str) -> None:
        self.result_path = tmp / f"serve-{tag}.json"
        # a server of an earlier session in ``tmp`` may have left one
        self.result_path.unlink(missing_ok=True)
        here = Path(__file__).resolve().parent
        argv = [sys.executable, "-u", str(here / "serve_child.py"),
                "--out", str(self.result_path)]
        if traced:
            argv.append("--trace")
        with open(tmp / f"serve-{tag}.log", "w") as log:
            self.process = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                            stderr=log, text=True)
        self.port = self._read_port()
        self._wait_healthy()

    def _read_port(self) -> int:
        pattern = re.compile(r"listening on http://[^:]+:(\d+)")
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            found = pattern.search(line)
            if found:
                return int(found.group(1))
        self.stop()
        raise RuntimeError("repro serve did not report its port")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                response.read()
                connection.close()
                if response.status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("repro serve never answered /v1/health")

    def stop(self) -> Dict[str, Any]:
        """Interrupt the server, wait for it, and load what it wrote."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        try:
            return json.loads(self.result_path.read_text())
        except (OSError, ValueError):
            return {}


class ServeMixed(Workload):
    """Per-request overhead dominates: scoring <= 64 points takes under a
    millisecond.  The mix is chosen, not measured (no recorded traffic);
    with 2 connections the coalescer merges at most 2 requests."""

    name = "serve-mixed"

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.requests = request_list(seed)
        self.bodies = [json.dumps(body).encode("utf-8")
                       for _path, body, _argv in self.requests]
        self.sample = sorted(random.Random(seed + 1).sample(
            range(len(self.requests)), SAMPLE_SIZE))
        self.sampled: Dict[int, bytes] = {}
        self.env = dict(os.environ)
        self.server: Optional[ServerProcess] = None
        self.server_results: List[Dict[str, Any]] = []
        self._servers = 0

    def start_server(self, traced: bool = False) -> None:
        self._servers += 1
        self.server = ServerProcess(self.env, self.tmp, traced,
                                    tag=f"{self._servers}")

    def stop_server(self) -> Dict[str, Any]:
        outcome = self.server.stop() if self.server is not None else {}
        self.server = None
        self.server_results.append(outcome)
        return outcome

    def setup(self) -> None:
        self.start_server()
        connection = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
        try:
            for index in (self._first("/v1/sweep"), self._first("/v1/run")):
                status, _ = self._send(connection, index)
                if status != 200:
                    raise RuntimeError(f"warm-up request {index} returned {status}")
        finally:
            connection.close()

    def _first(self, path: str) -> int:
        return next(i for i, request in enumerate(self.requests) if request[0] == path)

    def _send(self, connection: http.client.HTTPConnection,
              index: int) -> Tuple[int, bytes]:
        connection.request("POST", self.requests[index][0], self.bodies[index],
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()

    def run_pass(self) -> PassResult:
        result = PassResult(attempted=len(self.requests), work=len(self.requests))
        latencies: List[Optional[float]] = [None] * len(self.requests)
        statuses: List[Any] = [None] * len(self.requests)
        record_sample = not self.sampled
        cursor = iter(range(len(self.requests)))
        lock = threading.Lock()
        port = self.server.port

        def client() -> None:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            try:
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    sent = time.perf_counter()
                    try:
                        status, body = self._send(connection, index)
                    except (OSError, http.client.HTTPException) as error:
                        statuses[index] = f"{type(error).__name__}: {error}"
                        connection.close()
                        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                                timeout=60)
                        continue
                    latencies[index] = time.perf_counter() - sent
                    statuses[index] = status
                    if record_sample and index in self.sample:
                        self.sampled[index] = body
            finally:
                connection.close()

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall_s = time.perf_counter() - start
        for index, status in enumerate(statuses):
            if status != 200:
                result.fail(f"request {index} {self.requests[index][0]}: {status}")
        result.latencies_s = [value for value in latencies if value is not None]
        return result

    def final_checks(self) -> List[str]:
        # a server killed after the SIGINT timeout writes no report
        failures = [f"repro serve {number}: " + (
                        f"exit status {outcome['status']}" if outcome
                        else "no report written")
                    for number, outcome in enumerate(self.server_results, 1)
                    if outcome.get("status") != 0 or "maxrss_kb" not in outcome]
        for index in self.sample:
            body = self.sampled.get(index)
            argv = self.requests[index][2]
            status, out = call_cli(argv)
            if body is None or status != 0 or body + b"\n" != out.encode("utf-8"):
                failures.append(f"serve response {index} differs from "
                                f"'repro {' '.join(argv)}'")
        return failures

    def teardown(self) -> None:
        if self.server is not None:
            self.stop_server()


WORKLOADS = {cls.name: cls for cls in (SimulateAlexNet, MapZoo, ServeMixed,
                                       SweepCached)}
