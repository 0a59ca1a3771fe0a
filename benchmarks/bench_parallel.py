"""Benchmark: the persistent shared-memory parallel runtime.

The acceptance bar for the parallel-runtime PR: fanning work over persistent
workers must leave every result **bit-identical** to the serial path —
functional network verification (ofmaps, counters, golden errors), mapping
search (schedules) and design-point sweeps (records) — while the wall-clock
scales with the worker count on machines that have the cores.  The timing
claim is only asserted where it can physically hold (``--benchmark-only`` /
timing mode on a 4+-core machine); the smoke pass asserts the identity
guarantees everywhere and records the measured scaling curve honestly,
including on single-core runners where the speedup is ~1x by construction.

Records ``BENCH_parallel.json`` (worker-count scaling of whole-network
functional verification, mapping-search and sweep parallel timings, CPU
count) at the repo root; the "Parallel runtime" section of EXPERIMENTS.md is
regenerated from that file.

Whole-network verification of VGG-16 (the acceptance criterion's workload)
is exercised when ``REPRO_BENCH_NETWORK=vgg16`` is set; the default CI
smoke pass measures AlexNet.
"""

from __future__ import annotations

import os
import time

from _record import record_benchmark
from repro.cnn.zoo import get_network
from repro.core.config import ChainConfig
from repro.engine.executor import SweepExecutor
from repro.mapping import ScheduleOptimizer
from repro.sim.network import FunctionalNetworkRunner

#: worker counts of the scaling curve (the CPU count is appended when larger)
WORKER_COUNTS = (2, 4)

#: zoo network the verification scaling is measured on
NETWORK = os.environ.get("REPRO_BENCH_NETWORK", "alexnet")


def _assert_identical(serial, parallel) -> None:
    """Whole-network verification results must match bit for bit."""
    assert serial.stats == parallel.stats, (serial.stats, parallel.stats)
    assert serial.max_abs_error == parallel.max_abs_error
    assert len(serial.stages) == len(parallel.stages)
    for left, right in zip(serial.stages, parallel.stages):
        assert left.name == right.name
        assert left.max_abs_error == right.max_abs_error
        assert left.windows_kept == right.windows_kept
        assert left.chain_cycles == right.chain_cycles
    assert serial.passed and parallel.passed


def test_parallel_functional_verification_scaling(benchmark):
    network = get_network(NETWORK)
    cpus = os.cpu_count() or 1

    started = time.perf_counter()
    serial = FunctionalNetworkRunner(backend="vectorized", seed=13).run(network)
    serial_seconds = time.perf_counter() - started

    counts = sorted(set(WORKER_COUNTS) | ({cpus} if cpus > max(WORKER_COUNTS) else set()))
    scaling = {}
    for workers in counts:
        with FunctionalNetworkRunner(backend="vectorized", seed=13,
                                     workers=workers) as runner:
            started = time.perf_counter()
            parallel = runner.run(network)
            seconds = time.perf_counter() - started
        _assert_identical(serial, parallel)
        scaling[str(workers)] = {
            "seconds": seconds,
            "speedup_vs_serial": serial_seconds / seconds if seconds else 0.0,
        }

    # mapping search: parallel schedules must equal serial ones exactly
    started = time.perf_counter()
    searched = ScheduleOptimizer(objective="latency",
                                 batch=16).optimize(network)
    map_serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    searched_parallel = ScheduleOptimizer(objective="latency", batch=16,
                                          workers=max(WORKER_COUNTS)
                                          ).optimize(network)
    map_parallel_seconds = time.perf_counter() - started
    assert searched.to_json_dict() == searched_parallel.to_json_dict()

    # sweeps: the persistent pool returns records identical to serial runs
    configs = [ChainConfig(num_pes=pes) for pes in range(128, 1153, 64)]
    with SweepExecutor(engine="analytical", network=network,
                       max_workers=max(WORKER_COUNTS)) as executor:
        started = time.perf_counter()
        serial_records = executor.run(configs, parallel=False)
        sweep_serial_seconds = time.perf_counter() - started
        started = time.perf_counter()
        parallel_records = executor.run(configs, parallel=True)
        sweep_parallel_seconds = time.perf_counter() - started
        assert [r.metrics for r in serial_records] == \
            [r.metrics for r in parallel_records]

    best = max(entry["speedup_vs_serial"] for entry in scaling.values())
    record_benchmark("parallel", {
        "network": network.name,
        "cpu_count": cpus,
        "verify_serial_seconds": serial_seconds,
        "verify_scaling": scaling,
        "verify_best_speedup": best,
        "map_serial_seconds": map_serial_seconds,
        "map_parallel_seconds": map_parallel_seconds,
        "sweep_serial_seconds": sweep_serial_seconds,
        "sweep_parallel_seconds": sweep_parallel_seconds,
        "bit_identical": True,
    })

    def verify_with_pool():
        with FunctionalNetworkRunner(backend="vectorized", seed=13,
                                     workers=min(cpus, max(WORKER_COUNTS))
                                     ) as runner:
            return runner.run(network)

    result = benchmark.pedantic(verify_with_pool, rounds=1, iterations=1)
    assert result.passed

    # the wall-clock acceptance bar only binds where the cores exist: the
    # smoke pass (shared runners, possibly 1-2 cores) records the curve but
    # must not fail for lacking hardware
    if not benchmark.disabled and cpus >= 4:
        four = scaling.get("4", scaling[str(max(counts))])
        assert four["speedup_vs_serial"] >= 3.0, (
            f"4-worker verification only {four['speedup_vs_serial']:.2f}x "
            f"faster on {cpus} cores"
        )


def test_persistent_pool_amortises_worker_startup():
    """Re-running a sweep on a live executor reuses workers and caches.

    The second parallel call must not rebuild the pool: the broadcast
    network and per-worker engines are already in place, so only the small
    per-point payloads move.  (Timing is recorded by the scaling benchmark;
    here we pin the *behavioural* contract so a regression to per-call pools
    cannot land silently.)
    """
    network = get_network("alexnet")
    configs = [ChainConfig(num_pes=pes) for pes in (144, 288, 432, 576)]
    with SweepExecutor(engine="analytical", network=network,
                       max_workers=2) as executor:
        first = executor.run(configs, parallel=True)
        runtime = executor._pool.runtime
        second = executor.run(configs, parallel=True)
        if runtime is not None:  # platforms with pools: same live pool
            assert executor._pool.runtime is runtime
            assert all(p.is_alive() for p in runtime._processes)
        assert [r.metrics for r in first] == [r.metrics for r in second]
