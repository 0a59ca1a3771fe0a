"""Parallel-runtime tests: pool mechanics, degradation, and the
parallel-vs-serial bit-identity guarantees the CI equivalence gate enforces
for ``sweep``, ``map`` and ``verify``."""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest

from repro.cnn.zoo import alexnet, tiny_test_network
from repro.core.config import ChainConfig
from repro.engine.executor import SweepExecutor
from repro.mapping import ScheduleOptimizer
from repro.runtime import (
    FaultPlan,
    LazyRuntime,
    ParallelRuntime,
    SharedTensor,
    WorkerError,
    resolve_workers,
)
from repro.runtime import pool as pool_module
from repro.runtime import shm as shm_module
from repro.sim.functional import FunctionalChainSimulator
from repro.sim.network import FunctionalNetworkRunner


@pytest.fixture(autouse=True)
def force_parallel(monkeypatch):
    """Pool tests must create real pools even on single-core CI hosts
    (the single-core degradation tests below remove the override again)."""
    monkeypatch.setenv(pool_module.FORCE_PARALLEL_ENV, "1")


@pytest.fixture(scope="module")
def runtime():
    """One two-worker pool shared by the mechanics tests (persistent!).

    The explicit empty fault plan overrides ``$REPRO_FAULT_SPEC``: the
    unsupervised base pool treats injected crashes as fatal, so these
    mechanics tests must stay deterministic even under the CI chaos leg
    (supervised recovery is covered by tests/test_faults.py).
    """
    pool = ParallelRuntime.create(2, fault_plan=FaultPlan.none())
    if pool is None:
        pytest.skip("platform cannot provide process pools")
    yield pool
    pool.close()


class TestPoolMechanics:
    def test_map_returns_ordered_results(self, runtime):
        payloads = [{"action": "echo", "value": index} for index in range(7)]
        results = runtime.map("runtime.selftest", payloads)
        assert [entry["value"] for entry in results] == list(range(7))
        # round-robin assignment alternates the two workers deterministically
        assert [entry["worker_id"] for entry in results] == [0, 1, 0, 1, 0, 1, 0]

    def test_worker_context_persists_across_calls(self, runtime):
        first = runtime.map("runtime.selftest", [{"action": "count"}] * 2)
        second = runtime.map("runtime.selftest", [{"action": "count"}] * 2)
        for before, after in zip(first, second):
            assert after["count"] == before["count"] + 1

    def test_broadcast_reaches_every_worker(self, runtime):
        results = runtime.broadcast("runtime.selftest", {"action": "echo"})
        assert sorted(entry["worker_id"] for entry in results) == [0, 1]

    def test_task_error_propagates_with_message(self, runtime):
        with pytest.raises(WorkerError, match="injected boom"):
            runtime.map("runtime.selftest",
                        [{"action": "echo"},
                         {"action": "raise", "value": "injected boom"}])
        # the pool survives task errors (only dead workers close it)
        assert runtime.map("runtime.selftest", [{"action": "echo"}])

    def test_unknown_task_rejected(self, runtime):
        with pytest.raises(WorkerError, match="unknown runtime task"):
            runtime.map("no.such.task", [None])

    def test_worker_death_is_detected(self):
        pool = ParallelRuntime.create(2, fault_plan=FaultPlan.none())
        if pool is None:
            pytest.skip("platform cannot provide process pools")
        with pytest.raises(WorkerError, match="died"):
            pool.map("runtime.selftest", [{"action": "exit"}])
        with pytest.raises(WorkerError, match="closed"):
            pool.map("runtime.selftest", [{"action": "echo"}])

    def test_resolve_workers_validation(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)

    def test_submission_failure_does_not_leak_stale_results(self, runtime):
        """A payload failing to pickle must not poison the next call's ids."""
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("not today")

        with pytest.raises(TypeError):
            runtime.map("runtime.selftest",
                        [{"action": "echo", "value": "stale"},
                         {"action": "echo", "value": Unpicklable()}])
        results = runtime.map("runtime.selftest",
                              [{"action": "echo", "value": "fresh"}] * 2)
        assert [entry["value"] for entry in results] == ["fresh", "fresh"]


class TestLazyRuntime:
    def test_hands_out_supervised_pools(self):
        """Consumers get the fault-tolerant runtime, not the bare pool
        (worker-death recovery itself is covered by tests/test_faults.py)."""
        from repro.runtime import SupervisedRuntime

        owner = LazyRuntime(2)
        pool = owner.get()
        if pool is None:
            pytest.skip("platform cannot provide process pools")
        try:
            assert isinstance(pool, SupervisedRuntime)
        finally:
            owner.close()

    def test_pool_is_replaced_after_loss(self):
        owner = LazyRuntime(2)
        pool = owner.get()
        if pool is None:
            pytest.skip("platform cannot provide process pools")
        try:
            pool.close()  # what a fatal pool loss leaves behind
            # one lost pool must not poison the owner: the next get()
            # replaces it and tasks run again
            fresh = owner.get()
            assert fresh is not pool and not fresh.closed
            result = fresh.map("runtime.selftest",
                               [{"action": "echo", "value": 5}])
            assert result[0]["value"] == 5
        finally:
            owner.close()

    def test_task_hint_caps_creation_then_grows(self):
        owner = LazyRuntime(3)
        pool = owner.get(task_hint=2)
        if pool is None:
            pytest.skip("platform cannot provide process pools")
        try:
            assert pool.workers == 2  # sized to the work, not the request
            # more work than workers: the pool grows (replaced, larger) …
            grown = owner.get(task_hint=64)
            assert grown is not pool and grown.workers == 3
            # … and a later small call reuses the big pool (no shrink)
            assert owner.get(task_hint=1) is grown
        finally:
            owner.close()


class TestSharedTensor:
    def test_round_trip_and_writeback(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        handle = SharedTensor.create(data)
        try:
            view = handle.open()
            assert np.array_equal(view, data)
            view[0, 0, 0] = -1.0
            assert handle.open()[0, 0, 0] == -1.0
            assert handle.nbytes == data.nbytes
        finally:
            handle.unlink()

    def test_pickled_handle_is_small(self):
        data = np.zeros((256, 256))
        handle = SharedTensor.create(data)
        try:
            if handle.name is None:
                pytest.skip("platform fell back to inline transfer")
            assert len(pickle.dumps(handle)) < 1024  # handle, not payload
        finally:
            handle.unlink()

    def test_inline_fallback_without_shared_memory(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_shared_memory", None)
        data = np.arange(6.0)
        handle = SharedTensor.create(data)
        assert handle.name is None
        clone = pickle.loads(pickle.dumps(handle))
        assert np.array_equal(clone.open(), data)
        handle.unlink()


class TestSerialDegradation:
    """No pool -> every consumer silently runs its serial path."""

    @pytest.fixture
    def no_pools(self, monkeypatch):
        monkeypatch.setattr(ParallelRuntime, "create",
                            classmethod(lambda cls, workers=None: None))

    def test_sweep_degrades(self, no_pools):
        network = tiny_test_network()
        configs = [ChainConfig(num_pes=pes) for pes in (144, 288, 576)]
        with SweepExecutor(engine="analytical", network=network,
                           max_workers=4) as executor:
            parallel = executor.run(configs, parallel=True)
            serial = executor.run(configs, parallel=False)
        assert [r.metrics for r in parallel] == [r.metrics for r in serial]

    def test_map_degrades(self, no_pools):
        network = tiny_test_network()
        schedule = ScheduleOptimizer(batch=4, workers=4).optimize(network)
        baseline = ScheduleOptimizer(batch=4).optimize(network)
        assert schedule.to_json_dict() == baseline.to_json_dict()

    def test_verify_degrades(self, no_pools):
        network = tiny_test_network()
        with FunctionalNetworkRunner(seed=7, workers=4) as runner:
            parallel = runner.run(network)
        serial = FunctionalNetworkRunner(seed=7).run(network)
        assert parallel.stats == serial.stats
        assert parallel.max_abs_error == serial.max_abs_error

    def test_verify_degrades_without_shared_memory(self, monkeypatch):
        """Live pool but no shm: the inline fallback cannot assemble ofmaps
        across processes, so the layer must run serially — and identically."""
        monkeypatch.setattr(shm_module, "_shared_memory", None)
        network = tiny_test_network()
        serial = FunctionalNetworkRunner(seed=7).run(network)
        with FunctionalNetworkRunner(seed=7, workers=2) as runner:
            parallel = runner.run(network)
        assert parallel.stats == serial.stats
        assert parallel.max_abs_error == serial.max_abs_error
        assert parallel.passed


class TestSingleCoreDegradation:
    """``--workers`` on a single-core host degrades to the serial path."""

    @pytest.fixture
    def single_core(self, monkeypatch):
        monkeypatch.delenv(pool_module.FORCE_PARALLEL_ENV, raising=False)
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(pool_module, "_warned_single_core", False)

    def test_degrades_with_one_warning_per_process(self, single_core):
        owner = LazyRuntime(4)
        with pytest.warns(RuntimeWarning, match="single-core"):
            assert owner.get() is None
        # remembered per owner (no re-probe) and warned once per process
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert owner.get() is None
            assert LazyRuntime(2).get() is None

    def test_force_env_overrides_degradation(self, single_core, monkeypatch):
        requested = []
        monkeypatch.setenv(pool_module.FORCE_PARALLEL_ENV, "1")
        monkeypatch.setattr(
            ParallelRuntime, "create",
            classmethod(lambda cls, workers=None:
                        requested.append(workers) or None))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert LazyRuntime(2).get() is None
        assert requested == [2]

    def test_consumers_run_serially(self, single_core):
        """End to end: workers>1 on one core still verifies, bit-identically."""
        network = tiny_test_network()
        serial = FunctionalNetworkRunner(seed=3).run(network)
        with pytest.warns(RuntimeWarning, match="single-core"):
            with FunctionalNetworkRunner(seed=3, workers=4) as runner:
                parallel = runner.run(network)
        assert parallel.stats == serial.stats
        assert parallel.max_abs_error == serial.max_abs_error


class TestParallelSerialEquivalence:
    """The bit-identity contract of the runtime consumers."""

    def test_ofmap_block_partition_is_bit_identical(self, generator,
                                                    strided_layer,
                                                    grouped_layer):
        from repro.cnn.reference import pad_input
        from repro.sim.functional_vectorized import (
            ofmap_block_ranges,
            vectorized_layer_ofmaps,
            vectorized_ofmap_block,
        )

        for layer in (strided_layer, grouped_layer):
            ifmaps, weights = generator.layer_pair(layer)
            padded = pad_input(ifmaps, layer.padding)
            whole = vectorized_layer_ofmaps(layer, padded, weights)
            for blocks in (2, 3, layer.out_channels):
                assembled = np.zeros(layer.out_shape)
                for m_start, m_stop in ofmap_block_ranges(layer, blocks):
                    vectorized_ofmap_block(layer, padded, weights,
                                           m_start, m_stop, out=assembled)
                assert np.array_equal(whole, assembled)

    def test_run_layer_parallel_matches_serial(self, runtime, generator,
                                               tiny_layer, strided_layer,
                                               grouped_layer):
        simulator = FunctionalChainSimulator(backend="vectorized")
        for layer in (tiny_layer, strided_layer, grouped_layer):
            ifmaps, weights = generator.layer_pair(layer)
            for stripe_height in (None, 1):
                serial = simulator.run_layer(layer, ifmaps, weights,
                                             stripe_height=stripe_height)
                parallel = simulator.run_layer_parallel(
                    layer, ifmaps, weights, runtime,
                    stripe_height=stripe_height)
                assert np.array_equal(serial.ofmaps, parallel.ofmaps)
                assert serial.stats == parallel.stats
                assert serial.chain_cycles_estimate == parallel.chain_cycles_estimate

    def test_network_verify_parallel_matches_serial(self):
        network = tiny_test_network()
        serial = FunctionalNetworkRunner(seed=11).run(network)
        with FunctionalNetworkRunner(seed=11, workers=2) as runner:
            parallel = runner.run(network)
        assert serial.stats == parallel.stats
        assert serial.max_abs_error == parallel.max_abs_error
        assert [s.max_abs_error for s in serial.stages] == \
            [s.max_abs_error for s in parallel.stages]
        assert [s.chain_cycles for s in serial.stages] == \
            [s.chain_cycles for s in parallel.stages]

    def test_mapping_search_parallel_matches_serial(self):
        network = alexnet()
        serial = ScheduleOptimizer(objective="latency",
                                   batch=16).optimize(network)
        parallel = ScheduleOptimizer(objective="latency", batch=16,
                                     workers=2).optimize(network)
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_sweep_parallel_matches_serial_and_reuses_pool(self):
        network = tiny_test_network()
        configs = [ChainConfig(num_pes=pes) for pes in (144, 288, 432, 576)]
        with SweepExecutor(engine="analytical", network=network,
                           max_workers=2) as executor:
            serial = executor.run(configs, parallel=False)
            first = executor.run(configs, parallel=True)
            pool = executor._pool.runtime
            second = executor.run_batches(ChainConfig(), [1, 2, 4],
                                          parallel=True)
            if pool is not None:
                assert executor._pool.runtime is pool  # persistent, not per-call
            assert len(second) == 3
        assert [r.metrics for r in serial] == [r.metrics for r in first]
        assert [r.config_summary for r in serial] == \
            [r.config_summary for r in first]

    def test_sweep_recovers_after_pool_loss(self):
        """A closed (worker-death) pool is replaced, with the network
        re-broadcast to the fresh workers."""
        network = tiny_test_network()
        configs = [ChainConfig(num_pes=pes) for pes in (144, 288, 432)]
        with SweepExecutor(engine="analytical", network=network,
                           max_workers=2) as executor:
            first = executor.run(configs, parallel=True)
            pool = executor._pool.runtime
            if pool is None:
                pytest.skip("platform cannot provide process pools")
            pool.close()  # what a mid-task worker death leaves behind
            second = executor.run(configs, parallel=True)
            assert executor._pool.runtime is not pool
        assert [r.metrics for r in first] == [r.metrics for r in second]
