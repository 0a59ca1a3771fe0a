"""Fault-tolerance suite: deterministic fault injection, supervised
recovery, chaos equivalence (sweep/map/verify bit-identical to serial under
a seeded crash plan) and the 8-process concurrent cache stress test.

Part of the CI equivalence gate; the chaos CI leg additionally runs the
whole tier-1 suite with ``$REPRO_FAULT_SPEC`` exported, which these tests
must (and do) survive."""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.cnn.zoo import tiny_test_network
from repro.core.config import ChainConfig
from repro.engine import RunCache, RunRecord
from repro.engine.executor import SweepExecutor
from repro.mapping import ScheduleOptimizer
from repro.runtime import (
    FaultPlan,
    FaultRule,
    FaultSpecError,
    RetryPolicy,
    SupervisedRuntime,
    TaskFailure,
    WorkerError,
)
from repro.runtime import pool as pool_module
from repro.runtime.faults import FAULT_SPEC_ENV, resolve_fault_plan
from repro.runtime.supervisor import DEADLINE_ENV, RETRIES_ENV
from repro.sim.network import FunctionalNetworkRunner

#: the ISSUE's acceptance plan: a seeded 20% crash probability, capped to
#: first attempts so the retry budget provably bounds recovery
CHAOS_SPEC = "crash:p=0.2,seed=7,attempts=1"


# --------------------------------------------------------------------- #
# fault spec parsing and determinism (no pools involved)
# --------------------------------------------------------------------- #
class TestFaultSpec:
    def test_parse_and_describe_round_trip(self):
        plan = FaultPlan.parse("crash:p=0.2,seed=7;hang:p=0.05;delay:ms=20,p=0.3")
        assert [rule.kind for rule in plan.rules] == ["crash", "hang", "delay"]
        assert plan.rules[0].probability == 0.2 and plan.rules[0].seed == 7
        assert plan.rules[2].delay_ms == 20.0
        assert FaultPlan.parse(plan.describe()) == plan

    def test_parse_rejects_garbage(self):
        for spec in ("meteor:p=1", "crash:p=1.5", "crash:p=x",
                     "crash:frequency=2", "crash:p", "delay:ms=-1",
                     "crash:attempts=0"):
            with pytest.raises(FaultSpecError):
                FaultPlan.parse(spec)

    def test_decisions_are_deterministic(self):
        rule = FaultRule(kind="crash", probability=0.2, seed=7)
        decisions = [rule.triggers(task_id, 0) for task_id in range(512)]
        # same rule, fresh instance, same machine-independent decisions
        again = FaultRule(kind="crash", probability=0.2, seed=7)
        assert decisions == [again.triggers(task_id, 0) for task_id in range(512)]
        rate = sum(decisions) / len(decisions)
        assert 0.1 < rate < 0.3  # the hash draw tracks the probability
        reseeded = FaultRule(kind="crash", probability=0.2, seed=8)
        assert decisions != [reseeded.triggers(t, 0) for t in range(512)]

    def test_probability_extremes(self):
        always = FaultRule(kind="crash", probability=1.0)
        never = FaultRule(kind="crash", probability=0.0)
        assert all(always.triggers(t, a) for t in range(8) for a in range(3))
        assert not any(never.triggers(t, a) for t in range(8) for a in range(3))

    def test_attempts_cap_gates_retries(self):
        rule = FaultRule(kind="crash", probability=1.0, max_attempts=1)
        assert rule.triggers(5, 0) and not rule.triggers(5, 1)

    def test_first_triggering_rule_wins(self):
        plan = FaultPlan.parse("delay:p=1,ms=1;crash:p=1")
        assert plan.decide(0, 0).kind == "delay"

    def test_empty_plan_and_env_resolution(self, monkeypatch):
        assert FaultPlan.none().empty
        assert FaultPlan.none().inject(0, 0) is None
        monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
        assert resolve_fault_plan(None).empty
        monkeypatch.setenv(FAULT_SPEC_ENV, "crash:p=0.2,seed=7")
        assert resolve_fault_plan(None) == FaultPlan.parse("crash:p=0.2,seed=7")
        # an explicit plan (or spec string) outranks the environment
        assert resolve_fault_plan(FaultPlan.none()).empty
        assert resolve_fault_plan("hang:p=1").rules[0].kind == "hang"

    def test_delay_injection_returns_kind_and_sleeps(self):
        plan = FaultPlan.parse("delay:p=1,ms=5")
        started = time.perf_counter()
        assert plan.inject(3, 0) == "delay"
        assert time.perf_counter() - started >= 0.004

    def test_retry_policy_from_env(self, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV, "2.5")
        monkeypatch.setenv(RETRIES_ENV, "5")
        policy = RetryPolicy.from_env()
        assert policy.deadline == 2.5 and policy.max_attempts == 5
        assert RetryPolicy.from_env(max_attempts=2).max_attempts == 2
        with pytest.raises(ValueError):
            RetryPolicy(deadline=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(quarantine="explode")


# --------------------------------------------------------------------- #
# supervised recovery (real pools; forced on single-core CI hosts)
# --------------------------------------------------------------------- #
@pytest.fixture(autouse=True)
def force_parallel(monkeypatch):
    monkeypatch.setenv(pool_module.FORCE_PARALLEL_ENV, "1")


def _supervised(workers=2, fault_plan=None, **policy):
    pool = SupervisedRuntime.create(workers, fault_plan=fault_plan)
    if pool is None:
        pytest.skip("platform cannot provide process pools")
    pool.policy = RetryPolicy(**policy)
    return pool


class TestSupervisedRecovery:
    def test_clean_path_has_no_recovery_activity(self):
        pool = _supervised(fault_plan=FaultPlan.none())
        try:
            payloads = [{"action": "echo", "value": i} for i in range(6)]
            results = pool.map("runtime.selftest", payloads)
            assert [r["value"] for r in results] == list(range(6))
            stats = pool.stats.as_dict()
            assert stats["worker_deaths"] == 0 and stats["retries"] == 0
        finally:
            pool.close()

    def test_recovers_from_first_attempt_crashes(self):
        """Every task crashes its worker once; retries must complete them all."""
        pool = _supervised(fault_plan="crash:p=1,attempts=1")
        try:
            payloads = [{"action": "echo", "value": i} for i in range(6)]
            results = pool.map("runtime.selftest", payloads)
            assert [r["value"] for r in results] == list(range(6))
            assert pool.stats.worker_deaths > 0
            assert pool.stats.respawns > 0
            # bounded: deaths can never exceed tasks x attempt budget
            assert pool.stats.worker_deaths <= 6 * pool.policy.max_attempts
        finally:
            pool.close()

    def test_poison_task_quarantines_to_serial_parent(self):
        """A task that always crashes ends up re-executed in the parent."""
        pool = _supervised(fault_plan="crash:p=1", max_attempts=2,
                           backoff=0.01, quarantine="serial")
        try:
            results = pool.map("runtime.selftest",
                               [{"action": "echo", "value": 42}])
            assert results[0]["value"] == 42
            assert results[0]["worker_id"] == -1  # the parent's context
            assert pool.stats.quarantined == 1
            assert pool.stats.serial_tasks >= 1
        finally:
            pool.close()

    def test_poison_task_surfaces_as_task_failure(self):
        pool = _supervised(fault_plan="crash:p=1", max_attempts=2,
                           backoff=0.01, quarantine="failure")
        try:
            results = pool.map("runtime.selftest", [{"action": "echo"}])
            failure = results[0]
            assert isinstance(failure, TaskFailure)
            assert failure.task == "runtime.selftest"
            assert failure.attempts == pool.policy.max_attempts
            assert "quarantined" in failure.reason
            assert pool.stats.task_failures == 1
        finally:
            pool.close()

    def test_deadline_recovers_hung_workers(self):
        pool = _supervised(fault_plan="hang:p=1,attempts=1", deadline=0.5,
                           backoff=0.01)
        try:
            results = pool.map("runtime.selftest",
                               [{"action": "echo", "value": i} for i in range(2)])
            assert [r["value"] for r in results] == [0, 1]
            assert pool.stats.deadline_kills >= 1
        finally:
            pool.close()

    def test_broadcast_context_replayed_into_respawned_workers(self):
        """Respawned workers regain broadcast state before taking tasks."""
        import signal

        pool = _supervised(fault_plan=FaultPlan.none(), backoff=0.01)
        try:
            first = pool.broadcast("runtime.selftest", {"action": "count"})
            assert [r["count"] for r in first] == [1, 1]
            # simulate an OOM kill between calls; the supervisor must
            # respawn the slot and replay the count broadcast into it
            os.kill(pool._processes[0].pid, signal.SIGKILL)
            pool._processes[0].join(5)
            results = pool.map("runtime.selftest", [{"action": "echo"}] * 4)
            assert len(results) == 4
            assert pool.stats.respawns > 0
            second = pool.broadcast("runtime.selftest", {"action": "count"})
            assert [r["count"] for r in second] == [2, 2]
        finally:
            pool.close()

    def test_task_exceptions_still_propagate(self):
        """Supervision recovers dead workers, not buggy tasks."""
        pool = _supervised(fault_plan=FaultPlan.none())
        try:
            with pytest.raises(WorkerError, match="injected boom"):
                pool.map("runtime.selftest",
                         [{"action": "raise", "value": "injected boom"}])
        finally:
            pool.close()

    def test_exhausted_respawn_budget_drains_serially(self):
        """With no respawns allowed, chaos degrades clean to the parent."""
        pool = _supervised(fault_plan="crash:p=1", max_respawns=0,
                           max_attempts=2, backoff=0.01)
        try:
            payloads = [{"action": "echo", "value": i} for i in range(4)]
            results = pool.map("runtime.selftest", payloads)
            assert [r["value"] for r in results] == list(range(4))
            assert pool.stats.serial_tasks >= 1
        finally:
            pool.close()


# --------------------------------------------------------------------- #
# chaos equivalence: the acceptance criterion — sweep / map / verify with
# workers complete bit-identical to serial under the seeded crash plan
# --------------------------------------------------------------------- #
@pytest.fixture
def chaos(monkeypatch):
    """Serial baselines run fault-free; the parallel runs inherit chaos."""
    monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
    yield
    # (monkeypatch restores the previous spec automatically)


def _set_chaos(monkeypatch):
    monkeypatch.setenv(FAULT_SPEC_ENV, CHAOS_SPEC)


class TestChaosEquivalence:
    def test_sweep_is_bit_identical_under_crashes(self, chaos, monkeypatch):
        network = tiny_test_network()
        configs = [ChainConfig(num_pes=pes) for pes in range(96, 577, 48)]
        with SweepExecutor(engine="analytical", network=network,
                           max_workers=2) as executor:
            serial = executor.run(configs, parallel=False)
        _set_chaos(monkeypatch)
        with SweepExecutor(engine="analytical", network=network,
                           max_workers=2) as executor:
            chaotic = executor.run(configs, parallel=True)
            pool = executor._pool.runtime
            stats = pool.stats.as_dict() if pool is not None else {}
        assert [r.metrics for r in chaotic] == [r.metrics for r in serial]
        if stats:
            assert stats["worker_deaths"] <= len(configs) + len(configs)

    def test_mapping_search_is_bit_identical_under_crashes(self, chaos,
                                                           monkeypatch):
        network = tiny_test_network()
        serial = ScheduleOptimizer(objective="latency",
                                   batch=4).optimize(network)
        _set_chaos(monkeypatch)
        chaotic = ScheduleOptimizer(objective="latency", batch=4,
                                    workers=2).optimize(network)
        assert chaotic.to_json_dict() == serial.to_json_dict()

    def test_functional_verify_is_bit_identical_under_crashes(self, chaos,
                                                              monkeypatch):
        network = tiny_test_network()
        serial = FunctionalNetworkRunner(backend="vectorized", seed=13).run(network)
        _set_chaos(monkeypatch)
        with FunctionalNetworkRunner(backend="vectorized", seed=13,
                                     workers=2) as runner:
            chaotic = runner.run(network)
        assert chaotic.stats == serial.stats
        assert chaotic.max_abs_error == serial.max_abs_error
        for left, right in zip(serial.stages, chaotic.stages):
            assert (left.name, left.windows_kept, left.chain_cycles) == \
                (right.name, right.windows_kept, right.chain_cycles)
            assert left.max_abs_error == right.max_abs_error
        assert chaotic.passed


# --------------------------------------------------------------------- #
# 8-process concurrent cache stress
# --------------------------------------------------------------------- #
STRESS_PROCESSES = 8
STRESS_SHARED_KEYS = 24
STRESS_PRIVATE_KEYS = 8


def _stress_record(worker_id: int, i: int) -> RunRecord:
    return RunRecord(engine="stress", network="tiny", batch=1,
                     config_summary=f"worker {worker_id}",
                     metrics={"fps": float(i), "worker": float(worker_id)},
                     extra={"payload": "x" * 64})


def _cache_stress_worker(root: str, worker_id: int, max_mb, barrier) -> None:
    """Hammer one shared cache root: contended writes, reads, re-writes."""
    cache = RunCache(root, max_mb=max_mb)
    barrier.wait(timeout=60)  # maximise overlap across the 8 processes
    for i in range(STRESS_SHARED_KEYS):
        cache.put(f"shared{i:04d}", _stress_record(worker_id, i))
        cache.get(f"shared{(i * 7) % STRESS_SHARED_KEYS:04d}")
    for i in range(STRESS_PRIVATE_KEYS):
        cache.put(f"private{worker_id}_{i:04d}", _stress_record(worker_id, i))
    # a record must never come back corrupt (a quarantine here would mean a
    # torn write escaped into a reader)
    assert cache.quarantined == 0, "reader saw a torn record"


def _run_stress(tmp_path, max_mb):
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    barrier = ctx.Barrier(STRESS_PROCESSES)
    processes = [
        ctx.Process(target=_cache_stress_worker,
                    args=(str(tmp_path), worker_id, max_mb, barrier))
        for worker_id in range(STRESS_PROCESSES)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(120)
    assert all(p.exitcode == 0 for p in processes), \
        [p.exitcode for p in processes]


class TestConcurrentCacheStress:
    def test_eight_processes_share_one_root_without_loss(self, tmp_path):
        """Unbounded: every record lands whole; nothing lost, torn or orphaned."""
        _run_stress(tmp_path, max_mb=None)
        cache = RunCache(tmp_path)
        expected = ({f"shared{i:04d}" for i in range(STRESS_SHARED_KEYS)}
                    | {f"private{w}_{i:04d}"
                       for w in range(STRESS_PROCESSES)
                       for i in range(STRESS_PRIVATE_KEYS)})
        on_disk = {path.stem for path in tmp_path.glob("*.json")}
        assert on_disk == expected  # zero lost records
        for key in expected:  # zero corrupt/partially-written records
            record = cache.get(key)
            assert record is not None, f"{key} failed to decode"
            assert record.engine == "stress"
        assert cache.quarantined == 0
        assert cache.stats()["corrupt"] == 0
        stats = cache.stats()
        assert stats["entries"] == len(expected)

    def test_eight_processes_with_concurrent_lru_eviction(self, tmp_path):
        """Bounded: all 8 processes evict concurrently; survivors stay whole."""
        record_bytes = len(json.dumps(
            _stress_record(0, 0).to_json_dict(), sort_keys=True, indent=1))
        # room for roughly a third of the records: eviction runs constantly
        bound_mb = (record_bytes * STRESS_SHARED_KEYS * 3) / (1024.0 * 1024.0)
        _run_stress(tmp_path, max_mb=bound_mb)
        cache = RunCache(tmp_path)
        survivors = sorted(path.stem for path in tmp_path.glob("*.json"))
        assert survivors, "eviction must not empty the cache"
        for key in survivors:  # every survivor parses whole
            assert cache.get(key) is not None, f"{key} failed to decode"
        assert cache.quarantined == 0
        assert cache.stats()["corrupt"] == 0
        assert cache.stats()["bytes"] <= int(bound_mb * 1024 * 1024) * 2

    def test_orphaned_tmp_from_killed_writer_is_reported_and_reaped(
            self, tmp_path):
        """A writer dying mid-spool leaves debris that stats/clear handle."""
        cache = RunCache(tmp_path)
        cache.put("live0", _stress_record(0, 0))
        (tmp_path / "crashed-writer.tmp").write_text("{ torn")
        assert cache.stats()["tmp_orphans"] == 1
        assert cache.clear() == 1  # one live record; debris reaped silently
        assert list(tmp_path.glob("*.tmp")) == []


# --------------------------------------------------------------------- #
# atexit hygiene: leaked runtimes are tracked for cleanup
# --------------------------------------------------------------------- #
class TestExitHygiene:
    def test_runtimes_register_for_atexit_cleanup(self):
        pool = _supervised(fault_plan=FaultPlan.none())
        try:
            assert pool in pool_module._LIVE_RUNTIMES
            assert pool._owner_pid == os.getpid()
        finally:
            pool.close()

    def test_close_leaked_runtimes_reaps_open_pools(self):
        pool = _supervised(fault_plan=FaultPlan.none())
        pool_module._close_leaked_runtimes()
        assert all(p is None or not p.is_alive() for p in pool._processes)
