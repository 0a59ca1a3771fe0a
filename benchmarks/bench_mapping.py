"""Benchmark: mapping search vs the paper's fixed Table II mapping.

The acceptance bar for the mapping-search PR: on AlexNet and VGG-16 the
searched schedule's objective value is **never worse** than the Table II
baseline for any objective, and **strictly better** for at least one
network/objective pair — with every searched mapping functionally verified
(bit-identical to the baseline stripe plan, im2col golden reference matched
exactly).  Measured baseline-vs-searched objective values land in
``BENCH_mapping.json`` at the repo root; the "Mapping search" section of
EXPERIMENTS.md is regenerated from that file.
"""

from __future__ import annotations

import time

import pytest

from _record import record_benchmark
from repro.cnn.zoo import get_network
from repro.core.config import ChainConfig
from repro.mapping import OBJECTIVES, MapSpace, ScheduleOptimizer

#: schedule granularity the searches optimise for
BATCH = 16

#: the networks the acceptance criterion names
NETWORK_NAMES = ("alexnet", "vgg16")


def _optimize_all(network, config):
    """One exhaustive search per objective; returns {objective: schedule}."""
    schedules = {}
    for objective in OBJECTIVES:
        optimizer = ScheduleOptimizer(config=config, objective=objective,
                                      batch=BATCH)
        schedules[objective] = optimizer.optimize(network)
    return schedules


def test_searched_schedules_beat_table2_and_verify(benchmark):
    config = ChainConfig()
    payload = {"batch": BATCH, "strategy": "exhaustive", "networks": {}}
    strictly_better = []
    search_seconds = 0.0
    candidates_evaluated = 0

    for name in NETWORK_NAMES:
        network = get_network(name)
        mapspace = MapSpace(network, config)

        start = time.perf_counter()
        schedules = _optimize_all(network, config)
        search_seconds += time.perf_counter() - start

        objectives = {}
        for objective, schedule in schedules.items():
            baseline = schedule.baseline_objective_value()
            searched = schedule.objective_value()
            # the hard acceptance bar: never worse than Table II
            assert searched <= baseline * (1 + 1e-12), (
                f"{name}/{objective}: searched {searched} worse than "
                f"baseline {baseline}"
            )
            if searched < baseline * (1 - 1e-9):
                strictly_better.append([name, objective])
            objectives[objective] = {
                "baseline": baseline,
                "searched": searched,
                "improvement_pct": schedule.improvement_fraction() * 100.0,
            }
            candidates_evaluated += schedule.evaluations

        # verification depends only on the stripe-height profile; verify
        # each distinct profile once (geometry dedup happens inside verify)
        profiles = {}
        for schedule in schedules.values():
            profile = tuple(sorted(schedule.stripe_heights().items()))
            profiles.setdefault(profile, schedule)
        verifier = ScheduleOptimizer(config=config, batch=BATCH)
        max_error = 0.0
        distinct_pairs = set()
        all_passed = True
        for schedule in profiles.values():
            verification = verifier.verify(network, schedule, seed=2017)
            assert verification.passed, verification.describe()
            max_error = max(max_error, verification.max_abs_error)
            # dedupe across profiles: verify() dedupes per schedule only
            distinct_pairs.update(
                (entry.layer_name, entry.candidate.stripe_height)
                for entry in verification.layers)
            all_passed = all_passed and verification.passed

        payload["networks"][name] = {
            "pruned_candidates": mapspace.total_pruned_size(),
            "full_candidates": mapspace.total_full_size(),
            "objectives": objectives,
            "verification": {
                "passed": all_passed,
                "max_abs_error": max_error,
                "distinct_mappings": len(distinct_pairs),
                "bit_identical": all_passed,
            },
        }

    # the other half of the acceptance bar: a strict win somewhere
    assert strictly_better, "search never improved on the Table II mapping"
    payload["strictly_better_pairs"] = strictly_better
    payload["search_seconds"] = search_seconds
    payload["candidates_evaluated"] = candidates_evaluated
    payload["candidates_per_second"] = (candidates_evaluated / search_seconds
                                        if search_seconds else 0.0)
    record_benchmark("mapping", payload)

    alexnet = get_network("alexnet")

    def one_search():
        return ScheduleOptimizer(config=config, objective="latency",
                                 batch=BATCH).optimize(alexnet)

    benchmark.pedantic(one_search, rounds=3, iterations=1)

