"""Benchmark: Winograd F(2x2,3x3) execution mode vs the direct dataflow.

The acceptance bar for the Winograd PR: the transform-domain cost model
records **>= 1.8x modeled MAC reduction** on every eligible VGG-16 layer
(with the input/output transform overhead broken out per layer), and the
mapping search with the algorithm axis enabled (``auto``) is **never worse**
than the direct-only search on every zoo network for every objective — the
never-worse guarantee extended from schedules to algorithms.  The measured
numbers land in ``BENCH_winograd.json`` at the repo root; the "Winograd
execution" section of EXPERIMENTS.md is regenerated from that file.
"""

from __future__ import annotations

import time

import numpy as np

from _record import record_benchmark
from repro.analysis.winograd import (
    network_winograd_coverage,
    winograd_layer_summary,
)
from repro.cnn.generator import WorkloadGenerator
from repro.cnn.reference import conv2d_im2col
from repro.cnn.zoo import NETWORKS, get_network
from repro.core.config import ChainConfig
from repro.mapping import OBJECTIVES, ScheduleOptimizer
from repro.sim.winograd import conv2d_winograd, winograd_tolerance

#: schedule granularity the searches optimise for
BATCH = 16

#: modeled MAC-reduction floor the acceptance criterion names
MAC_REDUCTION_FLOOR = 1.8


def _layer_summaries(network):
    """Transform-domain accounting for every eligible conv layer."""
    rows = []
    for layer in network.conv_layers:
        summary = winograd_layer_summary(layer)
        if summary["eligible"]:
            rows.append(summary)
    return rows


def test_winograd_model_and_algorithm_axis(benchmark):
    config = ChainConfig()
    payload = {"batch": BATCH, "strategy": "exhaustive", "networks": {}}

    # ------------------------------------------------------------------ #
    # modeled MAC reduction + transform overhead, per eligible layer
    # ------------------------------------------------------------------ #
    for name in ("alexnet", "vgg16"):
        network = get_network(name)
        summaries = _layer_summaries(network)
        coverage = network_winograd_coverage(network)
        payload["networks"][name] = {
            "winograd_mac_coverage": coverage["mac_coverage"],
            "eligible_layers": coverage["eligible_layers"],
            "layers": summaries,
        }
        if name == "vgg16":
            assert len(summaries) == 13
            for summary in summaries:
                # the acceptance bar: >= 1.8x modeled multiply reduction on
                # every eligible VGG-16 layer, ragged edge tiles included
                assert summary["mac_reduction"] >= MAC_REDUCTION_FLOOR, (
                    f"{summary['layer']}: mac_reduction "
                    f"{summary['mac_reduction']:.3f} below the "
                    f"{MAC_REDUCTION_FLOOR}x floor"
                )
                # the overhead breakout the record must carry
                assert summary["transform_overhead_cycles"] > 0
                assert 0.0 < summary["transform_overhead_fraction"] < 1.0
            payload["vgg16_min_mac_reduction"] = min(
                summary["mac_reduction"] for summary in summaries)

    # ------------------------------------------------------------------ #
    # never-worse: auto (algorithm axis) vs direct-only, all zoo networks,
    # all four objectives
    # ------------------------------------------------------------------ #
    search_seconds = 0.0
    for name in sorted(NETWORKS):
        network = get_network(name)
        modes = {}
        for objective in OBJECTIVES:
            values = {}
            for mode in ("direct", "auto"):
                optimizer = ScheduleOptimizer(
                    config=config, objective=objective,
                    batch=BATCH, algorithm=mode,
                )
                start = time.perf_counter()
                schedule = optimizer.optimize(network)
                search_seconds += time.perf_counter() - start
                values[mode] = schedule.objective_value()
                if mode == "auto":
                    winograd_layers = [
                        layer for layer, algorithm
                        in schedule.algorithms().items()
                        if algorithm == "winograd"
                    ]
            assert values["auto"] <= values["direct"] * (1 + 1e-12), (
                f"{name}/{objective}: auto {values['auto']} worse than "
                f"direct {values['direct']}"
            )
            modes[objective] = {
                "direct": values["direct"],
                "auto": values["auto"],
                "improvement_pct": (
                    (values["direct"] - values["auto"]) / values["direct"]
                    * 100.0 if values["direct"] else 0.0),
                "winograd_layers": winograd_layers,
            }
        payload["networks"].setdefault(name, {})["objectives"] = modes

    vgg_throughput = payload["networks"]["vgg16"]["objectives"]["throughput"]
    # on VGG-16 the axis must actually pay: every layer flips to Winograd
    # and the batch throughput improves
    assert len(vgg_throughput["winograd_layers"]) == 13
    assert vgg_throughput["auto"] < vgg_throughput["direct"]
    payload["vgg16_throughput_cycle_speedup"] = (
        vgg_throughput["direct"] / vgg_throughput["auto"])
    payload["search_seconds"] = search_seconds

    # ------------------------------------------------------------------ #
    # functional fast path: transform-domain wall time vs the im2col golden
    # on the largest eligible AlexNet layer, correctness included
    # ------------------------------------------------------------------ #
    layer = next(l for l in get_network("alexnet").conv_layers
                 if l.name == "conv3")
    ifmaps, weights = WorkloadGenerator(seed=2017).layer_pair(layer)
    start = time.perf_counter()
    reference = conv2d_im2col(layer, ifmaps, weights)
    im2col_s = time.perf_counter() - start
    start = time.perf_counter()
    result = conv2d_winograd(layer, ifmaps, weights)
    winograd_s = time.perf_counter() - start
    error = float(np.max(np.abs(reference - result)))
    assert error <= winograd_tolerance(reference)
    payload["functional"] = {
        "layer": layer.name,
        "im2col_s": im2col_s,
        "winograd_s": winograd_s,
        "max_abs_error": error,
        "tolerance": winograd_tolerance(reference),
    }

    record_benchmark("winograd", payload)

    vgg16 = get_network("vgg16")

    def one_auto_search():
        return ScheduleOptimizer(config=config, objective="throughput",
                                 batch=BATCH, algorithm="auto").optimize(vgg16)

    benchmark.pedantic(one_auto_search, rounds=3, iterations=1)
