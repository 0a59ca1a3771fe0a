"""Benchmark: cycle-accurate simulation of the chain (the ModelSim-check path).

Not a paper artifact by itself, but the mechanism the paper's verification
methodology relies on: the cycle-accurate simulator must (a) agree exactly
with the software reference on the quantised operands, and (b) count the
cycles of the detailed analytical model exactly.
"""

from __future__ import annotations

import pytest

from repro.cnn.generator import WorkloadGenerator
from repro.cnn.layer import ConvLayer
from repro.core.config import ChainConfig
from repro.core.performance import PerformanceModel
from repro.sim.cycle import CycleAccurateChainSimulator
from repro.sim.functional import FunctionalChainSimulator


@pytest.fixture(scope="module")
def layer():
    return ConvLayer("bench", in_channels=2, out_channels=4, in_height=12, in_width=12,
                     kernel_size=3, padding=1)


@pytest.fixture(scope="module")
def tensors(layer):
    return WorkloadGenerator(seed=1).layer_pair(layer)


def test_cycle_accurate_layer_simulation(benchmark, layer, tensors):
    simulator = CycleAccurateChainSimulator(ChainConfig())
    ifmaps, weights = tensors

    result = benchmark(simulator.run_layer, layer, ifmaps, weights)

    # exact functional agreement with the reference on quantised operands
    assert result.reference_max_abs_error == 0.0
    # cycle count equals the detailed analytical model's
    detailed = PerformanceModel(ChainConfig(), mode="detailed")
    predicted = detailed.pair_cycles(layer) * layer.channel_pairs()
    assert result.stats.primitive_cycles == predicted


def test_functional_simulator_throughput(benchmark, tensors):
    """The dataflow-level simulator's whole-array path handles a conv2-like
    geometry quickly."""
    layer = ConvLayer("func", in_channels=8, out_channels=8, in_height=27, in_width=27,
                      kernel_size=5, padding=2)
    ifmaps, weights = WorkloadGenerator(seed=2).layer_pair(layer)
    simulator = FunctionalChainSimulator(ChainConfig())

    result = benchmark(simulator.run_layer, layer, ifmaps, weights)
    assert result.stats.pairs_processed == 64
    assert result.max_abs_error_vs_reference(ifmaps, weights) == 0.0
