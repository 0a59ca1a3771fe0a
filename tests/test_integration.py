"""Cross-module integration tests.

These tie the independent models together: the cycle-accurate simulator, the
functional simulator, the analytical performance model and the traffic model
must tell one consistent story about the same layer.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import ChainNN, ChainConfig, alexnet, tiny_test_network
from repro.cnn.generator import WorkloadGenerator
from repro.cnn.layer import ConvLayer
from repro.cnn.quantize import quantize_layer_tensors
from repro.core.performance import PerformanceModel
from repro.sim.cycle import CycleAccurateChainSimulator
from repro.sim.functional import FunctionalChainSimulator


class TestPackageApi:
    def test_version(self):
        assert repro.__version__ == "1.6.0"

    def test_public_symbols_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_snippet(self):
        chip = ChainNN.paper_configuration()
        assert chip.peak_gops == pytest.approx(806.4)


class TestSimulatorAgreement:
    """Cycle-accurate, functional and reference results agree on the same layer."""

    @pytest.fixture(scope="class")
    def layer(self):
        return ConvLayer("agree", in_channels=2, out_channels=3, in_height=10, in_width=10,
                         kernel_size=3, padding=1)

    @pytest.fixture(scope="class")
    def tensors(self, layer):
        # 16-bit fixed point: the functional simulator's input domain (the
        # cycle simulator quantises to the same grid itself)
        ifmaps, weights, _, _ = quantize_layer_tensors(
            *WorkloadGenerator(seed=11).layer_pair(layer))
        return ifmaps, weights

    def test_functional_equals_cycle_accurate_on_quantised_operands(self, layer, tensors):
        ifmaps, weights = tensors
        cycle_sim = CycleAccurateChainSimulator(ChainConfig())
        cycle_result = cycle_sim.run_layer(layer, ifmaps, weights)
        functional = FunctionalChainSimulator(ChainConfig())
        quant_ifmaps = cycle_result.ifmap_format.quantize(ifmaps)
        quant_weights = cycle_result.weight_format.quantize(weights)
        functional_result = functional.run_layer(layer, quant_ifmaps, quant_weights)
        np.testing.assert_allclose(cycle_result.ofmaps, functional_result.ofmaps,
                                   rtol=1e-9, atol=1e-9)

    def test_functional_and_analytical_window_counts_agree(self, layer, tensors):
        ifmaps, weights = tensors
        functional = FunctionalChainSimulator(ChainConfig())
        result = functional.run_layer(layer, ifmaps, weights)
        # one kept window per output pixel per channel pair
        assert result.stats.windows_kept == layer.out_height * layer.out_width \
            * layer.channel_pairs()

    def test_paper_mode_is_faster_than_detailed_mode(self, layer):
        paper = PerformanceModel(ChainConfig(), mode="paper")
        detailed = PerformanceModel(ChainConfig(), mode="detailed")
        assert paper.layer_performance(layer).conv_cycles_per_image < \
            detailed.layer_performance(layer).conv_cycles_per_image


class TestEndToEndAlexNet:
    @pytest.fixture(scope="class")
    def result(self):
        chip = ChainNN.paper_configuration(calibrate_power_to=alexnet())
        return chip.evaluate(alexnet(), batch=128)

    def test_headline_numbers(self, result):
        assert result.fps == pytest.approx(326.2, rel=0.06)
        assert result.peak_gops == pytest.approx(806.4)

    def test_energy_efficiency_above_1_tops_per_watt(self, result):
        # the paper's 1421 GOPS/W figure divides the peak throughput by the
        # measured power; batch-128 power sits slightly above the batch-4
        # calibration point but the TOPS/W-class headline must survive
        peak_based_efficiency = result.peak_gops / result.power_w
        assert peak_based_efficiency > 1000.0
        assert 0.4 < result.power_w < 0.9

    def test_per_layer_results_consistent_with_network_totals(self, result):
        performance = PerformanceModel(result.config)
        total_cycles = sum(performance.layer_performance(layer, 128).conv_cycles_per_batch
                           for layer in alexnet().conv_layers)
        assert total_cycles / 700e6 == pytest.approx(result.conv_time_per_batch_s, rel=1e-9)
        assert sum(result.conv_time_s) == result.conv_time_per_batch_s

    def test_traffic_and_power_present(self, result):
        assert result.traffic_mb()["Total"]["oMemory"] > 0
        assert 0.3 < result.power_w < 1.0


class TestTinyNetworkFullStack:
    def test_every_model_runs_on_the_tiny_network(self):
        network = tiny_test_network()
        chip = ChainNN()
        generator = WorkloadGenerator(seed=3)
        cycle_sim = CycleAccurateChainSimulator(chip.config)
        analytical = chip.evaluate(network, batch=2)
        assert all(seconds > 0 for seconds in analytical.conv_time_s)
        for layer in network.conv_layers:
            ifmaps, weights = generator.layer_pair(layer)
            sim = cycle_sim.run_layer(layer, ifmaps, weights)
            assert sim.reference_max_abs_error == pytest.approx(0.0, abs=1e-9)
