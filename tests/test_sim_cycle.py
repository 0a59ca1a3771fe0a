"""Tests for the cycle-accurate chain simulator (the ModelSim-check reproduction)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cnn.generator import WorkloadGenerator
from repro.cnn.layer import ConvLayer
from repro.cnn.reference import conv2d_direct
from repro.cnn.zoo import tiny_test_network
from repro.core.config import ChainConfig
from repro.core.performance import PerformanceModel
from repro.errors import SimulationError, WorkloadError
from repro.sim.cycle import CycleAccurateChainSimulator, engine


@pytest.fixture(scope="module")
def simulator():
    return CycleAccurateChainSimulator(ChainConfig())


def _tensors(layer, seed=0):
    return WorkloadGenerator(seed=seed).layer_pair(layer)


def _real_tensors(layer, seed=0):
    """Off-grid float (ifmaps, weights): generated tensors are on the grid."""
    rng = np.random.default_rng(seed)
    k = layer.kernel_size
    weights = rng.normal(0.0, 0.5, size=(layer.out_channels,
                                         layer.in_channels_per_group, k, k))
    return np.abs(rng.normal(size=layer.in_shape)), weights


class TestCycleAccurateCorrectness:
    def test_stride1_layer(self, simulator, tiny_layer):
        ifmaps, weights = _tensors(tiny_layer)
        result = simulator.run_layer(tiny_layer, ifmaps, weights)
        assert result.reference_max_abs_error == pytest.approx(0.0, abs=1e-9)

    def test_strided_layer(self, simulator, strided_layer):
        ifmaps, weights = _tensors(strided_layer, seed=1)
        result = simulator.run_layer(strided_layer, ifmaps, weights)
        assert result.reference_max_abs_error == pytest.approx(0.0, abs=1e-9)
        assert result.stats.outputs_discarded_by_stride > 0

    def test_grouped_layer(self, simulator, grouped_layer):
        ifmaps, weights = _tensors(grouped_layer, seed=2)
        result = simulator.run_layer(grouped_layer, ifmaps, weights)
        assert result.reference_max_abs_error == pytest.approx(0.0, abs=1e-9)

    def test_k5_layer(self, simulator):
        layer = ConvLayer("k5", 1, 2, 11, 11, kernel_size=5)
        ifmaps, weights = _tensors(layer, seed=3)
        result = simulator.run_layer(layer, ifmaps, weights)
        assert result.reference_max_abs_error == pytest.approx(0.0, abs=1e-9)

    def test_quantisation_error_vs_float_reference_is_small(self, simulator, tiny_layer):
        ifmaps, weights = _real_tensors(tiny_layer)
        result = simulator.run_layer(tiny_layer, ifmaps, weights)
        float_reference = conv2d_direct(tiny_layer, ifmaps, weights)
        error = float(np.max(np.abs(float_reference - result.ofmaps)))
        rms = float(np.sqrt(np.mean(float_reference ** 2)))
        assert 0.0 < error / rms < 0.02  # 16-bit quantisation noise only

    def test_tiny_network_both_layers(self, simulator):
        network = tiny_test_network()
        gen = WorkloadGenerator(seed=5)
        for layer in network.conv_layers:
            ifmaps, weights = gen.layer_pair(layer)
            result = simulator.run_layer(layer, ifmaps, weights)
            assert result.reference_max_abs_error == pytest.approx(0.0, abs=1e-9)

    def test_shape_validation(self, simulator, tiny_layer):
        ifmaps, weights = _tensors(tiny_layer)
        with pytest.raises(WorkloadError):
            simulator.run_layer(tiny_layer, ifmaps[:1], weights)

    def test_kernel_above_11x11_rejected(self, simulator):
        # the primitive's accumulator is sized for 121 products
        layer = ConvLayer("k13", 1, 1, 13, 13, kernel_size=13)
        ifmaps, weights = _tensors(layer)
        with pytest.raises(WorkloadError, match="K=13"):
            simulator.run_layer(layer, ifmaps, weights)

    def test_kernel_12x12_rejected(self, simulator):
        # the first kernel past the limit: 144 PEs > MAX_EXACT_KERNEL_PES
        layer = ConvLayer("k12", 1, 1, 12, 12, kernel_size=12)
        ifmaps, weights = _tensors(layer)
        with pytest.raises(WorkloadError, match="K=12"):
            simulator.run_layer(layer, ifmaps, weights)

    def test_kernel_11x11_is_accepted(self, simulator):
        layer = ConvLayer("k11", 2, 2, 15, 15, kernel_size=11, stride=2, padding=1)
        ifmaps, weights = _tensors(layer, seed=9)
        result = simulator.run_layer(layer, ifmaps, weights)
        assert result.reference_max_abs_error == 0.0
        assert result.stats.kmemory_reads == 121 * layer.channel_pairs()


class TestExactReferenceCheck:
    """The on-the-fly golden check tolerates no difference at all."""

    LAYER = ConvLayer("exact", in_channels=4, out_channels=6, in_height=13, in_width=11,
                      kernel_size=3, stride=2, padding=1, groups=2)

    def test_error_is_exactly_zero(self, simulator):
        ifmaps, weights = _tensors(self.LAYER, seed=6)
        result = simulator.run_layer(self.LAYER, ifmaps, weights)
        assert result.reference_max_abs_error == 0.0

    def test_one_lsb_perturbation_is_caught(self, simulator, monkeypatch):
        correlate = engine.correlate_layer_raw

        def off_by_one_lsb(*args, **kwargs):
            raw_ofmaps = correlate(*args, **kwargs)
            raw_ofmaps[-1, -1, -1] += 1
            return raw_ofmaps

        monkeypatch.setattr(engine, "correlate_layer_raw", off_by_one_lsb)
        ifmaps, weights = _tensors(self.LAYER, seed=6)
        with pytest.raises(SimulationError, match="deviates from reference"):
            simulator.run_layer(self.LAYER, ifmaps, weights)


class TestCycleAccounting:
    def test_macs_match_workload_plus_edge_work(self, simulator, tiny_layer):
        ifmaps, weights = _tensors(tiny_layer)
        result = simulator.run_layer(tiny_layer, ifmaps, weights)
        # the chain also computes windows it later discards (padding edges),
        # so the MAC count is at least the layer's useful MACs
        assert result.stats.macs >= tiny_layer.macs

    def test_kernel_load_cycles(self, simulator, tiny_layer):
        ifmaps, weights = _tensors(tiny_layer)
        result = simulator.run_layer(tiny_layer, ifmaps, weights)
        assert result.stats.kernel_load_cycles == tiny_layer.weight_count

    def test_outputs_collected_matches_output_volume(self, simulator, tiny_layer):
        ifmaps, weights = _tensors(tiny_layer)
        result = simulator.run_layer(tiny_layer, ifmaps, weights)
        expected = (tiny_layer.out_height * tiny_layer.out_width * tiny_layer.out_channels
                    * tiny_layer.in_channels_per_group)
        assert result.stats.outputs_collected == expected

    def test_detailed_analytical_model_equals_simulated_cycles(self, tiny_layer,
                                                               strided_layer):
        """The detailed analytical cycle count is the simulated one, strided too."""
        config = ChainConfig()
        simulator = CycleAccurateChainSimulator(config)
        detailed = PerformanceModel(config, mode="detailed")
        for layer in (tiny_layer, strided_layer):
            ifmaps, weights = _tensors(layer)
            sim_result = simulator.run_layer(layer, ifmaps, weights)
            mapping = detailed.mapper.map_layer(layer)
            predicted_primitive_cycles = detailed.pair_cycles(layer) * mapping.channel_pairs
            assert sim_result.stats.primitive_cycles == predicted_primitive_cycles

    def test_stats_expose_formats(self, simulator, tiny_layer):
        ifmaps, weights = _tensors(tiny_layer)
        result = simulator.run_layer(tiny_layer, ifmaps, weights)
        assert result.ifmap_format.total_bits == 16
        assert result.weight_format.total_bits == 16
        assert result.total_cycles_with_kernel_load > result.chain_cycles_estimate
