"""The cycle simulator equals its register-accurate oracle bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cnn.generator import WorkloadGenerator
from repro.cnn.layer import ConvLayer
from repro.cnn.zoo import alexnet
from repro.core.config import ChainConfig
from repro.core.mapper import LayerMapper
from repro.sim.cycle import (
    CycleAccurateChainSimulator,
    pair_geometry,
    stripe_mac_count,
)
from repro.sim.cycle.oracle import register_level_layer


def _tensors(layer, seed=0):
    return WorkloadGenerator(seed=seed).layer_pair(layer)


def _both(layer, seed=0):
    """``((oracle ofmaps, oracle stats), simulator result)`` on one workload."""
    ifmaps, weights = _tensors(layer, seed)
    oracle = register_level_layer(layer, ifmaps, weights)
    fast = CycleAccurateChainSimulator().run_layer(layer, ifmaps, weights)
    return oracle, fast


class TestOracleEquivalence:
    """Bit-identical ofmaps and identical stats on the unit layers."""

    def test_stride1_layer(self, tiny_layer):
        (ofmaps, stats), fast = _both(tiny_layer)
        assert np.array_equal(ofmaps, fast.ofmaps)
        assert stats == fast.stats

    def test_strided_layer(self, strided_layer):
        (ofmaps, stats), fast = _both(strided_layer, seed=1)
        assert np.array_equal(ofmaps, fast.ofmaps)
        assert stats == fast.stats
        assert fast.stats.outputs_discarded_by_stride > 0

    def test_grouped_layer(self, grouped_layer):
        (ofmaps, stats), fast = _both(grouped_layer, seed=2)
        assert np.array_equal(ofmaps, fast.ofmaps)
        assert stats == fast.stats

    def test_k5_layer(self):
        layer = ConvLayer("k5", 1, 2, 11, 11, kernel_size=5)
        (ofmaps, stats), fast = _both(layer, seed=3)
        assert np.array_equal(ofmaps, fast.ofmaps)
        assert stats == fast.stats

    def test_conv1_like_strided_k11(self):
        layer = ConvLayer("k11s4", 1, 1, 23, 23, kernel_size=11, stride=4)
        (ofmaps, stats), fast = _both(layer, seed=4)
        assert np.array_equal(ofmaps, fast.ofmaps)
        assert stats == fast.stats

    def test_asymmetric_padded_strided(self):
        layer = ConvLayer("oddgeom", 2, 2, 10, 12, kernel_size=3, stride=3, padding=2)
        (ofmaps, stats), fast = _both(layer, seed=5)
        assert np.array_equal(ofmaps, fast.ofmaps)
        assert stats == fast.stats

    @pytest.mark.parametrize("total_bits", [8, 12])
    def test_narrow_operands(self, tiny_layer, total_bits):
        ifmaps, weights = _tensors(tiny_layer, seed=6)
        ofmaps, stats = register_level_layer(tiny_layer, ifmaps, weights,
                                             total_bits=total_bits)
        fast = CycleAccurateChainSimulator(total_bits=total_bits).run_layer(
            tiny_layer, ifmaps, weights)
        assert fast.ifmap_format.total_bits == total_bits
        assert np.array_equal(ofmaps, fast.ofmaps)
        assert stats == fast.stats

    def test_oracle_counters_follow_the_layer_geometry(self, grouped_layer):
        (_, stats), _ = _both(grouped_layer, seed=7)
        layer, k = grouped_layer, grouped_layer.kernel_size
        pairs = layer.out_channels * layer.in_channels_per_group
        stripes = len(range(0, layer.padded_height - k + 1, k))
        assert stats.pairs_processed == pairs
        assert stats.kmemory_reads == k * k * pairs
        assert stats.stripes_processed == stripes * pairs
        assert stats.kernel_load_cycles == layer.weight_count
        assert stats.outputs_collected == (layer.out_channels * layer.out_height
                                           * layer.out_width * layer.in_channels_per_group)

    def test_chain_cycles_spread_the_oracle_cycles_over_the_primitives(self, tiny_layer):
        (_, stats), fast = _both(tiny_layer)
        primitives = LayerMapper(ChainConfig()).map_layer(tiny_layer).active_primitives
        assert fast.chain_cycles_estimate == stats.primitive_cycles / primitives
        assert fast.reference_max_abs_error == 0.0


class TestAlexNetScale:
    """The fast path makes full AlexNet layers cycle-verifiable."""

    def test_conv5_full_size_verifies_against_reference(self):
        layer = alexnet().conv_layer("conv5")
        ifmaps, weights = _tensors(layer, seed=6)
        result = CycleAccurateChainSimulator().run_layer(layer, ifmaps, weights)
        assert result.reference_max_abs_error == pytest.approx(0.0, abs=1e-9)
        assert result.stats.pairs_processed == layer.channel_pairs()
        assert result.stats.macs >= layer.macs


class TestGeometryHelpers:
    def test_stripe_mac_count_matches_bruteforce(self):
        for k, width, rows in ((3, 7, 5), (3, 9, 3), (5, 11, 9), (5, 8, 6), (11, 23, 21)):
            total = k * (width - 1) + rows
            expected = 0
            for s in range(1, total + 1):
                oc, r0 = (s - 1) // k, (s - 1) % k
                expected += max(0, min(k, width - oc)) * max(0, min(k, rows - r0))
            assert stripe_mac_count(k, width, rows) == expected

    def test_pair_geometry_covers_all_stride1_windows(self, tiny_layer):
        geometry = pair_geometry(tiny_layer)
        stride1_windows = ((tiny_layer.padded_height - tiny_layer.kernel_size + 1)
                           * (tiny_layer.padded_width - tiny_layer.kernel_size + 1))
        assert geometry.valid_windows == stride1_windows
        assert geometry.outputs_kept == tiny_layer.out_height * tiny_layer.out_width
        assert geometry.outputs_discarded == stride1_windows - geometry.outputs_kept
