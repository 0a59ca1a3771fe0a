"""Scalar-vs-vectorized functional-simulator equivalence and network runner.

The vectorized backend must be *bit-identical* to the scalar per-window walk
— ofmaps compared with ``np.array_equal`` (no tolerance) and every
``FunctionalRunStats`` counter equal — across strides, paddings, groups and
kernel sizes.  CI treats skips in this module as failures (the equivalence
guarantee is what makes the fast path trustworthy), so no test here may be
conditionally skipped.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnn.generator import WorkloadGenerator
from repro.cnn.layer import ConvLayer, PoolingLayer
from repro.cnn.network import Network
from repro.cnn.reference import conv2d_direct
from repro.cnn.zoo import lenet5, tiny_test_network
from repro.core.config import ChainConfig
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.sim.functional import FUNCTIONAL_BACKENDS, FunctionalChainSimulator
from repro.sim.functional_vectorized import (
    pair_window_stats,
    stride_keep_mask,
    vectorized_layer_ofmaps,
)
from repro.sim.network import FunctionalNetworkRunner, pool2d


def _tensors(layer, seed=0):
    return WorkloadGenerator(seed=seed).layer_pair(layer)


def _run_both(layer, seed=0):
    ifmaps, weights = _tensors(layer, seed=seed)
    scalar = FunctionalChainSimulator(backend="scalar").run_layer(layer, ifmaps, weights)
    fast = FunctionalChainSimulator(backend="vectorized").run_layer(layer, ifmaps, weights)
    return scalar, fast


class TestScalarVectorizedEquivalence:
    @given(
        kernel=st.sampled_from([1, 3, 5, 7, 11, 13]),
        stride=st.sampled_from([1, 2, 4]),
        pad=st.sampled_from([0, 1, 2]),
        groups=st.sampled_from([1, 2]),
        channels=st.integers(1, 2),
        extra=st.integers(0, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_randomized_bit_identity_and_stats(self, kernel, stride, pad, groups,
                                               channels, extra, seed):
        size = kernel + extra + 1
        layer = ConvLayer(
            "rand", groups * channels, groups * 2, size, size,
            kernel_size=kernel, stride=stride, padding=pad, groups=groups,
        )
        scalar, fast = _run_both(layer, seed=seed)
        # bit-identical, not merely allclose: same float64 values exactly
        assert np.array_equal(scalar.ofmaps, fast.ofmaps)
        # every counter equal, not just the ofmaps
        assert scalar.stats == fast.stats
        assert scalar.chain_cycles_estimate == fast.chain_cycles_estimate

    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_stride_kernel_grid(self, stride, kernel):
        layer = ConvLayer("grid", 2, 3, kernel + 7, kernel + 7,
                          kernel_size=kernel, stride=stride, padding=1)
        scalar, fast = _run_both(layer, seed=stride * 10 + kernel)
        assert np.array_equal(scalar.ofmaps, fast.ofmaps)
        assert scalar.stats == fast.stats

    def test_grouped_strided_padded_layer(self):
        layer = ConvLayer("gsp", 6, 4, 13, 13, kernel_size=3,
                          stride=2, padding=2, groups=2)
        scalar, fast = _run_both(layer, seed=7)
        assert np.array_equal(scalar.ofmaps, fast.ofmaps)
        assert scalar.stats == fast.stats

    def test_alexnet_conv1_like_geometry(self):
        layer = ConvLayer("mini_conv1", 2, 3, 47, 47, kernel_size=11, stride=4)
        scalar, fast = _run_both(layer, seed=3)
        assert np.array_equal(scalar.ofmaps, fast.ofmaps)
        assert scalar.stats == fast.stats

    def test_vectorized_matches_direct_reference(self):
        layer = ConvLayer("ref", 3, 4, 12, 12, kernel_size=3, padding=1)
        ifmaps, weights = _tensors(layer, seed=5)
        fast = FunctionalChainSimulator(backend="vectorized").run_layer(
            layer, ifmaps, weights)
        np.testing.assert_allclose(
            fast.ofmaps, conv2d_direct(layer, ifmaps, weights),
            rtol=1e-10, atol=1e-10,
        )


class TestBackendSelection:
    def test_backends_tuple(self):
        assert FUNCTIONAL_BACKENDS == ("scalar", "vectorized")

    def test_default_backend_is_scalar(self):
        assert FunctionalChainSimulator().backend == "scalar"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="functional backend"):
            FunctionalChainSimulator(backend="cuda")

    def test_both_mode_cross_checks_and_returns(self):
        layer = ConvLayer("both", 2, 2, 9, 9, kernel_size=3, stride=2, padding=1)
        ifmaps, weights = _tensors(layer, seed=9)
        result = FunctionalChainSimulator(backend="both").run_layer(
            layer, ifmaps, weights)
        fast = FunctionalChainSimulator(backend="vectorized").run_layer(
            layer, ifmaps, weights)
        assert np.array_equal(result.ofmaps, fast.ofmaps)
        assert result.stats == fast.stats

    def test_zero_active_primitives_raises(self):
        layer = ConvLayer("zero", 1, 1, 5, 5, kernel_size=3)
        simulator = FunctionalChainSimulator(backend="vectorized")
        simulator.mapper = SimpleNamespace(map_layer=lambda _: SimpleNamespace(
            channel_pairs=layer.channel_pairs(), active_primitives=0))
        ifmaps, weights = _tensors(layer)
        with pytest.raises(SimulationError, match="active"):
            simulator.run_layer(layer, ifmaps, weights)


class TestClosedFormCounters:
    def test_stride_keep_mask_counts_output_volume(self):
        layer = ConvLayer("mask", 1, 1, 13, 13, kernel_size=3, stride=2, padding=1)
        mask = stride_keep_mask(layer)
        assert mask.shape == (layer.padded_height - layer.kernel_size + 1,
                              layer.padded_width - layer.kernel_size + 1)
        assert int(mask.sum()) == layer.out_height * layer.out_width

    def test_pair_stats_match_mask(self):
        layer = ConvLayer("pairs", 1, 1, 15, 15, kernel_size=5, stride=4, padding=2)
        per_pair = pair_window_stats(layer)
        assert per_pair.windows_kept == int(stride_keep_mask(layer).sum())
        assert per_pair.windows_evaluated >= per_pair.windows_kept

    def test_vectorized_ofmaps_helper_matches_reference(self):
        layer = ConvLayer("helper", 2, 4, 10, 10, kernel_size=3, padding=1, groups=2)
        ifmaps, weights = _tensors(layer, seed=11)
        from repro.cnn.reference import pad_input
        ofmaps = vectorized_layer_ofmaps(
            layer, pad_input(ifmaps.astype(np.float64), layer.padding), weights)
        np.testing.assert_allclose(ofmaps, conv2d_direct(layer, ifmaps, weights),
                                   rtol=1e-10, atol=1e-10)


class TestNetworkRunner:
    def test_lenet5_verification_passes(self):
        result = FunctionalNetworkRunner(backend="vectorized", seed=1).run(lenet5())
        assert result.passed
        assert [stage.kind for stage in result.stages] == \
            ["conv", "pool", "conv", "pool"]
        assert result.max_abs_error <= result.tolerance
        assert result.stats.windows_kept > 0
        assert result.chain_cycles_estimate > 0
        assert "PASSED" in result.describe()

    def test_tiny_network_both_backend(self):
        result = FunctionalNetworkRunner(backend="both", seed=2).run(
            tiny_test_network())
        assert result.passed
        assert len(result.conv_stages) == 2

    def test_activations_are_quantized_between_stages(self):
        runner = FunctionalNetworkRunner(backend="vectorized", seed=3, total_bits=8)
        plain = FunctionalNetworkRunner(backend="vectorized", seed=3,
                                        quantize_between_stages=False)
        coarse = runner.run(tiny_test_network())
        exact = plain.run(tiny_test_network())
        # 8-bit grids change the downstream numbers; both still verify
        # against the golden model because the reference sees the same inputs
        assert coarse.passed and exact.passed
        assert coarse.stats == exact.stats

    def test_shape_mismatch_raises(self):
        broken = Network(name="broken")
        broken.add(ConvLayer("c1", 1, 2, 8, 8, kernel_size=3))
        broken.add(ConvLayer("c2", 3, 2, 6, 6, kernel_size=3))  # wants 3 channels
        with pytest.raises(WorkloadError, match="c2"):
            FunctionalNetworkRunner(backend="vectorized").run(broken)

    def test_pooling_before_conv_raises(self):
        broken = Network(name="pool-first")
        broken.add(PoolingLayer("p0", channels=2, in_height=8, in_width=8,
                                kernel_size=2, stride=2))
        with pytest.raises(WorkloadError, match="pooling"):
            FunctionalNetworkRunner(backend="vectorized").run(broken)

    def test_pool2d_max_and_avg(self):
        act = np.arange(2 * 4 * 4, dtype=np.float64).reshape(2, 4, 4)
        spec = PoolingLayer("p", channels=2, in_height=4, in_width=4,
                            kernel_size=2, stride=2)
        pooled = pool2d(act, spec)
        assert pooled.shape == (2, 2, 2)
        assert pooled[0, 0, 0] == 5.0  # max of [[0,1],[4,5]]
        avg = pool2d(act, PoolingLayer("p", channels=2, in_height=4, in_width=4,
                                       kernel_size=2, stride=2, mode="avg"))
        assert avg[0, 0, 0] == pytest.approx(2.5)

    def test_pool2d_shape_validation(self):
        spec = PoolingLayer("p", channels=3, in_height=4, in_width=4,
                            kernel_size=2, stride=2)
        with pytest.raises(WorkloadError):
            pool2d(np.zeros((2, 4, 4)), spec)


class TestConfigSensitivity:
    def test_chain_cycles_scale_with_chain_length(self):
        layer = ConvLayer("cfg", 2, 2, 10, 10, kernel_size=3, padding=1)
        ifmaps, weights = _tensors(layer, seed=4)
        wide = FunctionalChainSimulator(ChainConfig(num_pes=576),
                                        backend="vectorized")
        narrow = FunctionalChainSimulator(ChainConfig(num_pes=36),
                                          backend="vectorized")
        cycles_wide = wide.run_layer(layer, ifmaps, weights).chain_cycles_estimate
        cycles_narrow = narrow.run_layer(layer, ifmaps, weights).chain_cycles_estimate
        assert cycles_narrow > cycles_wide


class TestOfmapBlockSizing:
    def test_vgg_scale_layer_peak_memory_stays_bounded(self):
        """The ofmap-block byte budget caps peak allocation.

        A VGG-scale out-channel count (512) over a 56x56 feature map would
        materialise a ~116 MB broadcast product in one piece; the block
        sizing must keep the peak close to ``_PRODUCT_BLOCK_BYTES`` instead,
        releasing each block's product before the next one allocates.
        """
        import tracemalloc

        from repro.cnn.reference import conv2d_im2col, pad_input
        from repro.sim.functional_vectorized import _PRODUCT_BLOCK_BYTES

        layer = ConvLayer("vgg-scale", in_channels=4, out_channels=512,
                          in_height=56, in_width=56, kernel_size=3, padding=1)
        window_bytes = (layer.out_height * layer.out_width
                        * layer.kernel_size * layer.kernel_size * 8)
        unblocked_product_bytes = layer.out_channels * window_bytes
        # the scenario must actually engage the blocking to test anything
        assert unblocked_product_bytes > _PRODUCT_BLOCK_BYTES

        ifmaps, weights = _tensors(layer, seed=3)
        padded = pad_input(ifmaps, layer.padding)
        tracemalloc.start()
        try:
            ofmaps = vectorized_layer_ofmaps(layer, padded, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        ofmap_bytes = ofmaps.nbytes
        bound = int(1.25 * _PRODUCT_BLOCK_BYTES) + ofmap_bytes + 16 * 1024 * 1024
        assert peak <= bound, (
            f"peak {peak / 1e6:.1f} MB above the blocked bound "
            f"{bound / 1e6:.1f} MB"
        )
        assert peak < unblocked_product_bytes  # far from the unblocked cliff
        reference = conv2d_im2col(layer, ifmaps, weights)
        assert float(np.max(np.abs(ofmaps - reference))) < 1e-9
