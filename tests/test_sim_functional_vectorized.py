"""Functional simulator vs the scalar oracle walk, and the network runner.

The simulator's whole-array path must be *bit-identical* to the per-window
oracle walk (:func:`repro.sim.functional.scalar_window_walk`) — ofmaps
compared with ``np.array_equal`` and every ``FunctionalRunStats`` counter
equal — across strides, paddings, groups and kernel sizes.  The simulator's
input domain is fixed point: the tests feed it generated tensors, which
are born on the 16-bit grid, and
:class:`TestExactnessGuard` checks that raw floats and over-wide geometries
are rejected.  CI treats skips in this module as failures (the equivalence
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
from repro.cnn.quantize import choose_format
from repro.cnn.reference import conv2d_direct, conv2d_im2col, pad_input, strided_windows
from repro.cnn.zoo import alexnet, lenet5, tiny_test_network
from repro.core.config import ChainConfig
from repro.errors import SimulationError, WorkloadError
from repro.hwmodel.fixed_point import check_exact_accumulation, on_fixed_point_grid
from repro.kernels.numpy_backend import GEMM_BLOCK_BYTES
from repro.sim.functional import FunctionalChainSimulator, scalar_window_walk
from repro.sim.functional_vectorized import (
    pair_window_stats,
    stride_keep_mask,
    vectorized_layer_ofmaps,
    vectorized_ofmap_block,
)
from repro.sim.network import (
    FunctionalNetworkRunner,
    NetworkRunResult,
    StageReport,
    pool2d,
)


def _tensors(layer, seed=0):
    """Seeded tensors, generated on the simulator's 16-bit fixed-point grid."""
    return WorkloadGenerator(seed=seed).layer_pair(layer)


def _run_both(layer, seed=0):
    """The oracle walk's ``(ofmaps, stats)`` and the simulator's result."""
    ifmaps, weights = _tensors(layer, seed=seed)
    walk = scalar_window_walk(layer, ifmaps, weights)
    fast = FunctionalChainSimulator().run_layer(layer, ifmaps, weights)
    return walk, fast


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
        (ofmaps, stats), fast = _run_both(layer, seed=seed)
        # bit-identical, not merely allclose: same float64 values exactly
        assert np.array_equal(ofmaps, fast.ofmaps)
        # every counter equal, not just the ofmaps
        assert stats == fast.stats

    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_stride_kernel_grid(self, stride, kernel):
        layer = ConvLayer("grid", 2, 3, kernel + 7, kernel + 7,
                          kernel_size=kernel, stride=stride, padding=1)
        (ofmaps, stats), fast = _run_both(layer, seed=stride * 10 + kernel)
        assert np.array_equal(ofmaps, fast.ofmaps)
        assert stats == fast.stats

    def test_grouped_strided_padded_layer(self):
        layer = ConvLayer("gsp", 6, 4, 13, 13, kernel_size=3,
                          stride=2, padding=2, groups=2)
        (ofmaps, stats), fast = _run_both(layer, seed=7)
        assert np.array_equal(ofmaps, fast.ofmaps)
        assert stats == fast.stats

    def test_alexnet_conv1_like_geometry(self):
        layer = ConvLayer("mini_conv1", 2, 3, 47, 47, kernel_size=11, stride=4)
        (ofmaps, stats), fast = _run_both(layer, seed=3)
        assert np.array_equal(ofmaps, fast.ofmaps)
        assert stats == fast.stats

    def test_vectorized_matches_direct_reference(self):
        layer = ConvLayer("ref", 3, 4, 12, 12, kernel_size=3, padding=1)
        ifmaps, weights = _tensors(layer, seed=5)
        fast = FunctionalChainSimulator().run_layer(layer, ifmaps, weights)
        np.testing.assert_allclose(
            fast.ofmaps, conv2d_direct(layer, ifmaps, weights),
            rtol=1e-10, atol=1e-10,
        )

    def test_ofmap_block_partition_is_bit_identical(self, generator,
                                                    strided_layer,
                                                    grouped_layer):
        for layer in (strided_layer, grouped_layer):
            ifmaps, weights = generator.layer_pair(layer)
            padded = pad_input(ifmaps, layer.padding)
            whole = vectorized_layer_ofmaps(layer, padded, weights)
            for size in (1, 2, 3):
                assembled = np.zeros(layer.out_shape)
                for m_start in range(0, layer.out_channels, size):
                    m_stop = min(layer.out_channels, m_start + size)
                    vectorized_ofmap_block(layer, padded, weights,
                                           m_start, m_stop, out=assembled)
                assert np.array_equal(whole, assembled)


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
        ofmaps = vectorized_layer_ofmaps(
            layer, pad_input(ifmaps.astype(np.float64), layer.padding), weights)
        np.testing.assert_allclose(ofmaps, conv2d_direct(layer, ifmaps, weights),
                                   rtol=1e-10, atol=1e-10)


class TestNetworkRunner:
    def test_lenet5_verification_passes(self):
        result = FunctionalNetworkRunner(seed=1).run(lenet5())
        assert result.passed
        assert [stage.kind for stage in result.stages] == \
            ["conv", "pool", "conv", "pool"]
        assert result.max_abs_error == 0.0
        assert result.stats.windows_kept > 0
        assert result.chain_cycles_estimate > 0
        assert "PASSED" in result.describe()

    def test_any_nonzero_stage_error_fails(self):
        """Every stage is exact on fixed point, so the verdict takes no tolerance."""
        stages = [StageReport("c1", "conv", (1, 2, 2), 0.0, windows_kept=4),
                  StageReport("c2", "conv", (1, 2, 2), 0.0, max_abs_error=1e-12,
                              windows_kept=4)]
        result = NetworkRunResult(network="n", seed=0, total_bits=16,
                                  stages=stages)
        assert not result.passed
        assert ("functional verification FAILED: 2 conv layers, "
                "max|err|=1.00e-12 (inexact), ") in result.describe()
        result.stages.pop()
        assert result.passed

    def test_activations_are_quantized_between_stages(self):
        coarse = FunctionalNetworkRunner(seed=3, total_bits=8).run(
            tiny_test_network())
        fine = FunctionalNetworkRunner(seed=3, total_bits=16).run(
            tiny_test_network())
        # 8-bit grids change the downstream numbers; both still verify
        # against the golden model because the reference sees the same inputs
        assert coarse.passed and fine.passed
        assert coarse.stats == fine.stats

    def test_shape_mismatch_raises(self):
        broken = Network(name="broken")
        broken.add(ConvLayer("c1", 1, 2, 8, 8, kernel_size=3))
        broken.add(ConvLayer("c2", 3, 2, 6, 6, kernel_size=3))  # wants 3 channels
        with pytest.raises(WorkloadError, match="c2"):
            FunctionalNetworkRunner().run(broken)

    def test_pooling_before_conv_raises(self):
        broken = Network(name="pool-first")
        broken.add(PoolingLayer("p0", channels=2, in_height=8, in_width=8,
                                kernel_size=2, stride=2))
        with pytest.raises(WorkloadError, match="pooling"):
            FunctionalNetworkRunner().run(broken)

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
        # the running tap reduction equals the window-view reduction; on-grid
        # sums are exact in any order, so avg matches bit for bit too
        rng = np.random.default_rng(3)
        for height, width, kernel, stride in [
            (13, 13, 3, 2),   # stride < K, the AlexNet pools
            (8, 12, 2, 2),    # stride == K
            (11, 9, 3, 3),    # stride == K, ragged right and bottom edges
            (10, 7, 3, 2),    # stride < K, ragged edges
            (6, 6, 3, 1),     # stride 1
            (5, 5, 5, 2),     # one window covering the whole map
        ]:
            real = rng.normal(size=(3, height, width))
            act = choose_format(real, 16).quantize(real)
            windows = strided_windows(act, kernel, stride,
                                      (height - kernel) // stride + 1,
                                      (width - kernel) // stride + 1)
            for mode, reference in (("max", windows.max(axis=(3, 4))),
                                    ("avg", windows.mean(axis=(3, 4)))):
                spec = PoolingLayer("p", channels=3, in_height=height,
                                    in_width=width, kernel_size=kernel,
                                    stride=stride, mode=mode)
                pooled = pool2d(act, spec)
                case = (height, width, kernel, stride, mode)
                assert pooled.shape == reference.shape, case
                assert pooled.tobytes() == reference.tobytes(), case

    def test_pool2d_shape_validation(self):
        spec = PoolingLayer("p", channels=3, in_height=4, in_width=4,
                            kernel_size=2, stride=2)
        with pytest.raises(WorkloadError):
            pool2d(np.zeros((2, 4, 4)), spec)


class TestConfigSensitivity:
    def test_chain_cycles_scale_with_chain_length(self):
        layer = ConvLayer("cfg", 2, 2, 10, 10, kernel_size=3, padding=1)
        ifmaps, weights = _tensors(layer, seed=4)
        wide = FunctionalChainSimulator(ChainConfig(num_pes=576))
        narrow = FunctionalChainSimulator(ChainConfig(num_pes=36))
        cycles_wide = wide.run_layer(layer, ifmaps, weights).chain_cycles_estimate
        cycles_narrow = narrow.run_layer(layer, ifmaps, weights).chain_cycles_estimate
        assert cycles_narrow > cycles_wide

    def test_zero_active_primitives_raises(self):
        layer = ConvLayer("zero", 1, 1, 5, 5, kernel_size=3)
        simulator = FunctionalChainSimulator()
        simulator.mapper = SimpleNamespace(map_layer=lambda _: SimpleNamespace(
            channel_pairs=layer.channel_pairs(), active_primitives=0))
        ifmaps, weights = _tensors(layer)
        with pytest.raises(SimulationError, match="active"):
            simulator.run_layer(layer, ifmaps, weights)


class TestExactnessGuard:
    """Fixed point is the simulator's enforced input domain."""

    LAYER = ConvLayer("guarded", 3, 4, 9, 9, kernel_size=3, padding=1)

    def test_raw_floats_are_rejected(self):
        # off-grid reals (generated tensors are born on the grid)
        rng = np.random.default_rng(1)
        ifmaps = np.abs(rng.normal(size=self.LAYER.in_shape))
        weights = rng.normal(size=(4, 3, 3, 3))
        assert not on_fixed_point_grid(weights, 16)
        with pytest.raises(SimulationError, match=r"guarded: .*repro\.cnn\.quantize"):
            FunctionalChainSimulator().run_layer(self.LAYER, ifmaps, weights)

    def test_nan_is_rejected(self):
        ifmaps, weights = _tensors(self.LAYER)
        weights = weights.copy()
        weights[1, 0, 1, 1] = np.nan
        with pytest.raises(SimulationError, match="guarded: .*fixed point"):
            FunctionalChainSimulator().run_layer(self.LAYER, ifmaps, weights)

    def test_direct_geometry_bound(self):
        # K^2 * C/g * 2^(2*16) reaches 2^53 at K^2 * C/g = 2^21
        check_exact_accumulation("edge", 2 ** 21 - 1, 16)
        with pytest.raises(SimulationError, match="edge"):
            check_exact_accumulation("edge", 2 ** 21, 16)
        wide = ConvLayer("wide", 2 ** 21, 1, 1, 1, kernel_size=1)
        zeros = (np.zeros(wide.in_shape), np.zeros((1, 2 ** 21, 1, 1)))
        with pytest.raises(SimulationError, match=r"wide: .*2\*\*53"):
            FunctionalChainSimulator().run_layer(wide, *zeros)

    def test_winograd_geometry_bound_is_tighter(self):
        # C/g * 2^(2*16 + 9) reaches 2^53 at C/g = 2^12, while the direct
        # bound 9 * 2^12 * 2^32 < 2^53 still holds
        layer = ConvLayer("deep", 2 ** 12, 1, 4, 4, kernel_size=3)
        ifmaps = np.zeros(layer.in_shape)
        weights = np.zeros((1, 2 ** 12, 3, 3))
        simulator = FunctionalChainSimulator()
        assert not simulator.run_layer(layer, ifmaps, weights).ofmaps.any()
        with pytest.raises(SimulationError, match=r"deep: .*growth 2\*\*9"):
            simulator.run_layer(layer, ifmaps, weights, algorithm="winograd")
        shallow = layer.scaled(name="shallow", in_channels=2 ** 12 - 1)
        result = simulator.run_layer(shallow, ifmaps[1:], weights[:, 1:],
                                     algorithm="winograd")
        assert not result.ofmaps.any()

    @pytest.mark.parametrize("bits", [8, 12, 16])
    def test_every_quantised_tensor_passes(self, bits):
        rng = np.random.default_rng(bits)
        tensors = [rng.normal(0.0, scale, size=(3, 7, 7))
                   for scale in (1e-4, 0.05, 1.0, 9.0)]
        tensors.append(np.abs(rng.normal(size=(4, 5))))
        tensors.append(np.zeros((2, 2)))
        # the maximum rounds up onto a power of two: choose_format on the
        # quantised data would pick a coarser format than the one used
        lifted = np.array([1.0 - 2.0 ** -(bits + 1), -0.3, 0.2])
        tensors.append(lifted)
        for values in tensors:
            quantised = choose_format(values, bits).quantize(values)
            assert on_fixed_point_grid(quantised, bits)
            assert on_fixed_point_grid(quantised, 16)
        quantised = choose_format(lifted, bits).quantize(lifted)
        assert np.max(np.abs(quantised)) == 1.0
        coarser = choose_format(quantised, bits)
        assert coarser.frac_bits < choose_format(lifted, bits).frac_bits
        assert not np.array_equal(coarser.quantize(quantised), quantised)

    def test_off_grid_values_fail(self):
        assert not on_fixed_point_grid(np.array([1.0, 1.0 + 2.0 ** -16]), 16)
        assert on_fixed_point_grid(np.array([1.0, 1.0 + 2.0 ** -15]), 16)
        for bad in (np.inf, -np.inf, np.nan):
            assert not on_fixed_point_grid(np.array([0.5, bad]), 16)

    @pytest.mark.parametrize("algorithm", ["direct", "auto"])
    def test_alexnet_stages_are_exact(self, algorithm):
        result = FunctionalNetworkRunner(seed=4, algorithm=algorithm).run(alexnet())
        stages = result.conv_stages
        assert len(stages) == 5
        assert all(stage.max_abs_error == 0.0 for stage in stages)
        wino = {stage.name for stage in stages if stage.algorithm == "winograd"}
        assert wino == ({"conv3", "conv4", "conv5"} if algorithm == "auto" else set())


class TestOfmapBlockSizing:
    """The GEMM byte budget caps the peak allocation of both algorithms."""

    @staticmethod
    def _traced_peak(fn):
        import tracemalloc

        tracemalloc.start()
        try:
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_vgg_scale_layer_peak_memory_stays_bounded(self):
        """VGG conv2_2's 116 MB im2col patch matrix is built in row blocks."""
        layer = ConvLayer("vgg-scale", in_channels=128, out_channels=8,
                          in_height=112, in_width=112, kernel_size=3, padding=1)
        patch_bytes = (layer.in_channels * layer.kernel_size ** 2
                       * layer.out_height * layer.out_width * 8)
        # the scenario must actually engage the blocking to test anything
        assert patch_bytes > 2 * GEMM_BLOCK_BYTES

        ifmaps, weights = _tensors(layer, seed=3)
        padded = pad_input(ifmaps, layer.padding)
        ofmaps, peak = self._traced_peak(
            lambda: vectorized_layer_ofmaps(layer, padded, weights))

        bound = int(1.1 * GEMM_BLOCK_BYTES) + ofmaps.nbytes + 1024 * 1024
        assert peak <= bound, (
            f"peak {peak / 1e6:.1f} MB above the blocked bound "
            f"{bound / 1e6:.1f} MB"
        )
        assert np.array_equal(ofmaps, conv2d_im2col(layer, ifmaps, weights))

    def test_winograd_tiles_are_blocked(self):
        """A 105 MB transformed input is built a few tile rows at a time.

        Next to the zero-extended input plane and the ofmaps, one tile-row
        block holds the row- and column-transformed inputs (together within
        the budget) and the transform temporaries.
        """
        from repro.sim.winograd import winograd_ofmap_block

        layer = ConvLayer("wide-tiles", in_channels=128, out_channels=8,
                          in_height=160, in_width=160, kernel_size=3, padding=1)
        tiles = (layer.out_height // 2) * (layer.out_width // 2)
        transformed_bytes = 16 * layer.in_channels * tiles * 8
        assert transformed_bytes > 3 * GEMM_BLOCK_BYTES

        ifmaps, weights = _tensors(layer, seed=5)
        padded = pad_input(ifmaps, layer.padding)
        ofmaps = np.zeros(layer.out_shape)
        _, peak = self._traced_peak(lambda: winograd_ofmap_block(
            layer, padded, weights, 0, layer.out_channels, ofmaps))

        extended_bytes = padded.nbytes
        bound = (int(1.3 * GEMM_BLOCK_BYTES) + extended_bytes
                 + ofmaps.nbytes + 1024 * 1024)
        assert peak <= bound, (
            f"peak {peak / 1e6:.1f} MB above the blocked bound "
            f"{bound / 1e6:.1f} MB"
        )
        assert np.array_equal(ofmaps, conv2d_im2col(layer, ifmaps, weights))
