"""Tests for the NumPy golden-model convolutions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cnn import reference
from repro.cnn.generator import WorkloadGenerator
from repro.cnn.layer import ConvLayer
from repro.cnn.reference import (
    conv2d_direct,
    conv2d_im2col,
    conv2d_single_channel,
    pad_input,
)
from repro.errors import SimulationError, WorkloadError
from repro.sim import functional_vectorized
from repro.sim.cycle import CycleAccurateChainSimulator
from repro.sim.functional_vectorized import vectorized_layer_ofmaps


class TestPadding:
    def test_zero_padding_is_identity(self):
        data = np.arange(12.0).reshape(1, 3, 4)
        assert np.array_equal(pad_input(data, 0), data)

    def test_padding_adds_zero_border(self):
        data = np.ones((2, 3, 3))
        padded = pad_input(data, 1)
        assert padded.shape == (2, 5, 5)
        assert padded[:, 0, :].sum() == 0
        assert padded[:, :, -1].sum() == 0
        assert padded[:, 1:-1, 1:-1].sum() == pytest.approx(data.sum())


class TestSingleChannel:
    def test_identity_kernel(self):
        ifmap = np.arange(25.0).reshape(5, 5)
        kernel = np.zeros((3, 3))
        kernel[1, 1] = 1.0
        out = conv2d_single_channel(ifmap, kernel)
        assert np.array_equal(out, ifmap[1:4, 1:4])

    def test_box_filter_sum(self):
        ifmap = np.ones((4, 4))
        kernel = np.ones((3, 3))
        out = conv2d_single_channel(ifmap, kernel)
        assert np.all(out == 9.0)

    def test_stride(self):
        ifmap = np.arange(36.0).reshape(6, 6)
        kernel = np.ones((3, 3))
        out = conv2d_single_channel(ifmap, kernel, stride=2)
        assert out.shape == (2, 2)

    def test_padding(self):
        ifmap = np.ones((3, 3))
        kernel = np.ones((3, 3))
        out = conv2d_single_channel(ifmap, kernel, padding=1)
        assert out.shape == (3, 3)
        assert out[1, 1] == pytest.approx(9.0)
        assert out[0, 0] == pytest.approx(4.0)

    def test_rejects_non_square_kernel(self):
        with pytest.raises(WorkloadError):
            conv2d_single_channel(np.ones((4, 4)), np.ones((2, 3)))

    def test_rejects_oversized_kernel(self):
        with pytest.raises(WorkloadError):
            conv2d_single_channel(np.ones((2, 2)), np.ones((3, 3)))


class TestMultiChannel:
    def _layer_and_tensors(self, seed=0, **kwargs):
        defaults = dict(in_channels=3, out_channels=4, in_height=8, in_width=8, kernel_size=3)
        defaults.update(kwargs)
        layer = ConvLayer("ref", **defaults)
        gen = WorkloadGenerator(seed=seed)
        return layer, *gen.layer_pair(layer)

    def test_direct_matches_im2col(self):
        layer, ifmaps, weights = self._layer_and_tensors(padding=1)
        direct = conv2d_direct(layer, ifmaps, weights)
        im2col = conv2d_im2col(layer, ifmaps, weights)
        np.testing.assert_allclose(direct, im2col, rtol=1e-12, atol=1e-12)

    def test_direct_matches_im2col_with_stride_and_groups(self):
        layer, ifmaps, weights = self._layer_and_tensors(
            in_channels=4, out_channels=4, groups=2, stride=2, in_height=11, in_width=11)
        np.testing.assert_allclose(
            conv2d_direct(layer, ifmaps, weights),
            conv2d_im2col(layer, ifmaps, weights),
            rtol=1e-12, atol=1e-12)

    def test_output_shape(self):
        layer, ifmaps, weights = self._layer_and_tensors(padding=1)
        assert conv2d_direct(layer, ifmaps, weights).shape == layer.out_shape

    def test_bias_is_added_per_channel(self):
        layer, ifmaps, weights = self._layer_and_tensors()
        bias = np.arange(layer.out_channels, dtype=np.float64)
        with_bias = conv2d_direct(layer, ifmaps, weights, bias=bias)
        without = conv2d_direct(layer, ifmaps, weights)
        for m in range(layer.out_channels):
            np.testing.assert_allclose(with_bias[m] - without[m], bias[m])

    def test_grouped_convolution_ignores_other_group(self):
        # zeroing group 1's input must not change group 0's output
        layer, ifmaps, weights = self._layer_and_tensors(
            in_channels=4, out_channels=4, groups=2)
        full = conv2d_direct(layer, ifmaps, weights)
        modified = ifmaps.copy()
        modified[2:] = 0.0
        partial = conv2d_direct(layer, modified, weights)
        np.testing.assert_allclose(full[:2], partial[:2])

    def test_linearity_in_the_input(self):
        layer, ifmaps, weights = self._layer_and_tensors(padding=1)
        doubled = conv2d_direct(layer, 2.0 * ifmaps, weights)
        np.testing.assert_allclose(doubled, 2.0 * conv2d_direct(layer, ifmaps, weights))

    def test_shape_validation(self):
        layer, ifmaps, weights = self._layer_and_tensors()
        with pytest.raises(WorkloadError):
            conv2d_direct(layer, ifmaps[:, :-1, :], weights)
        with pytest.raises(WorkloadError):
            conv2d_direct(layer, ifmaps, weights[:, :, :-1, :])


class TestHypothesisProperties:
    @given(
        kernel=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_direct_equals_im2col_for_random_geometry(self, kernel, extra, seed):
        size = kernel + extra
        layer = ConvLayer("prop", in_channels=2, out_channels=2, in_height=size,
                          in_width=size, kernel_size=kernel)
        gen = WorkloadGenerator(seed=seed)
        ifmaps, weights = gen.layer_pair(layer)
        np.testing.assert_allclose(
            conv2d_direct(layer, ifmaps, weights),
            conv2d_im2col(layer, ifmaps, weights),
            rtol=1e-10, atol=1e-10)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_delta_kernel_extracts_input(self, seed):
        layer = ConvLayer("delta", in_channels=1, out_channels=1, in_height=7, in_width=7,
                          kernel_size=3)
        gen = WorkloadGenerator(seed=seed)
        ifmaps = gen.ifmaps(layer)
        weights = np.zeros((1, 1, 3, 3))
        weights[0, 0, 0, 0] = 1.0
        out = conv2d_direct(layer, ifmaps, weights)
        np.testing.assert_allclose(out[0], ifmaps[0, :5, :5])


def _per_pixel_conv(layer, ifmaps, weights):
    """Loop oracle: one window dot product per output pixel and channel."""
    padded = pad_input(ifmaps, layer.padding)
    k, s = layer.kernel_size, layer.stride
    in_per_group = layer.in_channels_per_group
    out = np.zeros(layer.out_shape)
    for m in range(layer.out_channels):
        c0 = m // layer.out_channels_per_group * in_per_group
        for r in range(layer.out_height):
            for c in range(layer.out_width):
                window = padded[c0:c0 + in_per_group, r * s:r * s + k, c * s:c * s + k]
                out[m, r, c] = np.sum(window * weights[m])
    return out


def _block_bytes(layer, rows):
    """A golden block budget that holds exactly ``rows`` output rows."""
    return rows * layer.in_channels_per_group * layer.kernel_size ** 2 * layer.out_width * 8


class TestBlockedGoldensAreExact:
    """Both goldens are the same exact GEMM, whatever the row blocking."""

    @given(
        kernel=st.integers(min_value=1, max_value=11),
        stride=st.sampled_from([1, 2, 4]),
        padding=st.integers(min_value=0, max_value=2),
        groups=st.sampled_from([1, 2]),
        in_per_group=st.integers(min_value=1, max_value=3),
        out_per_group=st.integers(min_value=1, max_value=3),
        extra_h=st.integers(min_value=0, max_value=9),
        extra_w=st.integers(min_value=0, max_value=9),
        block_rows=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=1000),
    )
    # ragged last blocks every run: 5 output rows in 3-row blocks (grouped,
    # padded, stride 2) and 3 rows in 2-row blocks (conv1-like K=11, stride 4)
    @example(kernel=3, stride=2, padding=1, groups=2, in_per_group=2, out_per_group=3,
             extra_h=8, extra_w=3, block_rows=3, seed=7)
    @example(kernel=11, stride=4, padding=0, groups=1, in_per_group=3, out_per_group=2,
             extra_h=9, extra_w=0, block_rows=2, seed=8)
    @settings(max_examples=80, deadline=None)
    def test_direct_equals_im2col_on_fixed_point(self, kernel, stride, padding, groups,
                                                 in_per_group, out_per_group, extra_h,
                                                 extra_w, block_rows, seed):
        base = max(1, kernel - 2 * padding)
        layer = ConvLayer("fx", in_channels=groups * in_per_group,
                          out_channels=groups * out_per_group,
                          in_height=base + extra_h, in_width=base + extra_w,
                          kernel_size=kernel, stride=stride, padding=padding,
                          groups=groups)
        ifmaps, weights = WorkloadGenerator(seed=seed).layer_pair(layer)
        with pytest.MonkeyPatch.context() as patch:
            # a few output rows per block: multi-block, often a ragged last block
            patch.setattr(reference, "GOLDEN_BLOCK_BYTES", _block_bytes(layer, block_rows))
            direct = conv2d_direct(layer, ifmaps, weights)
            im2col = conv2d_im2col(layer, ifmaps, weights)
        assert np.array_equal(direct, im2col)
        assert np.array_equal(direct, conv2d_direct(layer, ifmaps, weights))
        assert np.array_equal(direct, _per_pixel_conv(layer, ifmaps, weights))


def _swap_kernel_axes(windows_fn):
    """A broken window selector: every window transposed."""
    def broken(*args, **kwargs):
        return windows_fn(*args, **kwargs).swapaxes(-1, -2)
    return broken


class TestDirectIsAnIndependentWitness:
    """``conv2d_direct`` shares no window code with the simulators."""

    LAYER = ConvLayer("witness", in_channels=4, out_channels=4, in_height=11,
                      in_width=9, kernel_size=3, stride=2, padding=1, groups=2)

    def test_swapped_window_axes_fool_im2col_but_not_direct(self, monkeypatch):
        layer = self.LAYER
        ifmaps, weights = WorkloadGenerator(seed=11).layer_pair(layer)
        padded = pad_input(ifmaps, layer.padding)
        assert np.array_equal(vectorized_layer_ofmaps(layer, padded, weights),
                              conv2d_direct(layer, ifmaps, weights))

        for module in (reference, functional_vectorized):
            monkeypatch.setattr(module, "strided_windows",
                                _swap_kernel_axes(module.strided_windows))
        broken = vectorized_layer_ofmaps(layer, padded, weights)
        assert np.array_equal(conv2d_im2col(layer, ifmaps, weights), broken)
        assert not np.array_equal(conv2d_direct(layer, ifmaps, weights), broken)
        with pytest.raises(SimulationError, match="deviates from reference"):
            CycleAccurateChainSimulator().run_layer(layer, ifmaps, weights)


class TestGoldenMemoryIsBlocked:
    @pytest.mark.parametrize("golden", [conv2d_direct, conv2d_im2col])
    def test_peak_is_input_ofmaps_and_one_block(self, golden):
        import tracemalloc

        layer = ConvLayer("blocked", in_channels=64, out_channels=16, in_height=64,
                          in_width=64, kernel_size=3, padding=1)
        patch_bytes = (layer.in_channels * layer.kernel_size ** 2
                       * layer.out_height * layer.out_width * 8)
        # the patch matrix must span several blocks to test anything
        assert patch_bytes > 4 * reference.GOLDEN_BLOCK_BYTES
        ifmaps, weights = WorkloadGenerator(seed=3).layer_pair(layer)

        tracemalloc.start()
        try:
            ofmaps = golden(layer, ifmaps, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        padded_bytes = pad_input(ifmaps, layer.padding).nbytes
        bound = padded_bytes + ofmaps.nbytes + reference.GOLDEN_BLOCK_BYTES + 1024 * 1024
        assert peak <= bound, (
            f"peak {peak / 1e6:.1f} MB above the blocked bound {bound / 1e6:.1f} MB"
        )
