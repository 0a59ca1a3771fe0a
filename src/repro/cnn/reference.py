"""Golden-model convolution in NumPy.

The paper checks RTL outputs on-the-fly against a software simulator; this
module plays that role.  Both goldens are the same blocked GEMM: for each
channel group and block of output rows, a ``(C/g*K*K, rows*E_w)`` patch
block is multiplied by the group's ``(M/g, C/g*K*K)`` kernel matrix straight
into the ofmap slice, so one call holds the padded input, the ofmaps and one
block of at most :data:`GOLDEN_BLOCK_BYTES`.  They differ only in how the
patch block is indexed:

* :func:`conv2d_direct` copies it tap by tap, from the ``K*K`` plain strided
  slices ``x[:, s*r0+i : ... : s, j : ... : s]`` of the padded input;
* :func:`conv2d_im2col` reshapes the :func:`strided_windows` view.

The simulators select their windows with :func:`strided_windows` too, so a
defect in that view shows in a simulator and in the im2col golden alike;
:func:`conv2d_direct` shares no window code with them and is the independent
witness (the cycle engine's on-the-fly check).  On 16-bit fixed-point
operands within the accumulator-width guard every sum is exact in any order,
so the two goldens give the same bits.  Both take single images in CHW
layout and support stride, zero padding and channel groups.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.cnn.layer import ConvLayer
from repro.errors import WorkloadError
from repro.kernels.numpy_backend import GEMM_BLOCK_BYTES

#: byte budget of one golden patch block (1/8 of the simulators' GEMM block,
#: so the golden adds little to a simulator's peak memory)
GOLDEN_BLOCK_BYTES = GEMM_BLOCK_BYTES // 8


def pad_input(ifmaps: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad a CHW tensor on both spatial borders."""
    if padding == 0:
        return ifmaps
    return np.pad(ifmaps, ((0, 0), (padding, padding), (padding, padding)), mode="constant")


def strided_windows(array: np.ndarray, kernel_size: int, stride: int,
                    out_height: int, out_width: int) -> np.ndarray:
    """Zero-copy ``(..., out_h, out_w, K, K)`` view of the stride-grid windows.

    ``array``'s last two axes are the (padded) spatial dimensions; grid
    position ``(r, c)`` holds the window whose top-left pixel is
    ``(r * stride, c * stride)``.  This is the window selection the im2col
    golden and the vectorized functional backend share;
    :func:`conv2d_direct` does not use it.
    """
    windows = sliding_window_view(array, (kernel_size, kernel_size), axis=(-2, -1))
    windows = windows[..., ::stride, ::stride, :, :]
    return windows[..., :out_height, :out_width, :, :]


def _check_shapes(layer: ConvLayer, ifmaps: np.ndarray, weights: np.ndarray) -> None:
    expected_in = (layer.in_channels, layer.in_height, layer.in_width)
    if ifmaps.shape != expected_in:
        raise WorkloadError(
            f"{layer.name}: ifmaps shape {ifmaps.shape} does not match layer {expected_in}"
        )
    expected_w = (
        layer.out_channels,
        layer.in_channels_per_group,
        layer.kernel_size,
        layer.kernel_size,
    )
    if weights.shape != expected_w:
        raise WorkloadError(
            f"{layer.name}: weight shape {weights.shape} does not match layer {expected_w}"
        )


def _blocked_conv(
    layer: ConvLayer,
    ifmaps: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    patch_block: Callable[[ConvLayer, np.ndarray, int, int], np.ndarray],
) -> np.ndarray:
    """The goldens' shared GEMM loop, blocked by output rows.

    ``patch_block(layer, group_input, r0, r1)`` returns the
    ``(C/g*K*K, (r1 - r0)*E_w)`` patches of one group's padded input for
    output rows ``[r0, r1)``: rows in (channel, i, j) order like the kernel
    matrix's columns, columns in row-major output order.
    """
    _check_shapes(layer, ifmaps, weights)
    padded = pad_input(np.asarray(ifmaps, dtype=np.float64), layer.padding)
    weights = np.asarray(weights, dtype=np.float64)
    out = np.empty(layer.out_shape, dtype=np.float64)
    in_per_group = layer.in_channels_per_group
    out_per_group = layer.out_channels_per_group
    patch_rows = in_per_group * layer.kernel_size ** 2
    rows = max(1, GOLDEN_BLOCK_BYTES // (patch_rows * layer.out_width * 8))
    for group in range(layer.groups):
        in_lo = group * in_per_group
        out_lo = group * out_per_group
        group_input = padded[in_lo:in_lo + in_per_group]
        kernel_matrix = weights[out_lo:out_lo + out_per_group].reshape(
            out_per_group, patch_rows)
        for r0 in range(0, layer.out_height, rows):
            r1 = min(r0 + rows, layer.out_height)
            # the block is a temporary, released before the next one allocates
            np.matmul(kernel_matrix, patch_block(layer, group_input, r0, r1),
                      out=out[out_lo:out_lo + out_per_group, r0:r1].reshape(
                          out_per_group, -1))
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


def _tap_patches(layer: ConvLayer, group_input: np.ndarray,
                 r0: int, r1: int) -> np.ndarray:
    """Patch block copied from the ``K*K`` kernel-tap slices of the input."""
    kernel = layer.kernel_size
    stride = layer.stride
    channels = group_input.shape[0]
    cols = stride * (layer.out_width - 1) + 1
    block = np.empty((channels, kernel, kernel, r1 - r0, layer.out_width),
                     dtype=np.float64)
    for i in range(kernel):
        tap_rows = slice(stride * r0 + i, stride * (r1 - 1) + i + 1, stride)
        for j in range(kernel):
            block[:, i, j] = group_input[:, tap_rows, j:j + cols:stride]
    return block.reshape(channels * kernel * kernel, -1)


def _window_patches(layer: ConvLayer, group_input: np.ndarray,
                    r0: int, r1: int) -> np.ndarray:
    """Patch block reshaped from the :func:`strided_windows` view."""
    kernel = layer.kernel_size
    # (C/g, E, E_w, K, K) zero-copy window view on the output stride grid
    windows = strided_windows(group_input, kernel, layer.stride,
                              layer.out_height, layer.out_width)
    return windows[:, r0:r1].transpose(0, 3, 4, 1, 2).reshape(
        group_input.shape[0] * kernel * kernel, -1)


def conv2d_direct(layer: ConvLayer, ifmaps: np.ndarray, weights: np.ndarray,
                  bias: np.ndarray | None = None) -> np.ndarray:
    """Direct 2D convolution: patches gathered from kernel-tap slices.

    Parameters
    ----------
    layer:
        Geometry description.
    ifmaps:
        ``(C, H, W)`` input tensor.
    weights:
        ``(M, C/groups, K, K)`` kernel tensor.
    bias:
        Optional ``(M,)`` bias vector.

    Returns
    -------
    ``(M, E, E_w)`` output tensor (float64).
    """
    return _blocked_conv(layer, ifmaps, weights, bias, _tap_patches)


def conv2d_im2col(layer: ConvLayer, ifmaps: np.ndarray, weights: np.ndarray,
                  bias: np.ndarray | None = None) -> np.ndarray:
    """im2col formulation of the same convolution (:func:`strided_windows`)."""
    return _blocked_conv(layer, ifmaps, weights, bias, _window_patches)


def conv2d_single_channel(ifmap: np.ndarray, kernel: np.ndarray, stride: int = 1,
                          padding: int = 0) -> np.ndarray:
    """Single-channel 2D convolution used to validate one systolic primitive.

    ``ifmap`` is ``(H, W)``; ``kernel`` is ``(K, K)``.  This is the exact
    operation one 1D systolic primitive computes per (ofmap channel, ifmap
    channel) pair before cross-channel accumulation: a one-in, one-out
    :func:`conv2d_direct`.
    """
    ifmap = np.asarray(ifmap, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise WorkloadError(f"kernel must be square 2D, got shape {kernel.shape}")
    layer = ConvLayer("single_channel", 1, 1, *ifmap.shape,
                      kernel_size=kernel.shape[0], stride=stride, padding=padding)
    return conv2d_direct(layer, ifmap[None], kernel[None, None])[0]
