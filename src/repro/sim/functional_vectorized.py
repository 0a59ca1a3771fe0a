"""Whole-array kernels of the functional (dataflow-level) simulator.

The reference oracle :func:`~repro.sim.functional.scalar_window_walk` walks
every scan window of every (ofmap, ifmap) channel pair in Python — faithful,
but tens of millions of iterations on AlexNet-scale layers.
:class:`~repro.sim.functional.FunctionalChainSimulator` instead evaluates
the same stripe/column-scan decomposition with this module's whole-array
operations:

* **Windows.**  ``sliding_window_view`` over the padded plane enumerates the
  full stride-1 window grid — the union of every stripe's valid windows —
  and a stride-grid selection (the regular-grid form of
  :func:`stride_keep_mask`) keeps exactly the windows the per-window discard
  test keeps.
* **Products.**  The kept windows of one conv group become an im2col patch
  matrix, built in output-row blocks under one byte budget, and each block
  is one ``(M/g, C/g*K^2) @ (C/g*K^2, positions)`` BLAS GEMM
  (:func:`repro.kernels.numpy_backend.ofmap_block_product`, fetched through
  the module-level :func:`~repro.kernels.get_backend` on every call).
* **Exactness.**  The simulator only accepts fixed-point operands within the
  accumulator-width guard
  (:func:`repro.hwmodel.fixed_point.check_exact_accumulation`): every
  product and partial sum is then an integer multiple of one grid step
  below ``2**53``, so the GEMM, the oracle walk and the im2col golden give
  the same bits whatever order they add in.
* **Counters.**  Whether a window exists and whether it survives the stride
  filter depends only on the layer geometry, never on pixel values, so every
  :class:`~repro.sim.functional.FunctionalRunStats` counter is a per-pair
  constant (closed form over the stripe plan) multiplied by the number of
  channel pairs.

What this path verifies that the im2col golden does not: the kept-window
selection, the group and padding assembly of the ofmaps, and the
closed-form counters.  The equivalence tests prove the stripe/column-scan
dataflow itself by comparing ofmaps and counters with the oracle walk on
small layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.cnn.reference import strided_windows
from repro.kernels import get_backend
from repro.kernels.numpy_backend import GEMM_BLOCK_BYTES


@dataclass(frozen=True)
class PairWindowStats:
    """Per-channel-pair dataflow counters implied by the stripe geometry.

    Every (ofmap, ifmap) channel pair of a layer shares the same stripe plan,
    so the layer totals of :class:`~repro.sim.functional.FunctionalRunStats`
    are these values multiplied by ``layer.channel_pairs()``.
    """

    stripes: int
    pixels_streamed: int
    primitive_cycles: int
    windows_evaluated: int
    windows_kept: int


def pair_window_stats(layer: ConvLayer,
                      stripe_height: int | None = None) -> PairWindowStats:
    """Closed-form counters for one channel pair of ``layer``.

    Mirrors the oracle walk's pair loop: stripe bases step ``stripe_height``
    (default ``K``, the paper's full stripe) over the stride-1 output rows; a
    stripe of ``rows`` input rows streams ``rows * width`` pixels over
    ``K * (width - 1) + rows`` timestamps and completes
    ``(rows - K + 1) * (width - K + 1)`` valid windows; the stride filter
    keeps the windows on the stride grid that map inside the ofmap.
    """
    k = layer.kernel_size
    height = k if stripe_height is None else stripe_height
    padded_h = layer.padded_height
    padded_w = layer.padded_width

    stripes = 0
    pixels = 0
    cycles = 0
    evaluated = 0
    for base in range(0, padded_h - k + 1, height):
        rows = min(height + k - 1, padded_h - base)
        stripes += 1
        pixels += rows * padded_w
        cycles += k * (padded_w - 1) + rows
        evaluated += (rows - k + 1) * (padded_w - k + 1)

    return PairWindowStats(
        stripes=stripes,
        pixels_streamed=pixels,
        primitive_cycles=cycles,
        windows_evaluated=evaluated,
        windows_kept=layer.out_height * layer.out_width,
    )


def stride_keep_mask(layer: ConvLayer) -> np.ndarray:
    """Boolean mask over the stride-1 window grid selecting the kept windows.

    Entry ``[r, c]`` is True iff the window whose top-left input pixel is
    ``(r, c)`` passes the oracle walk's discard test: both coordinates on the
    stride grid and the resulting output position inside the ofmap.  The True
    entries form a regular grid, which is why the compute path can use the
    equivalent zero-copy ``[::stride, ::stride]`` slicing instead of fancy
    indexing with this mask.
    """
    rows = np.arange(layer.padded_height - layer.kernel_size + 1)
    cols = np.arange(layer.padded_width - layer.kernel_size + 1)
    row_ok = (rows % layer.stride == 0) & (rows // layer.stride < layer.out_height)
    col_ok = (cols % layer.stride == 0) & (cols // layer.stride < layer.out_width)
    return row_ok[:, None] & col_ok[None, :]


def vectorized_layer_ofmaps(layer: ConvLayer, padded: np.ndarray,
                            weights: np.ndarray) -> np.ndarray:
    """Float64 ofmaps of the whole layer (see :func:`vectorized_ofmap_block`).

    ``padded`` is the zero-padded ``(C, Hp, Wp)`` input, ``weights`` the
    ``(M, C/groups, K, K)`` kernels.
    """
    ofmaps = np.zeros(layer.out_shape, dtype=np.float64)
    vectorized_ofmap_block(layer, padded, weights, 0, layer.out_channels,
                           out=ofmaps)
    return ofmaps


def vectorized_ofmap_block(layer: ConvLayer, padded: np.ndarray,
                           weights: np.ndarray, m_start: int, m_stop: int,
                           out: np.ndarray) -> None:
    """Compute ofmap channels ``[m_start, m_stop)`` into ``out``.

    Each conv group's kept windows become an im2col patch matrix, built in
    output-row blocks within
    :data:`~repro.kernels.numpy_backend.GEMM_BLOCK_BYTES`, and each block is
    one GEMM (:func:`repro.kernels.numpy_backend.ofmap_block_product`).
    ``out`` must be the full C-contiguous ``layer.out_shape`` float64
    tensor; only ``[m_start, m_stop)`` planes are written.  On operands
    within the accumulator-width guard every sum is exact, so any partition
    of the channel range gives the same bits as the whole layer.
    """
    if not (0 <= m_start <= m_stop <= layer.out_channels):
        raise ValueError(
            f"{layer.name}: ofmap block [{m_start}, {m_stop}) outside "
            f"[0, {layer.out_channels})"
        )
    backend = get_backend()
    k = layer.kernel_size
    out_h = layer.out_height
    in_per_group = layer.in_channels_per_group
    out_per_group = layer.out_channels_per_group
    # (C, out_h, out_w, K, K) zero-copy view of the kept windows: the
    # stride-grid subset (regular-grid form of stride_keep_mask) of the
    # stride-1 window grid every stripe's valid windows union to
    kept = strided_windows(padded, k, layer.stride, out_h, layer.out_width)
    patch_rows = in_per_group * k * k
    rows = max(1, GEMM_BLOCK_BYTES // (patch_rows * layer.out_width * 8))
    for group in range(layer.groups):
        lo = max(m_start, group * out_per_group)
        hi = min(m_stop, (group + 1) * out_per_group)
        if lo >= hi:
            continue
        c0 = group * in_per_group
        windows = kept[c0:c0 + in_per_group]
        kernel_matrix = weights[lo:hi].reshape(hi - lo, patch_rows)
        for r0 in range(0, out_h, rows):
            # (C/g*K*K, rows*out_w) patch matrix, rows in (channel, i, j)
            # order like the kernel matrix's columns; passed as a temporary
            # so it is released before the next block's copy allocates
            backend.ofmap_block_product(
                windows[:, r0:r0 + rows].transpose(0, 3, 4, 1, 2).reshape(
                    patch_rows, -1),
                kernel_matrix, out[lo:hi, r0:r0 + rows].reshape(hi - lo, -1))

