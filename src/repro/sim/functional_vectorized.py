"""Vectorized NumPy backend of the functional (dataflow-level) simulator.

The scalar path of :class:`~repro.sim.functional.FunctionalChainSimulator`
walks every scan window of every (ofmap, ifmap) channel pair in Python —
faithful, but tens of millions of iterations on AlexNet-scale layers.  This
module evaluates the same stripe/column-scan decomposition as whole-array
operations:

* **Windows.**  ``sliding_window_view`` over the padded plane enumerates the
  full stride-1 window grid — the union of every stripe's valid windows —
  and a stride-grid selection (the regular-grid form of
  :func:`stride_keep_mask`) keeps exactly the windows the per-window discard
  test keeps.
* **Dot products.**  One broadcasted multiply per (ifmap channel, ofmap
  block) followed by a sum over the merged kernel axis reproduces the scalar
  ``np.sum(window * kernel)`` *bit-exactly*: the product array is contiguous
  and the reduction runs over the same ``K^2`` contiguous elements with the
  same pairwise-summation order NumPy uses for the per-window sum.  (Summing
  over ``axis=(-2, -1)`` without the merge is **not** bit-identical — NumPy
  reduces the axes separately, reassociating the additions.)
* **Accumulation.**  Channel contributions are added into the ofmaps one
  ifmap channel at a time, in ascending channel order — the same float64
  addition order as the scalar pair loop — so the result is bit-identical,
  not merely allclose.
* **Counters.**  Whether a window exists and whether it survives the stride
  filter depends only on the layer geometry, never on pixel values, so every
  :class:`~repro.sim.functional.FunctionalRunStats` counter is a per-pair
  constant (closed form over the stripe plan) multiplied by the number of
  channel pairs.
* **Kernels.**  The per-block multiply/reduce/accumulate itself is
  :func:`repro.kernels.numpy_backend.ofmap_block_product`, fetched through
  the module-level :func:`~repro.kernels.get_backend` on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.cnn.reference import strided_windows
from repro.kernels import get_backend

#: byte budget for one broadcasted (ofmap block, windows, K, K) product; keeps
#: the materialised array small on wide layers (e.g. VGG 224x224 inputs).
_PRODUCT_BLOCK_BYTES = 64 * 1024 * 1024


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

    Mirrors the scalar pair loop: stripe bases step ``stripe_height``
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

    kept_rows = min(layer.out_height, (padded_h - k) // layer.stride + 1)
    kept_cols = min(layer.out_width, (padded_w - k) // layer.stride + 1)
    return PairWindowStats(
        stripes=stripes,
        pixels_streamed=pixels,
        primitive_cycles=cycles,
        windows_evaluated=evaluated,
        windows_kept=kept_rows * kept_cols,
    )


def stride_keep_mask(layer: ConvLayer) -> np.ndarray:
    """Boolean mask over the stride-1 window grid selecting the kept windows.

    Entry ``[r, c]`` is True iff the window whose top-left input pixel is
    ``(r, c)`` passes the scalar discard test: both coordinates on the stride
    grid and the resulting output position inside the ofmap.  The True
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
    """Float64 ofmaps of the whole layer, bit-identical to the scalar path.

    ``padded`` is the zero-padded ``(C, Hp, Wp)`` float64 input, ``weights``
    the ``(M, C/groups, K, K)`` float64 kernels.  Ofmap blocks are sized so
    the broadcasted product stays within :data:`_PRODUCT_BLOCK_BYTES`.
    """
    ofmaps = np.zeros(layer.out_shape, dtype=np.float64)
    vectorized_ofmap_block(layer, padded, weights, 0, layer.out_channels,
                           out=ofmaps)
    return ofmaps


def vectorized_ofmap_block(layer: ConvLayer, padded: np.ndarray,
                           weights: np.ndarray, m_start: int, m_stop: int,
                           out: np.ndarray) -> None:
    """Compute ofmap channels ``[m_start, m_stop)`` into ``out``.

    Every ofmap channel is an independent broadcast-multiply / merged-axis
    reduction accumulated over ascending ifmap channels, so any partition of
    the channel range — including the parallel runtime's per-worker blocks —
    produces values bit-identical to the whole-layer computation.  ``out``
    must be the full ``layer.out_shape`` float64 tensor (a shared-memory
    assembly buffer in the parallel path); only ``[m_start, m_stop)`` planes
    are written.
    """
    backend = get_backend()
    k = layer.kernel_size
    stride = layer.stride
    out_h = layer.out_height
    out_w = layer.out_width
    in_per_group = layer.in_channels_per_group
    out_per_group = layer.out_channels_per_group
    if not (0 <= m_start <= m_stop <= layer.out_channels):
        raise ValueError(
            f"{layer.name}: ofmap block [{m_start}, {m_stop}) outside "
            f"[0, {layer.out_channels})"
        )

    # (C, out_h, out_w, K, K) zero-copy view of the kept windows: the
    # stride-grid subset (regular-grid form of stride_keep_mask) of the
    # stride-1 window grid every stripe's valid windows union to
    kept = strided_windows(padded, k, stride, out_h, out_w)

    m_block = max(1, _PRODUCT_BLOCK_BYTES // max(1, out_h * out_w * k * k * 8))
    for group in range(layer.groups):
        # this group's slice of the requested block, in group-local indices
        lo = max(m_start, group * out_per_group) - group * out_per_group
        hi = min(m_stop, (group + 1) * out_per_group) - group * out_per_group
        if lo >= hi:
            continue
        c0 = group * in_per_group
        m0 = group * out_per_group
        out_group = out[m0:m0 + out_per_group]
        # ifmap channels accumulate outermost, in ascending order — the same
        # float64 addition order as the scalar (pair-at-a-time) loop
        for c_local in range(in_per_group):
            # one contiguous copy of the channel's kept windows: the strided
            # view has K*K-strided inner axes that slow every broadcasted
            # multiply over the ofmap block
            plane_windows = np.ascontiguousarray(kept[c0 + c_local])
            for m_base in range(lo, hi, m_block):
                m_top = min(hi, m_base + m_block)
                kernels = weights[m0 + m_base:m0 + m_top, c_local]
                backend.ofmap_block_product(plane_windows, kernels,
                                            out_group[m_base:m_top])


def ofmap_block_ranges(layer: ConvLayer, blocks: int) -> list:
    """Split the ofmap channel axis into at most ``blocks`` contiguous ranges.

    Used by the parallel verification path to fan one layer's simulation out
    over workers; any partition yields bit-identical values (see
    :func:`vectorized_ofmap_block`), so the block count is free to track the
    worker count.
    """
    channels = layer.out_channels
    blocks = max(1, min(blocks, channels))
    size = -(-channels // blocks)
    return [(start, min(channels, start + size))
            for start in range(0, channels, size)]
