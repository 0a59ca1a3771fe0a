"""Functional Winograd F(2x2,3x3) convolution for the dataflow simulator.

The transform-domain counterpart of :mod:`repro.cnn.reference`: each 4x4
input tile ``d`` becomes ``V = B^T d B``, each 3x3 filter plane ``g``
becomes the 4x4 plane ``U = G g G^T``, the element-wise products
``U (*) V`` summed over input channels are 16 batched GEMMs, one per
transform-domain position (Lavin & Gray, arXiv:1509.09308), and the 2x2
output tile is recovered as ``Y = A^T M A``.  The hot per-group kernel is
:func:`repro.kernels.numpy_backend.winograd_group_conv`, fetched through the
module-level :func:`~repro.kernels.get_backend` on every call.

**Exactness.**  The transforms grow magnitudes by at most
``4 * 9 * 9 = 324 < 2**9`` (``WINOGRAD_GROWTH_BITS``).  On fixed-point
operands within the accumulator-width guard that includes this growth
(:func:`~repro.hwmodel.fixed_point.check_exact_accumulation`), every
transform, product and sum is exact in float64: the result equals the
im2col golden bit for bit, and any partition of the ofmap channels
produces the same bits.  :func:`winograd_tolerance`,
``1e-6 * max(1, max|reference|)``, is the documented bound of
:func:`conv2d_winograd` on raw floats, where the reassociated reduction
rounds differently from im2col.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.winograd import (
    WINOGRAD_RELATIVE_TOLERANCE,
    WINOGRAD_TILE_OUT,
    winograd_eligible,
    winograd_tile_grid,
)
from repro.cnn.layer import ConvLayer
from repro.cnn.reference import _check_shapes, pad_input
from repro.errors import ConfigurationError
from repro.kernels import get_backend

__all__ = [
    "conv2d_winograd",
    "transform_filters",
    "winograd_ofmap_block",
    "winograd_tolerance",
    "winograd_eligible",
]


def winograd_tolerance(reference: np.ndarray) -> float:
    """The documented absolute tolerance vs the im2col golden.

    Relative to the accumulator scale: ``1e-6 * max(1, max|reference|)``.
    On raw floats the round-off of the reassociated reduction sits orders
    of magnitude below this for every layer in the zoo (on fixed-point
    operands the error is 0); a real defect (wrong transform, mis-scattered
    tile) lands orders of magnitude above it.
    """
    scale = float(np.max(np.abs(reference))) if reference.size else 0.0
    return WINOGRAD_RELATIVE_TOLERANCE * max(1.0, scale)


def transform_filters(weights: np.ndarray) -> np.ndarray:
    """``G g G^T`` for every 3x3 plane of ``weights`` (..., 3, 3) -> (..., 4, 4).

    Computed once per layer in float64 — multiplications by G's 0.5
    entries are exact (power-of-two scaling), so the transformed planes are
    identical however they are consumed.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[-2:] != (3, 3):
        raise ConfigurationError(
            f"winograd filter transform needs 3x3 planes, got {w.shape[-2:]}")
    g0 = w[..., 0, :]
    g1 = w[..., 1, :]
    g2 = w[..., 2, :]
    a = np.empty(w.shape[:-2] + (4, 3), dtype=np.float64)
    a[..., 0, :] = g0
    a[..., 1, :] = ((g0 + g1) + g2) * 0.5
    a[..., 2, :] = ((g0 - g1) + g2) * 0.5
    a[..., 3, :] = g2
    u = np.empty(w.shape[:-2] + (4, 4), dtype=np.float64)
    u[..., 0] = a[..., 0]
    u[..., 1] = ((a[..., 0] + a[..., 1]) + a[..., 2]) * 0.5
    u[..., 2] = ((a[..., 0] - a[..., 1]) + a[..., 2]) * 0.5
    u[..., 3] = a[..., 2]
    return u


def _require_eligible(layer: ConvLayer) -> None:
    if not winograd_eligible(layer):
        raise ConfigurationError(
            f"{layer.name}: Winograd F(2x2,3x3) needs kernel_size=3 and "
            f"stride=1, got K={layer.kernel_size} S={layer.stride}")


def winograd_ofmap_block(layer: ConvLayer, padded: np.ndarray,
                         weights: np.ndarray, m_start: int, m_stop: int,
                         out: np.ndarray) -> None:
    """Compute ofmap channels ``[m_start, m_stop)`` via Winograd tiles.

    The Winograd counterpart of
    :func:`repro.sim.functional_vectorized.vectorized_ofmap_block`:
    ``padded`` is the zero-padded ``(C, H+2P, W+2P)`` float64 input, ``out``
    the full ``(M, out_h, out_w)`` ofmap tensor (only the requested block
    is written).  Every output channel is computed independently and
    exactly, so any block partition is bit-identical to the serial whole.
    """
    _require_eligible(layer)
    tiles_h, tiles_w = winograd_tile_grid(layer)
    # zero-extend the padded planes to the 4x4 tile grid's extent
    ext = np.pad(padded, ((0, 0),
                          (0, WINOGRAD_TILE_OUT * tiles_h + 2 - layer.padded_height),
                          (0, WINOGRAD_TILE_OUT * tiles_w + 2 - layer.padded_width)))
    backend = get_backend()
    in_per_group = layer.in_channels_per_group
    out_per_group = layer.out_channels_per_group
    for group in range(layer.groups):
        lo = max(m_start, group * out_per_group)
        hi = min(m_stop, (group + 1) * out_per_group)
        if lo >= hi:
            continue
        in_lo = group * in_per_group
        backend.winograd_group_conv(ext[in_lo:in_lo + in_per_group],
                                    transform_filters(weights[lo:hi]),
                                    out[lo:hi])


def conv2d_winograd(layer: ConvLayer, ifmaps: np.ndarray,
                    weights: np.ndarray,
                    bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Winograd F(2x2,3x3) formulation of the layer's convolution.

    Same signature and shapes as :func:`repro.cnn.reference.conv2d_im2col`
    (single-image CHW in, ``(M, out_h, out_w)`` float64 out); grouped
    convolutions are transformed per group.  Equals the im2col golden on
    fixed-point operands within the Winograd accumulator-width guard.
    """
    _require_eligible(layer)
    _check_shapes(layer, ifmaps, weights)
    padded = pad_input(np.asarray(ifmaps, dtype=np.float64), layer.padding)
    out = np.zeros((layer.out_channels, layer.out_height, layer.out_width),
                   dtype=np.float64)
    winograd_ofmap_block(layer, padded, weights, 0, layer.out_channels, out)
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out
