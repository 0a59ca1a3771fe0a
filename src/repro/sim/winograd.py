"""Functional Winograd F(2x2,3x3) convolution for the dataflow simulator.

The transform-domain counterpart of :mod:`repro.cnn.reference`: each 4x4
input tile ``d`` becomes ``V = B^T d B``, each 3x3 filter plane ``g``
becomes the 4x4 plane ``U = G g G^T``, the per-tile product is the
element-wise ``U (*) V`` accumulated over input channels, and the 2x2
output tile is recovered as ``Y = A^T M A``.  The hot per-group kernel is
:func:`repro.kernels.numpy_backend.winograd_group_conv`, fetched through the
module-level :func:`~repro.kernels.get_backend` on every call.

**Tolerance contract.**  The Winograd transforms reassociate the 3x3
reduction, so results are *not* bit-identical to the im2col golden (or to
the direct dataflow); they agree to float64 round-off of the accumulator
scale.  :func:`winograd_tolerance` is the documented bound —
``1e-6 * max(1, max|reference|)`` — used by every cross-check in tests,
``repro verify --algorithm winograd`` and searched-schedule verification.
Within the Winograd path itself determinism is strict: any partition of the
ofmap channels (serial, ``--workers N``) produces the same bits, so the
parallel runtime's bit-identity ladder still holds.
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
    Float64 round-off of the reassociated reduction sits orders of
    magnitude below this for every layer in the zoo; a real defect (wrong
    transform, mis-scattered tile) lands orders of magnitude above it.
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


def _extend_group(padded_group: np.ndarray, rows_ext: int,
                  cols_ext: int) -> np.ndarray:
    """Zero-extend one group's padded planes to the 4x4 tile grid extent."""
    cg, rows, cols = padded_group.shape
    ext = np.zeros((cg, rows_ext, cols_ext), dtype=np.float64)
    ext[:, :rows, :cols] = padded_group
    return ext


def winograd_ofmap_block(layer: ConvLayer, padded: np.ndarray,
                         weights: np.ndarray, m_start: int, m_stop: int,
                         out: np.ndarray) -> None:
    """Compute ofmap channels ``[m_start, m_stop)`` via Winograd tiles.

    The Winograd counterpart of
    :func:`repro.sim.functional_vectorized.vectorized_ofmap_block`:
    ``padded`` is the zero-padded ``(C, H+2P, W+2P)`` float64 input, ``out``
    the full ``(M, out_h, out_w)`` ofmap tensor (only the requested block
    is written).  Because every output channel's transform-domain
    accumulation is independent and walks input channels in ascending
    order, any block partition is bit-identical to the serial whole.
    """
    _require_eligible(layer)
    tiles_h, tiles_w = winograd_tile_grid(layer)
    rows_ext = WINOGRAD_TILE_OUT * tiles_h + 2
    cols_ext = WINOGRAD_TILE_OUT * tiles_w + 2
    backend = get_backend()
    in_per_group = layer.in_channels_per_group
    out_per_group = layer.out_channels_per_group
    for group in range(layer.groups):
        lo = max(m_start, group * out_per_group)
        hi = min(m_stop, (group + 1) * out_per_group)
        if lo >= hi:
            continue
        in_lo = group * in_per_group
        ext = _extend_group(padded[in_lo:in_lo + in_per_group],
                            rows_ext, cols_ext)
        u = transform_filters(weights[lo:hi])
        backend.winograd_group_conv(ext, u, out[lo:hi])


def conv2d_winograd(layer: ConvLayer, ifmaps: np.ndarray,
                    weights: np.ndarray,
                    bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Winograd F(2x2,3x3) formulation of the layer's convolution.

    Same signature and shapes as :func:`repro.cnn.reference.conv2d_im2col`
    (single-image CHW in, ``(M, out_h, out_w)`` float64 out); grouped
    convolutions are transformed per group.  Matches the im2col golden
    within :func:`winograd_tolerance`.
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
