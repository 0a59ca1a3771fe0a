"""Array form of the cycle-accurate chain simulator.

The register-accurate oracle (:mod:`repro.sim.cycle.oracle`) ticks every PE
of a systolic primitive in Python, which limits it to tiny layers.  This
module replays the *same* execution — channel pairs, stripes, column-wise
scan, stride filtering — with whole-array integer operations, producing the
oracle's raw ofmaps bit for bit and its
:class:`~repro.sim.cycle.engine.CycleSimStats` counters exactly at a
fraction of the cost, so full AlexNet-scale layers become cycle-verifiable.

Two observations make this possible:

* **Outputs.**  Every *valid* window of a stripe (starting row among the
  stripe's output rows, starting column leaving room for ``K`` columns) sees
  all of its ``K^2`` pixels, so its raw value is the exact integer dot
  product of the window with the kernel.  The stripes partition the stride-1
  output rows exactly, hence the union of all valid windows of a pair is the
  full stride-1 correlation of the padded plane, and one im2col GEMM per
  channel group (the functional simulator's, run on the raw integers as
  float64) reproduces every collected output.  Under the geometry half of
  the accumulator-width guard
  (:func:`repro.hwmodel.fixed_point.check_exact_accumulation`) every sum is
  an integer below ``2**53``, hence exact; the 39-bit saturating
  accumulator of the oracle's MAC never saturates for ``K <= 11`` (at most
  121 products of 16-bit operands), so the exact sum is the hardware's.

* **Counters.**  Whether a PE performs a MAC in a given cycle depends only
  on the stripe geometry, never on pixel values: the window injected at
  streaming cycle ``s`` reaches PE ``q`` at cycle ``s + 2q`` together with
  the pixel streamed at timestamp ``s + q``, and that pixel exists iff its
  stripe coordinates ``(r0 + q % K, oc + q // K)`` fall inside the stripe
  (``oc = (s-1) // K``, ``r0 = (s-1) % K``).  Summing the indicator over
  ``s`` and ``q`` factorises into a product of two clamped ranges, giving a
  closed form for the MAC count per stripe; cycles, windows and stride
  discards follow from the same geometry.  All counters are therefore
  per-pair constants multiplied by the number of channel pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.hwmodel.fixed_point import check_exact_accumulation
from repro.sim.functional_vectorized import vectorized_layer_ofmaps

#: kernel area above which the primitive's saturating accumulator (sized for
#: 121 products) could saturate mid-window; beyond it the exact GEMM would no
#: longer equal the hardware's sums, so the cycle simulator rejects such
#: kernels.
MAX_EXACT_KERNEL_PES = 121


@dataclass(frozen=True)
class PairGeometryStats:
    """Per-channel-pair counters implied by the stripe geometry of a layer.

    These are exactly what the oracle counts while streaming one pair;
    every pair of a layer shares the same geometry, so layer totals are these
    values multiplied by ``layer.channel_pairs()``.
    """

    primitive_cycles: int
    macs: int
    stripes: int
    valid_windows: int
    outputs_kept: int
    outputs_discarded: int


def stripe_mac_count(kernel_size: int, width: int, rows: int) -> int:
    """MACs the oracle's primitive performs streaming one stripe of one pair.

    A window injected at streaming cycle ``s`` (``1 <= s <= T`` with
    ``T = K * (width - 1) + rows``) triggers a MAC at PE ``q`` iff the
    scheduled pixel ``(r0 + q % K, oc + q // K)`` lies inside the stripe.
    The indicator factorises per ``s`` into ``clip(width - oc, 0, K) *
    clip(rows - r0, 0, K)``.
    """
    k = kernel_size
    total = k * (width - 1) + rows
    s = np.arange(total, dtype=np.int64)
    cols = np.clip(width - s // k, 0, k)
    row_counts = np.clip(rows - s % k, 0, k)
    return int(np.sum(cols * row_counts))


def pair_geometry(layer: ConvLayer) -> PairGeometryStats:
    """Counters for one channel pair of ``layer`` (shared by all its pairs)."""
    k = layer.kernel_size
    padded_h = layer.padded_height
    padded_w = layer.padded_width
    drain = 2 * k * k + 2

    primitive_cycles = 0
    macs = 0
    stripes = 0
    valid_windows = 0
    for base in range(0, padded_h - k + 1, k):
        rows = min(2 * k - 1, padded_h - base)
        primitive_cycles += k * (padded_w - 1) + rows + drain
        macs += stripe_mac_count(k, padded_w, rows)
        valid_windows += (rows - k + 1) * (padded_w - k + 1)
        stripes += 1

    kept = layer.out_height * layer.out_width
    return PairGeometryStats(
        primitive_cycles=primitive_cycles,
        macs=macs,
        stripes=stripes,
        valid_windows=valid_windows,
        outputs_kept=kept,
        outputs_discarded=valid_windows - kept,
    )


def correlate_layer_raw(layer: ConvLayer, raw_ifmaps: np.ndarray,
                        raw_weights: np.ndarray, bits: int) -> np.ndarray:
    """Raw integer ofmaps of the whole layer via blocked im2col GEMMs.

    ``raw_ifmaps`` is the padded ``(C, Hp, Wp)`` int64 plane stack,
    ``raw_weights`` the ``(M, C/groups, K, K)`` int64 kernels of ``bits``-bit
    words, evaluated as float64 by
    :func:`repro.sim.functional_vectorized.vectorized_layer_ofmaps` after
    the geometry half of the accumulator-width guard (module docstring).
    """
    check_exact_accumulation(
        layer.name, layer.kernel_size ** 2 * layer.in_channels_per_group, bits)
    ofmaps = vectorized_layer_ofmaps(layer, raw_ifmaps.astype(np.float64),
                                     raw_weights.astype(np.float64))
    return ofmaps.astype(np.int64)
