"""Array form of the cycle-accurate chain simulator.

The register-accurate oracle (:mod:`repro.sim.cycle.oracle`) ticks every PE
of a systolic primitive in Python, which limits it to tiny layers.  This
module replays the *same* execution — channel pairs, stripes, column-wise
scan, stride filtering — with whole-array integer operations, producing the
oracle's raw ofmaps bit for bit at a fraction of the cost (and, with the
closed-form counters, its :class:`~repro.sim.cycle.engine.CycleSimStats`
exactly), so full AlexNet-scale layers become cycle-verifiable.

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
  on the stripe geometry, never on pixel values, and so do the cycles,
  windows and stride discards.  Every counter is therefore a per-pair
  constant times the number of channel pairs, and the constants come from
  the closed form :func:`repro.core.scan.pair_geometry`, which the
  ``analytical-detailed`` model reads too.
"""

from __future__ import annotations

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.hwmodel.fixed_point import check_exact_accumulation
from repro.sim.functional_vectorized import vectorized_layer_ofmaps

#: kernel area above which the primitive's saturating accumulator (sized for
#: 121 products) could saturate mid-window; beyond it the exact GEMM would no
#: longer equal the hardware's sums, so the cycle simulator rejects such
#: kernels.
MAX_EXACT_KERNEL_PES = 121


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
