"""Functional (dataflow-level) simulation of a layer on the chain.

This simulator evaluates the exact same decomposition the hardware uses —
channel pairs, stripes, column-wise scan windows — as whole-array NumPy
operations instead of ticking PE registers
(:mod:`repro.sim.functional_vectorized`: the kept windows of each conv group
are one im2col GEMM, the dataflow counters are closed forms over the stripe
plan).  It answers the question *"does the Chain-NN dataflow enumerate
exactly the right windows and accumulate them into the right output
pixels?"* for layers of any size in seconds, and provides the golden
intermediate results the cycle-accurate simulator is checked against.
``algorithm="winograd"`` runs the F(2x2,3x3) transform domain instead
(:mod:`repro.sim.winograd`).

The input domain is the chip's ``config.word_bits`` fixed point, within
the accumulator-width guard
(:func:`repro.hwmodel.fixed_point.check_exact_accumulation`; anything else
raises :class:`~repro.errors.SimulationError`), where every float64 sum is
exact: every path gives the same bits whatever order it adds in.

:func:`scalar_window_walk` is the reference oracle: the per-window Python
walk over every channel pair, stripe and scan window.  No engine, option or
request runs it; the equivalence tests check the simulator's ofmaps and
counters against it, and ``benchmarks/bench_functional.py`` times it.

Strided layers use the stream-everything-discard policy discussed in
DESIGN.md: the scan runs at stride-1 cadence over the padded input and
windows that do not fall on the stride grid are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.cnn.reference import conv2d_im2col, pad_input
from repro.core.config import ChainConfig
from repro.core.mapper import LayerMapper
from repro.core.scan import ColumnScanSchedule, pair_geometry
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.hwmodel.fixed_point import WINOGRAD_GROWTH_BITS, check_exact_accumulation
from repro.sim.functional_vectorized import vectorized_layer_ofmaps

# NOTE: repro.analysis.winograd / repro.sim.winograd are imported lazily
# inside the Winograd code paths — repro.sim is itself imported while
# repro.engine.adapters is only partially initialised, and the
# repro.analysis package __init__ closes a cycle back into it.

#: execution algorithms the simulator can run a layer with
SIM_ALGORITHMS = ("direct", "winograd")


@dataclass
class FunctionalRunStats:
    """Counters collected while functionally simulating one layer."""

    windows_evaluated: int = 0
    windows_kept: int = 0
    stripes_processed: int = 0
    pairs_processed: int = 0
    pixels_streamed: int = 0
    primitive_cycles: int = 0

    @property
    def stride_discard_fraction(self) -> float:
        """Fraction of evaluated windows discarded by the stride filter."""
        if self.windows_evaluated == 0:
            return 0.0
        return 1.0 - self.windows_kept / self.windows_evaluated


@dataclass
class FunctionalRunResult:
    """Output of a functional layer simulation."""

    layer: ConvLayer
    ofmaps: np.ndarray
    stats: FunctionalRunStats
    chain_cycles_estimate: float

    def max_abs_error_vs_reference(self, ifmaps: np.ndarray, weights: np.ndarray) -> float:
        """Largest absolute difference against the NumPy reference convolution.

        The golden output comes from the im2col/GEMM reference — much faster
        than the per-pixel direct loop on large layers, and cross-checked
        against it in the reference test suite — while the simulation itself
        still enumerates windows the way the hardware does.
        """
        reference = conv2d_im2col(self.layer, ifmaps, weights)
        return float(np.max(np.abs(reference - self.ofmaps))) if reference.size else 0.0


class FunctionalChainSimulator:
    """Dataflow-level simulator of the Chain-NN execution of a conv layer."""

    def __init__(self, config: Optional[ChainConfig] = None) -> None:
        self.config = config or ChainConfig()
        self.mapper = LayerMapper(self.config)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _validate_tensors(self, layer: ConvLayer, ifmaps: np.ndarray,
                          weights: np.ndarray, stripe_height: Optional[int],
                          algorithm: str):
        """Common input validation (accumulator-width guard included).

        Returns the float64 tensors and the stripe height.
        """
        if algorithm not in SIM_ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {algorithm!r}; "
                f"available: {', '.join(SIM_ALGORITHMS)}"
            )
        ifmaps = np.asarray(ifmaps, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if stripe_height is None:
            stripe_height = layer.kernel_size
        if not (1 <= stripe_height <= layer.kernel_size):
            raise ConfigurationError(
                f"{layer.name}: stripe_height must be in [1, {layer.kernel_size}], "
                f"got {stripe_height}"
            )
        if ifmaps.shape != layer.in_shape:
            raise WorkloadError(
                f"{layer.name}: ifmaps shape {ifmaps.shape} does not match {layer.in_shape}"
            )
        expected_w = (layer.out_channels, layer.in_channels_per_group,
                      layer.kernel_size, layer.kernel_size)
        if weights.shape != expected_w:
            raise WorkloadError(
                f"{layer.name}: weights shape {weights.shape} does not match {expected_w}"
            )
        if algorithm == "winograd":
            terms, growth = layer.in_channels_per_group, WINOGRAD_GROWTH_BITS
        else:
            terms, growth = layer.kernel_size ** 2 * layer.in_channels_per_group, 0
        check_exact_accumulation(layer.name, terms, self.config.word_bits,
                                 ifmaps, weights, growth_bits=growth)
        return ifmaps, weights, stripe_height

    @staticmethod
    def _closed_form_stats(layer: ConvLayer,
                           stripe_height: int) -> FunctionalRunStats:
        """Layer counters of the direct dataflow, from the per-pair closed form.

        The functional simulator counts the scan cycles only; the cycle
        simulator adds the drain.
        """
        per_pair = pair_geometry(layer, stripe_height)
        pairs = layer.channel_pairs()
        return FunctionalRunStats(
            windows_evaluated=per_pair.windows_evaluated * pairs,
            windows_kept=per_pair.windows_kept * pairs,
            stripes_processed=per_pair.stripes * pairs,
            pairs_processed=pairs,
            pixels_streamed=per_pair.pixels_streamed * pairs,
            primitive_cycles=per_pair.scan_cycles * pairs,
        )

    @staticmethod
    def _winograd_stats(layer: ConvLayer) -> FunctionalRunStats:
        """Layer counters of the transform-domain execution, closed form.

        A "window" is one 4x4 input tile (each produces a 2x2 output tile),
        a "stripe" one tile row; streamed pixels and primitive cycles follow
        the :mod:`repro.analysis.winograd` cost model (3 cycles per tile on
        a 9-PE primitive plus the ``K^2 - 1`` fill per stripe), so the
        simulator's counters and the analytical scorer agree.
        """
        from repro.analysis.winograd import (
            WINOGRAD_CYCLES_PER_TILE,
            winograd_ext_width,
            winograd_tile_grid,
        )

        tiles_h, tiles_w = winograd_tile_grid(layer)
        pairs = layer.channel_pairs()
        fill = layer.kernel_size * layer.kernel_size - 1
        per_stripe = WINOGRAD_CYCLES_PER_TILE * tiles_w + fill
        return FunctionalRunStats(
            windows_evaluated=tiles_h * tiles_w * pairs,
            windows_kept=tiles_h * tiles_w * pairs,
            stripes_processed=tiles_h * pairs,
            pairs_processed=pairs,
            pixels_streamed=tiles_h * 4 * winograd_ext_width(layer) * pairs,
            primitive_cycles=per_stripe * tiles_h * pairs,
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run_layer(self, layer: ConvLayer, ifmaps: np.ndarray,
                  weights: np.ndarray,
                  stripe_height: Optional[int] = None,
                  algorithm: str = "direct") -> FunctionalRunResult:
        """Simulate one layer; returns the ofmaps and the dataflow statistics.

        ``stripe_height`` overrides the ofmap rows computed per stripe (the
        default is the paper's full ``K``-row stripe).  Any legal height
        partitions the same window set differently, so the ofmaps are
        bit-identical across heights — the property the mapping-search
        verification relies on — while the dataflow counters (stripes,
        streamed pixels, primitive cycles) honestly reflect the choice.

        ``algorithm="winograd"`` executes the F(2x2,3x3) transform-domain
        mode instead (3x3 stride-1 layers only; its guard also carries the
        transform growth), and the stripe-height knob does not apply (the
        4x4 tile grid fixes the stripe plan).  Float tensors must be
        quantised first (:func:`repro.cnn.quantize.quantize_layer_tensors`).
        """
        ifmaps, weights, stripe_height = self._validate_tensors(
            layer, ifmaps, weights, stripe_height, algorithm)
        mapping = self.mapper.map_layer(layer)
        padded = pad_input(ifmaps, layer.padding)

        if algorithm == "winograd":
            from repro.sim.winograd import winograd_ofmap_block

            ofmaps = np.zeros(layer.out_shape, dtype=np.float64)
            winograd_ofmap_block(layer, padded, weights, 0, layer.out_channels,
                                 ofmaps)
            stats = self._winograd_stats(layer)
        else:
            ofmaps = vectorized_layer_ofmaps(layer, padded, weights)
            stats = self._closed_form_stats(layer, stripe_height)

        if stats.pairs_processed != mapping.channel_pairs:
            raise SimulationError(
                f"{layer.name}: processed {stats.pairs_processed} pairs, "
                f"expected {mapping.channel_pairs}"
            )
        if mapping.active_primitives <= 0:
            raise SimulationError(
                f"{layer.name}: mapping reports {mapping.active_primitives} active "
                "primitives; cannot derive a per-primitive chain-cycle estimate"
            )
        return FunctionalRunResult(
            layer=layer,
            ofmaps=ofmaps,
            stats=stats,
            chain_cycles_estimate=stats.primitive_cycles / mapping.active_primitives,
        )


def scalar_window_walk(layer: ConvLayer, ifmaps: np.ndarray,
                       weights: np.ndarray, stripe_height: Optional[int] = None,
                       ) -> Tuple[np.ndarray, FunctionalRunStats]:
    """Reference oracle: the per-window walk over every channel pair.

    Streams each (ofmap, ifmap) channel pair stripe by stripe through a
    :class:`~repro.core.scan.ColumnScanSchedule`, evaluates every valid scan
    window with NumPy, drops the windows off the stride grid and accumulates
    the rest into the ofmaps.  ``stripe_height`` is the number of stride-1
    ofmap rows per stripe (default ``K``, the paper's full stripe).

    Returns the ofmaps and the counters that
    :meth:`FunctionalChainSimulator.run_layer` derives in closed form.  One
    Python iteration per window, and no input validation: callers pass
    operands the simulator accepts.
    """
    k = layer.kernel_size
    stride = layer.stride
    height = k if stripe_height is None else stripe_height
    padded = pad_input(np.asarray(ifmaps, dtype=np.float64), layer.padding)
    weights = np.asarray(weights, dtype=np.float64)
    padded_height, padded_width = padded.shape[1:]
    ofmaps = np.zeros(layer.out_shape, dtype=np.float64)
    stats = FunctionalRunStats()
    in_per_group = layer.in_channels_per_group
    out_per_group = layer.out_channels_per_group
    for m in range(layer.out_channels):
        c0 = (m // out_per_group) * in_per_group
        for c_local in range(in_per_group):
            plane = padded[c0 + c_local]
            kernel = weights[m, c_local]
            for base in range(0, padded_height - k + 1, height):
                rows = min(height + k - 1, padded_height - base)
                schedule = ColumnScanSchedule(k, padded_width, stripe_rows=rows)
                stats.stripes_processed += 1
                stats.pixels_streamed += schedule.pixels_streamed()
                stats.primitive_cycles += schedule.total_timestamps
                for tag in schedule.valid_windows():
                    stats.windows_evaluated += 1
                    in_row = base + tag.out_row_in_stripe
                    in_col = tag.out_col
                    if in_row % stride or in_col % stride:
                        continue
                    out_row = in_row // stride
                    out_col = in_col // stride
                    if out_row >= layer.out_height or out_col >= layer.out_width:
                        continue
                    window = plane[in_row:in_row + k, in_col:in_col + k]
                    ofmaps[m, out_row, out_col] += float(np.sum(window * kernel))
                    stats.windows_kept += 1
            stats.pairs_processed += 1
    return ofmaps, stats
