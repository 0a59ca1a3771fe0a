"""Cycle-accurate simulation of a convolutional layer on the chain.

This is the reproduction of the paper's ModelSim functional verification: the
layer is decomposed exactly as the hardware would execute it (channel pairs →
stripes → column-wise scan), every stripe is streamed through a
register-accurate :class:`~repro.core.primitive.SystolicPrimitive`, the
finished window sums are accumulated across ifmap channels, and the result is
compared on-the-fly against the software reference.

The simulator works on 16-bit fixed-point raw values, so it also demonstrates
the numeric path (quantise → integer MACs → wide accumulator → dequantise).

Two backends share the same decomposition and produce bit-identical results:

``vectorized`` (default)
    Batches each stripe's MAC schedule into NumPy array operations (one
    exact im2col GEMM per channel group on the raw integers, closed-form
    cycle/MAC counters — see :mod:`repro.sim.cycle.vectorized`).  Fast
    enough to cycle-verify full AlexNet-scale layers.

``scalar``
    The original register-accurate path: every stripe is streamed through a
    :class:`~repro.core.primitive.SystolicPrimitive` one clock cycle at a
    time.  Each simulated cycle costs Python-level work per PE, so this
    backend is meant for small layers; it serves as the ground-truth
    cross-check of the vectorized fast path (``repro verify`` runs both on
    the tiny network) and runs kernels larger than 11x11.

Every layer is checked exactly against the direct golden on the operands
it simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.cnn.quantize import choose_format
from repro.cnn.reference import conv2d_direct, pad_input
from repro.core.config import ChainConfig
from repro.core.mapper import LayerMapper
from repro.core.primitive import SystolicPrimitive
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.hwmodel.fixed_point import FixedPointFormat
from repro.sim.cycle.vectorized import (
    MAX_EXACT_KERNEL_PES,
    correlate_layer_raw,
    pair_geometry,
)

#: backends accepted by :class:`CycleAccurateChainSimulator`
CYCLE_BACKENDS = ("vectorized", "scalar")


@dataclass
class CycleSimStats:
    """Counters collected during a cycle-accurate layer simulation."""

    primitive_cycles: int = 0
    kernel_load_cycles: int = 0
    macs: int = 0
    pairs_processed: int = 0
    stripes_processed: int = 0
    outputs_collected: int = 0
    outputs_discarded_by_stride: int = 0
    kmemory_reads: int = 0


@dataclass
class CycleSimResult:
    """Result of one cycle-accurate layer simulation."""

    layer: ConvLayer
    ofmaps: np.ndarray
    stats: CycleSimStats
    chain_cycles_estimate: float
    ifmap_format: FixedPointFormat
    weight_format: FixedPointFormat
    #: max |ofmaps - direct golden|; :meth:`CycleAccurateChainSimulator.run_layer`
    #: raises unless it is 0
    reference_max_abs_error: float

    @property
    def total_cycles_with_kernel_load(self) -> float:
        """Chain cycles plus the kernel-load cycles."""
        return self.chain_cycles_estimate + self.stats.kernel_load_cycles


class CycleAccurateChainSimulator:
    """Runs conv layers through register-accurate systolic primitives.

    ``backend`` selects how stripes are executed: ``"vectorized"`` (default)
    batches the MAC schedule into NumPy array operations, ``"scalar"`` ticks
    every PE register.  Both produce bit-identical ofmaps and identical
    :class:`CycleSimStats`; kernels larger than 11x11 would exceed the range
    the hardware accumulator is sized for and automatically use the scalar
    path, which models the saturation.
    """

    def __init__(self, config: Optional[ChainConfig] = None,
                 total_bits: int = 16, backend: str = "vectorized") -> None:
        if backend not in CYCLE_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {CYCLE_BACKENDS}, got {backend!r}"
            )
        self.config = config or ChainConfig()
        self.total_bits = total_bits
        self.backend = backend
        self.mapper = LayerMapper(self.config)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _stripe_bases(padded_height: int, kernel_size: int) -> List[int]:
        out_rows_stride1 = padded_height - kernel_size + 1
        return list(range(0, out_rows_stride1, kernel_size))

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run_layer(self, layer: ConvLayer, ifmaps: np.ndarray,
                  weights: np.ndarray) -> CycleSimResult:
        """Simulate one layer cycle by cycle.

        ``ifmaps`` is ``(C, H, W)`` float, ``weights`` is ``(M, C/g, K, K)``
        float; both are quantised to the configured fixed-point width before
        simulation.  The dequantised ofmaps are then compared against
        :func:`~repro.cnn.reference.conv2d_direct` on the same quantised
        operands (the dequantised raw ifmaps and weights the simulator ran
        on); every sum is exact, so any nonzero difference raises
        :class:`~repro.errors.SimulationError`.
        """
        ifmaps = np.asarray(ifmaps, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if ifmaps.shape != layer.in_shape:
            raise WorkloadError(
                f"{layer.name}: ifmaps shape {ifmaps.shape} does not match {layer.in_shape}"
            )

        ifmap_fmt = choose_format(ifmaps, self.total_bits)
        weight_fmt = choose_format(weights, self.total_bits)
        raw_ifmaps = ifmap_fmt.quantize_raw(pad_input(ifmaps, layer.padding))
        raw_weights = weight_fmt.quantize_raw(weights)
        output_scale = ifmap_fmt.scale * weight_fmt.scale

        mapping = self.mapper.map_layer(layer)

        if self.backend == "vectorized" and layer.kernel_size ** 2 <= MAX_EXACT_KERNEL_PES:
            raw_ofmaps, stats = self._run_layer_vectorized(layer, raw_ifmaps, raw_weights)
        else:
            operand_format = FixedPointFormat(self.total_bits, ifmap_fmt.frac_bits)
            raw_ofmaps, stats = self._run_layer_scalar(
                layer, raw_ifmaps, raw_weights, operand_format
            )

        # hardware loads each weight once per batch regardless of how the
        # simulator re-uses its single primitive object
        stats.kernel_load_cycles = layer.weight_count

        ofmaps = raw_ofmaps.astype(np.float64) * output_scale
        chain_cycles = stats.primitive_cycles / mapping.active_primitives

        pad = layer.padding
        interior = raw_ifmaps[:, pad:pad + layer.in_height, pad:pad + layer.in_width]
        reference = conv2d_direct(layer, ifmap_fmt.dequantize_raw(interior),
                                  weight_fmt.dequantize_raw(raw_weights))
        reference_error = float(np.max(np.abs(reference - ofmaps))) if reference.size else 0.0
        if reference_error != 0.0:
            raise SimulationError(
                f"{layer.name}: cycle-accurate result deviates from reference "
                f"(max abs error {reference_error:.3e})"
            )

        return CycleSimResult(
            layer=layer,
            ofmaps=ofmaps,
            stats=stats,
            chain_cycles_estimate=chain_cycles,
            ifmap_format=ifmap_fmt,
            weight_format=weight_fmt,
            reference_max_abs_error=reference_error,
        )

    # ------------------------------------------------------------------ #
    # backends
    # ------------------------------------------------------------------ #
    def _run_layer_vectorized(
        self,
        layer: ConvLayer,
        raw_ifmaps: np.ndarray,
        raw_weights: np.ndarray,
    ) -> tuple[np.ndarray, CycleSimStats]:
        """NumPy fast path: identical outputs and counters, no per-cycle work."""
        k = layer.kernel_size
        geometry = pair_geometry(layer)
        pairs = layer.channel_pairs()
        stats = CycleSimStats(
            primitive_cycles=geometry.primitive_cycles * pairs,
            macs=geometry.macs * pairs,
            pairs_processed=pairs,
            stripes_processed=geometry.stripes * pairs,
            outputs_collected=geometry.outputs_kept * pairs,
            outputs_discarded_by_stride=geometry.outputs_discarded * pairs,
            kmemory_reads=k * k * pairs,
        )
        raw_ofmaps = correlate_layer_raw(layer, raw_ifmaps, raw_weights,
                                         self.total_bits)
        return raw_ofmaps, stats

    def _run_layer_scalar(
        self,
        layer: ConvLayer,
        raw_ifmaps: np.ndarray,
        raw_weights: np.ndarray,
        operand_format: FixedPointFormat,
    ) -> tuple[np.ndarray, CycleSimStats]:
        """Register-accurate path: tick every PE of a systolic primitive."""
        k = layer.kernel_size
        stride = layer.stride
        stats = CycleSimStats()
        raw_ofmaps = np.zeros(layer.out_shape, dtype=np.int64)

        primitive = SystolicPrimitive(
            kernel_size=k,
            kmemory_depth=self.config.kmemory_words_per_pe,
            operand_format=operand_format,
            name=f"{layer.name}.primitive",
        )

        in_per_group = layer.in_channels_per_group
        out_per_group = layer.out_channels_per_group
        padded_height = layer.padded_height
        bases = self._stripe_bases(padded_height, k)

        for group in range(layer.groups):
            for m_local in range(out_per_group):
                m = group * out_per_group + m_local
                for c_local in range(in_per_group):
                    c = group * in_per_group + c_local
                    primitive.load_kernel(raw_weights[m, c_local], slot=0)
                    primitive.select_kernel(slot=0)
                    stats.kmemory_reads += primitive.num_pes

                    for base in bases:
                        rows = min(2 * k - 1, padded_height - base)
                        if rows < k:
                            continue
                        stripe = raw_ifmaps[c, base:base + rows, :]
                        run = primitive.run_stripe(stripe)
                        stats.primitive_cycles += run.cycles
                        stats.stripes_processed += 1
                        stats.macs += run.macs
                        for output in run.outputs:
                            in_row = base + output.out_row_in_stripe
                            in_col = output.out_col
                            if in_row % stride or in_col % stride:
                                stats.outputs_discarded_by_stride += 1
                                continue
                            out_row = in_row // stride
                            out_col = in_col // stride
                            if out_row >= layer.out_height or out_col >= layer.out_width:
                                stats.outputs_discarded_by_stride += 1
                                continue
                            raw_ofmaps[m, out_row, out_col] += output.raw_value
                            stats.outputs_collected += 1
                    stats.pairs_processed += 1

        return raw_ofmaps, stats
