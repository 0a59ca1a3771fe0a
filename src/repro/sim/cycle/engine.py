"""Cycle-accurate simulation of a convolutional layer on the chain.

This is the reproduction of the paper's ModelSim functional verification: the
layer is decomposed exactly as the hardware would execute it (channel pairs →
stripes → column-wise scan), the finished window sums are accumulated across
ifmap channels, and the result is compared on the fly against the software
reference.

The simulator works on 16-bit fixed-point raw values, so it also demonstrates
the numeric path (quantise → integer MACs → wide accumulator → dequantise).
It batches each stripe's MAC schedule into NumPy array operations: one exact
im2col GEMM per channel group on the raw integers, and closed-form
cycle/MAC counters (see :mod:`repro.sim.cycle.vectorized`), fast enough to
cycle-verify full VGG-16.  Its test oracle,
:func:`repro.sim.cycle.oracle.register_level_layer`, ticks every PE register
of a systolic primitive and yields the same ofmaps and counters.

Every layer is checked exactly against the direct golden on the operands
it simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.cnn.quantize import choose_format
from repro.cnn.reference import conv2d_direct, pad_input
from repro.core.config import ChainConfig
from repro.core.mapper import LayerMapper
from repro.errors import SimulationError, WorkloadError
from repro.hwmodel.fixed_point import FixedPointFormat
from repro.sim.cycle.vectorized import (
    MAX_EXACT_KERNEL_PES,
    correlate_layer_raw,
    pair_geometry,
)


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
    """Cycle-accurate conv layers: exact ofmaps and the primitives' counters.

    Kernels up to 11x11 (``MAX_EXACT_KERNEL_PES`` PEs), the largest the
    primitive's 39-bit accumulator is sized for, are accepted.
    """

    def __init__(self, config: Optional[ChainConfig] = None,
                 total_bits: int = 16) -> None:
        self.config = config or ChainConfig()
        self.total_bits = total_bits
        self.mapper = LayerMapper(self.config)

    def run_layer(self, layer: ConvLayer, ifmaps: np.ndarray,
                  weights: np.ndarray) -> CycleSimResult:
        """Simulate one layer cycle by cycle.

        ``ifmaps`` is ``(C, H, W)`` float, ``weights`` is ``(M, C/g, K, K)``
        float; both are quantised to the configured fixed-point width before
        simulation.  The dequantised ofmaps are then compared against
        :func:`~repro.cnn.reference.conv2d_direct` on the same quantised
        operands (the dequantised raw ifmaps and weights the simulator ran
        on); every sum is exact, so any nonzero difference raises
        :class:`~repro.errors.SimulationError`.  A kernel larger than 11x11
        raises :class:`~repro.errors.WorkloadError`.
        """
        ifmaps = np.asarray(ifmaps, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if ifmaps.shape != layer.in_shape:
            raise WorkloadError(
                f"{layer.name}: ifmaps shape {ifmaps.shape} does not match {layer.in_shape}"
            )
        k = layer.kernel_size
        if k * k > MAX_EXACT_KERNEL_PES:
            raise WorkloadError(
                f"{layer.name}: K={k} exceeds the 11x11 kernels the primitive's "
                "accumulator is sized for"
            )

        ifmap_fmt = choose_format(ifmaps, self.total_bits)
        weight_fmt = choose_format(weights, self.total_bits)
        raw_ifmaps = ifmap_fmt.quantize_raw(pad_input(ifmaps, layer.padding))
        raw_weights = weight_fmt.quantize_raw(weights)
        output_scale = ifmap_fmt.scale * weight_fmt.scale

        mapping = self.mapper.map_layer(layer)
        geometry = pair_geometry(layer)
        pairs = layer.channel_pairs()
        stats = CycleSimStats(
            primitive_cycles=geometry.primitive_cycles * pairs,
            # the hardware loads each weight once per batch
            kernel_load_cycles=layer.weight_count,
            macs=geometry.macs * pairs,
            pairs_processed=pairs,
            stripes_processed=geometry.stripes * pairs,
            outputs_collected=geometry.outputs_kept * pairs,
            outputs_discarded_by_stride=geometry.outputs_discarded * pairs,
            kmemory_reads=k * k * pairs,
        )
        raw_ofmaps = correlate_layer_raw(layer, raw_ifmaps, raw_weights,
                                         self.total_bits)

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
