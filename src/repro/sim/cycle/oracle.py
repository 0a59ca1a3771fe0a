"""Register-accurate model of the dual-channel PE chain: the cycle simulator's test oracle.

:class:`~repro.sim.cycle.CycleAccurateChainSimulator` computes a layer's
ofmaps with exact GEMMs and its counters in closed form
(:mod:`repro.sim.cycle.vectorized`).  This module is the ground truth both
are tested against: it ticks every register of a systolic primitive (Fig. 4)
built from dual-channel PEs (Fig. 6), one clock cycle at a time, the way the
paper's ModelSim run executes the RTL.  Each simulated cycle costs Python
work per PE, so it is meant for small layers; no command reaches it.

Timing discipline (the paper leaves it implicit): ifmap pixels advance one
PE per cycle; partial sums advance one PE every two cycles (two psum
registers per PE).  With weights stored in column-major window order this is
the classical weight-stationary 1D systolic convolution alignment: the
partial sum injected into PE 0 at cycle ``c`` accumulates the window whose
column scan starts at timestamp ``c``, PE ``q`` contributes its product at
cycle ``c + 2q``, and the finished sum leaves the last PE ``2(K^2-1)``
cycles after injection.  Steady-state throughput is one window per cycle and
the input bandwidth is at most two pixels per cycle; only the constant fill
latency differs from the idealised ``K^2`` the paper quotes.  Partial sums
carry their window tag (the start timestamp), which labels each finished sum
with its output pixel without a separate control path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.cnn.quantize import choose_format
from repro.cnn.reference import pad_input
from repro.core.scan import ColumnScanSchedule
from repro.errors import CapacityError, MappingError
from repro.hwmodel.fixed_point import FixedPointFormat, fixed_point_mac
from repro.sim.cycle.engine import CycleSimStats
from repro.sim.cycle.vectorized import MAX_EXACT_KERNEL_PES


class Register:
    """An edge-triggered register: :meth:`set_next` stages, :meth:`tick` latches.

    Staging every register before any latches keeps Python's sequential
    evaluation order out of the simulated hardware.
    """

    def __init__(self, reset_value: Any = None) -> None:
        self.reset_value = reset_value
        self.reset()

    def set_next(self, value: Any) -> None:
        """Stage the value latched at the next clock edge."""
        self._next = value

    def tick(self) -> None:
        """Latch the staged value (an unstaged register holds its value)."""
        self.value = self._next

    def reset(self) -> None:
        """Return to the reset value."""
        self.value = self._next = self.reset_value


@dataclass(frozen=True)
class TaggedPsum:
    """A partial sum travelling along the chain, tagged with its window."""

    value: int
    start_timestamp: int


@dataclass(frozen=True)
class PEInputs:
    """Combinational inputs presented to a PE during one cycle."""

    even_pixel: Optional[int]
    odd_pixel: Optional[int]
    psum: Optional[TaggedPsum]
    channel_select: Optional[str]  # 'even', 'odd' or None (idle)


@dataclass(frozen=True)
class PEOutputs:
    """What a PE presents to the next PE during one cycle (before the edge)."""

    even_pixel: Optional[int]
    odd_pixel: Optional[int]
    psum: Optional[TaggedPsum]


@dataclass(frozen=True)
class PrimitiveOutput:
    """One finished window sum leaving the primitive."""

    out_row_in_stripe: int
    out_col: int
    raw_value: int
    completion_cycle: int


@dataclass
class StripeRunResult:
    """The valid window sums of one stripe, with its cycle and MAC counts."""

    outputs: List[PrimitiveOutput]
    cycles: int
    macs: int


class DualChannelPE:
    """One dual-channel PE: OddIF/EvenIF registers, kMemory, MAC, two psum registers."""

    def __init__(self, kmemory_depth: int = 256,
                 operand_format: FixedPointFormat | None = None) -> None:
        if kmemory_depth <= 0:
            raise CapacityError(f"kMemory depth must be positive, got {kmemory_depth}")
        operand_format = operand_format or FixedPointFormat(16, 8)
        # sized for an 11x11 window: 39 bits for 16-bit operands
        self.accumulator_format = operand_format.accumulator_format(
            operand_format, terms=MAX_EXACT_KERNEL_PES)
        self.kmemory: List[int] = [0] * kmemory_depth
        self.weight_reg = Register(reset_value=0)
        # channel registers toward the next PE
        self.even_reg = Register()
        self.odd_reg = Register()
        # two-stage psum delay toward the next PE
        self.psum_reg_a = Register()
        self.psum_reg_b = Register()
        self.mac_count = 0

    def _check_address(self, address: int) -> None:
        if not 0 <= address < len(self.kmemory):
            raise CapacityError(
                f"kMemory address {address} out of range 0..{len(self.kmemory) - 1}")

    def load_weight(self, address: int, raw_value: int) -> None:
        """Write one stationary weight into kMemory slot ``address``."""
        self._check_address(address)
        self.kmemory[address] = int(raw_value)

    def select_weight(self, address: int) -> None:
        """Read a kMemory slot into the active weight register."""
        self._check_address(address)
        self.weight_reg.set_next(self.kmemory[address])
        self.weight_reg.tick()

    def evaluate(self, inputs: PEInputs) -> PEOutputs:
        """Combinational evaluation of one cycle.

        Returns the registered values visible downstream this cycle and
        stages the next ones; the psum computed now reaches the next PE two
        edges later.
        """
        downstream = PEOutputs(self.even_reg.value, self.odd_reg.value,
                               self.psum_reg_b.value)
        self.even_reg.set_next(inputs.even_pixel)
        self.odd_reg.set_next(inputs.odd_pixel)

        new_psum = None
        if inputs.psum is not None and inputs.channel_select is not None:
            pixel = (inputs.even_pixel if inputs.channel_select == "even"
                     else inputs.odd_pixel)
            if pixel is None:
                # the scheduled pixel is outside the stripe: forward the psum
                # unchanged; the drain discards its window as invalid
                new_psum = inputs.psum
            else:
                value = fixed_point_mac(inputs.psum.value, pixel, self.weight_reg.value,
                                        self.accumulator_format)
                new_psum = TaggedPsum(value, inputs.psum.start_timestamp)
                self.mac_count += 1

        self.psum_reg_a.set_next(new_psum)
        self.psum_reg_b.set_next(self.psum_reg_a.value)
        return downstream

    def tick(self) -> None:
        """Latch the channel and psum registers (once per cycle, after evaluate)."""
        for reg in (self.even_reg, self.odd_reg, self.psum_reg_a, self.psum_reg_b):
            reg.tick()

    def reset_datapath(self) -> None:
        """Clear the channel and psum registers (weights and kMemory survive)."""
        for reg in (self.even_reg, self.odd_reg, self.psum_reg_a, self.psum_reg_b):
            reg.reset()


class SystolicPrimitive:
    """``K^2`` chained dual-channel PEs with stationary kernel weights."""

    def __init__(self, kernel_size: int,
                 operand_format: FixedPointFormat | None = None) -> None:
        if kernel_size < 1:
            raise MappingError(f"kernel_size must be >= 1, got {kernel_size}")
        self.kernel_size = kernel_size
        self.num_pes = kernel_size * kernel_size
        self.pes = [DualChannelPE(operand_format=operand_format)
                    for _ in range(self.num_pes)]
        self.cycle = 0

    def load_kernel(self, kernel_raw: np.ndarray, slot: int = 0) -> None:
        """Write a ``K x K`` raw kernel into kMemory slot ``slot``.

        PE ``q`` holds the weight at window position ``(q % K, q // K)``
        (column-major), matching the column-wise pixel scan.
        """
        kernel = np.asarray(kernel_raw)
        k = self.kernel_size
        if kernel.shape != (k, k):
            raise MappingError(f"kernel shape {kernel.shape} does not match K={k}")
        for q, pe in enumerate(self.pes):
            pe.load_weight(slot, int(kernel[q % k, q // k]))

    def select_kernel(self, slot: int = 0) -> None:
        """Make the kernel in ``slot`` the active weights of every PE."""
        for pe in self.pes:
            pe.select_weight(slot)

    def reset_datapath(self) -> None:
        """Flush the channel and psum registers between stripes."""
        for pe in self.pes:
            pe.reset_datapath()
        self.cycle = 0

    def step(self, even_pixel: Optional[int], odd_pixel: Optional[int],
             inject_window: bool) -> Optional[TaggedPsum]:
        """Advance one clock cycle; return the psum leaving the last PE, if any.

        ``even_pixel``/``odd_pixel`` are the raw pixels on the two ifmap
        channels (``None`` when idle); ``inject_window`` starts a new window
        at PE 0.  Each PE taps the channel of the column parity its window
        needs: window column ``(tag - 1) // K`` plus the PE's column offset
        ``q // K``.
        """
        self.cycle += 1
        k = self.kernel_size
        even, odd = even_pixel, odd_pixel
        psum = TaggedPsum(0, self.cycle) if inject_window else None
        for q, pe in enumerate(self.pes):
            select = None
            if psum is not None:
                column = (psum.start_timestamp - 1) // k + q // k
                select = "even" if column % 2 == 0 else "odd"
            outputs = pe.evaluate(PEInputs(even, odd, psum, select))
            even, odd, psum = outputs.even_pixel, outputs.odd_pixel, outputs.psum
        for pe in self.pes:
            pe.tick()
        return psum

    def drain_latency(self) -> int:
        """Cycles after the last injection until every window has emerged.

        A window injected at cycle ``c`` finishes its last MAC at
        ``c + 2(K^2 - 1)`` and is visible past the last PE two cycles later.
        """
        return 2 * self.num_pes + 2

    def run_stripe(self, stripe: np.ndarray) -> StripeRunResult:
        """Stream one ``(rows, width)`` raw stripe (``K <= rows <= 2K-1``) through.

        Returns the valid window sums and the cycles spent streaming plus
        draining.
        """
        data = np.asarray(stripe)
        rows, width = data.shape
        schedule = ColumnScanSchedule(self.kernel_size, width, stripe_rows=rows)
        self.reset_datapath()
        macs_before = self.total_macs
        outputs: List[PrimitiveOutput] = []
        streaming = schedule.total_timestamps
        total_cycles = streaming + self.drain_latency()
        for cycle in range(1, total_cycles + 1):
            even = odd = None
            if cycle <= streaming:
                delivery = schedule.delivery_at(cycle)
                if delivery.even is not None:
                    even = int(data[delivery.even])
                if delivery.odd is not None:
                    odd = int(data[delivery.odd])
            emerging = self.step(even, odd, inject_window=cycle <= streaming)
            if emerging is None:
                continue
            tag = schedule.window_ending_at(emerging.start_timestamp + self.num_pes - 1)
            if tag.valid:
                outputs.append(PrimitiveOutput(tag.out_row_in_stripe, tag.out_col,
                                               emerging.value, cycle))
        return StripeRunResult(outputs, total_cycles, self.total_macs - macs_before)

    @property
    def total_macs(self) -> int:
        """MACs performed by all PEs so far."""
        return sum(pe.mac_count for pe in self.pes)


def register_level_layer(layer: ConvLayer, ifmaps: np.ndarray, weights: np.ndarray,
                         total_bits: int = 16) -> Tuple[np.ndarray, CycleSimStats]:
    """Run a conv layer through one register-accurate primitive.

    Quantises ``ifmaps`` ``(C, H, W)`` and ``weights`` ``(M, C/g, K, K)``
    to ``total_bits`` exactly as
    :meth:`~repro.sim.cycle.CycleAccurateChainSimulator.run_layer` does,
    streams every stripe of every channel pair, keeps the outputs the stride
    selects and sums them over the input channels.  Returns the dequantised
    ofmaps and the counters, which equal ``run_layer``'s.
    """
    ifmaps = np.asarray(ifmaps, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    ifmap_fmt = choose_format(ifmaps, total_bits)
    weight_fmt = choose_format(weights, total_bits)
    raw_ifmaps = ifmap_fmt.quantize_raw(pad_input(ifmaps, layer.padding))
    raw_weights = weight_fmt.quantize_raw(weights)

    k = layer.kernel_size
    stride = layer.stride
    primitive = SystolicPrimitive(k, FixedPointFormat(total_bits, ifmap_fmt.frac_bits))
    # the hardware loads each weight once per batch
    stats = CycleSimStats(kernel_load_cycles=layer.weight_count)
    raw_ofmaps = np.zeros(layer.out_shape, dtype=np.int64)
    padded_height = layer.padded_height
    in_per_group = layer.in_channels_per_group
    out_per_group = layer.out_channels_per_group

    for group in range(layer.groups):
        for m in range(group * out_per_group, (group + 1) * out_per_group):
            for c_local in range(in_per_group):
                c = group * in_per_group + c_local
                primitive.load_kernel(raw_weights[m, c_local])
                primitive.select_kernel()
                stats.kmemory_reads += primitive.num_pes
                for base in range(0, padded_height - k + 1, k):
                    rows = min(2 * k - 1, padded_height - base)
                    run = primitive.run_stripe(raw_ifmaps[c, base:base + rows, :])
                    stats.primitive_cycles += run.cycles
                    stats.stripes_processed += 1
                    stats.macs += run.macs
                    for output in run.outputs:
                        in_row = base + output.out_row_in_stripe
                        in_col = output.out_col
                        out_row, out_col = in_row // stride, in_col // stride
                        if (in_row % stride or in_col % stride
                                or out_row >= layer.out_height
                                or out_col >= layer.out_width):
                            stats.outputs_discarded_by_stride += 1
                            continue
                        raw_ofmaps[m, out_row, out_col] += output.raw_value
                        stats.outputs_collected += 1
                stats.pairs_processed += 1

    return raw_ofmaps * (ifmap_fmt.scale * weight_fmt.scale), stats
