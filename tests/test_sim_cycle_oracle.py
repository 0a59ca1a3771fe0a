"""Tests for the cycle simulator's register-accurate oracle: registers, the
dual-channel PE and the 1D systolic primitive."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnn.reference import conv2d_single_channel
from repro.core.scan import stripe_mac_count
from repro.errors import CapacityError, MappingError
from repro.hwmodel.fixed_point import FixedPointFormat
from repro.sim.cycle.oracle import (
    DualChannelPE,
    PEInputs,
    Register,
    SystolicPrimitive,
    TaggedPsum,
)

IDLE = PEInputs(None, None, None, None)


def _psum_two_cycles_later(pe, inputs):
    """The psum ``pe`` presents downstream two edges after seeing ``inputs``."""
    pe.evaluate(inputs)
    pe.tick()
    pe.evaluate(IDLE)
    pe.tick()
    return pe.evaluate(IDLE).psum


def _loaded_pe(weight):
    """A PE whose active weight is ``weight`` (kMemory slot 0)."""
    pe = DualChannelPE()
    pe.load_weight(0, weight)
    pe.select_weight(0)
    return pe


def _loaded_primitive(kernel):
    """A primitive with ``kernel`` loaded into slot 0 and selected."""
    primitive = SystolicPrimitive(kernel_size=len(kernel))
    primitive.load_kernel(kernel)
    primitive.select_kernel()
    return primitive


def _dense(result, out_rows, out_cols):
    """A stripe run's window sums as a dense ``(out_rows, out_cols)`` array."""
    dense = np.zeros((out_rows, out_cols), dtype=np.int64)
    for output in result.outputs:
        dense[output.out_row_in_stripe, output.out_col] = output.raw_value
    return dense


class TestRegister:
    def test_value_changes_only_on_tick(self):
        reg = Register(reset_value=0)
        reg.set_next(5)
        assert reg.value == 0
        reg.tick()
        assert reg.value == 5

    def test_unstaged_tick_holds_value(self):
        reg = Register(reset_value=3)
        reg.tick()
        assert reg.value == 3
        reg.set_next(9)
        reg.tick()
        reg.tick()
        assert reg.value == 9

    def test_reset_clears_value_and_staged_next(self):
        reg = Register(reset_value=7)
        reg.set_next(1)
        reg.tick()
        reg.set_next(2)
        reg.reset()
        assert reg.value == 7
        reg.tick()
        assert reg.value == 7

    def test_reset_value_defaults_to_none(self):
        # an empty channel or psum register reads None: the idle marker
        reg = Register()
        assert reg.value is None
        reg.tick()
        assert reg.value is None

    def test_last_staged_value_wins(self):
        reg = Register(reset_value=0)
        reg.set_next(1)
        reg.set_next(2)
        reg.tick()
        assert reg.value == 2


class TestDualChannelPE:
    def test_weight_load_and_select(self):
        pe = DualChannelPE(kmemory_depth=4)
        pe.load_weight(2, 99)
        pe.select_weight(2)
        assert pe.weight_reg.value == 99

    def test_mac_uses_selected_channel(self):
        pe = DualChannelPE()
        pe.load_weight(0, 3)
        pe.select_weight(0)
        outputs = pe.evaluate(PEInputs(even_pixel=2, odd_pixel=7, psum=TaggedPsum(0, 1),
                                       channel_select="even"))
        pe.tick()
        # the psum computed this cycle only becomes visible downstream after
        # two further edges; this cycle's downstream values are the reset ones
        assert outputs.psum is None
        pe.evaluate(IDLE)
        pe.tick()
        outputs = pe.evaluate(IDLE)
        assert outputs.psum == TaggedPsum(6, 1)

    def test_mac_is_psum_plus_pixel_times_weight(self):
        pe = DualChannelPE()
        pe.load_weight(0, 4)
        pe.select_weight(0)
        psum = _psum_two_cycles_later(pe, PEInputs(5, 3, TaggedPsum(10, 7), "odd"))
        assert psum == TaggedPsum(22, 7)
        assert pe.mac_count == 1

    def test_mac_saturates_at_the_39_bit_accumulator(self):
        pe = DualChannelPE(operand_format=FixedPointFormat(16, 8))
        # 32-bit products plus ceil(log2(121)) = 7 guard bits
        assert pe.accumulator_format.total_bits == 39
        top = (1 << 38) - 1
        pe.load_weight(0, 1000)
        pe.select_weight(0)
        high = _psum_two_cycles_later(pe, PEInputs(1000, None, TaggedPsum(top - 10, 1),
                                                   "even"))
        assert high.value == top
        low = _psum_two_cycles_later(pe, PEInputs(-1000, None, TaggedPsum(-top, 1),
                                                  "even"))
        assert low.value == -(1 << 38)

    def test_missing_pixel_forwards_psum_unchanged(self):
        pe = DualChannelPE()
        pe.load_weight(0, 3)
        pe.select_weight(0)
        psum = _psum_two_cycles_later(pe, PEInputs(None, None, TaggedPsum(5, 1), "even"))
        assert psum == TaggedPsum(5, 1)
        assert pe.mac_count == 0

    def test_channel_registers_forward_with_one_cycle_delay(self):
        pe = DualChannelPE()
        first = pe.evaluate(PEInputs(even_pixel=11, odd_pixel=22, psum=None, channel_select=None))
        assert first.even_pixel is None and first.odd_pixel is None
        pe.tick()
        second = pe.evaluate(PEInputs(even_pixel=0, odd_pixel=0, psum=None, channel_select=None))
        assert second.even_pixel == 11 and second.odd_pixel == 22

    def test_reset_datapath_keeps_weights(self):
        pe = DualChannelPE()
        pe.load_weight(0, 7)
        pe.select_weight(0)
        pe.evaluate(PEInputs(1, 1, TaggedPsum(0, 1), "even"))
        pe.tick()
        pe.reset_datapath()
        assert pe.weight_reg.value == 7
        assert pe.psum_reg_a.value is None

    def test_kmemory_rejects_out_of_range_address(self):
        pe = DualChannelPE(kmemory_depth=4)
        with pytest.raises(CapacityError):
            pe.load_weight(4, 1)
        with pytest.raises(CapacityError):
            pe.load_weight(-1, 1)
        with pytest.raises(CapacityError):
            pe.select_weight(4)

    @pytest.mark.parametrize("depth", [0, -3])
    def test_kmemory_rejects_non_positive_depth(self, depth):
        with pytest.raises(CapacityError):
            DualChannelPE(kmemory_depth=depth)

    def test_psum_reaches_the_next_pe_exactly_two_edges_later(self):
        pe = _loaded_pe(2)
        seen = []
        for inputs in (PEInputs(3, None, TaggedPsum(1, 4), "even"), IDLE, IDLE, IDLE):
            seen.append(pe.evaluate(inputs).psum)
            pe.tick()
        assert seen == [None, None, TaggedPsum(7, 4), None]

    def test_back_to_back_psums_emerge_in_order_one_per_cycle(self):
        pe = _loaded_pe(1)
        emerged = []
        for cycle in range(1, 8):
            inputs = (PEInputs(cycle, None, TaggedPsum(0, cycle), "even")
                      if cycle <= 4 else IDLE)
            emerged.append(pe.evaluate(inputs).psum)
            pe.tick()
        assert emerged == [None, None] + [TaggedPsum(t, t) for t in range(1, 5)] + [None]
        assert pe.mac_count == 4

    def test_mac_count_counts_every_mac(self):
        pe = _loaded_pe(1)
        for cycle in range(5):
            pe.evaluate(PEInputs(1, 1, TaggedPsum(0, cycle), "odd"))
            pe.tick()
        assert pe.mac_count == 5

    def test_idle_pe_performs_no_mac(self):
        # without a channel select the PE is idle: nothing is accumulated
        pe = _loaded_pe(3)
        assert _psum_two_cycles_later(pe, PEInputs(2, 5, TaggedPsum(1, 1), None)) is None
        assert _psum_two_cycles_later(pe, PEInputs(2, 5, None, "even")) is None
        assert pe.mac_count == 0

    def test_kmemory_slots_hold_independent_weights(self):
        weights = (5, -7, 0, 32767)
        pe = DualChannelPE(kmemory_depth=len(weights))
        for slot, weight in enumerate(weights):
            pe.load_weight(slot, weight)
        for slot in (3, 1, 0, 2):
            pe.select_weight(slot)
            assert pe.weight_reg.value == weights[slot]

    def test_kmemory_write_leaves_the_active_weight_until_reselected(self):
        # weights are stationary: loading the next kernel does not disturb
        # the MACs of the current one
        pe = _loaded_pe(5)
        pe.load_weight(0, 9)
        assert pe.weight_reg.value == 5
        psum = _psum_two_cycles_later(pe, PEInputs(2, None, TaggedPsum(0, 1), "even"))
        assert psum.value == 10
        pe.select_weight(0)
        assert pe.weight_reg.value == 9

    @pytest.mark.parametrize("total_bits, frac_bits", [(8, 4), (12, 6), (16, 8)])
    def test_accumulator_holds_121_full_width_products(self, total_bits, frac_bits):
        pe = DualChannelPE(operand_format=FixedPointFormat(total_bits, frac_bits))
        # the product doubles the width; ceil(log2(121)) = 7 guard bits on top
        assert pe.accumulator_format.total_bits == 2 * total_bits + 7
        assert pe.accumulator_format.frac_bits == 2 * frac_bits
        most_negative = -(1 << (total_bits - 1))
        assert 121 * most_negative * most_negative <= pe.accumulator_format.raw_max

    def test_reset_datapath_clears_channels_and_keeps_the_mac_count(self):
        pe = _loaded_pe(1)
        pe.evaluate(PEInputs(4, 6, TaggedPsum(0, 1), "odd"))
        pe.tick()
        pe.reset_datapath()
        assert pe.even_reg.value is None and pe.odd_reg.value is None
        assert pe.psum_reg_a.value is None and pe.psum_reg_b.value is None
        # the primitive's MAC total spans stripes, which reset the datapath
        assert pe.mac_count == 1


class TestSystolicPrimitiveBasics:
    def test_kernel_loading_is_column_major(self):
        primitive = SystolicPrimitive(kernel_size=3)
        kernel = np.arange(9).reshape(3, 3)
        primitive.load_kernel(kernel, slot=0)
        primitive.select_kernel(0)
        weights = [pe.weight_reg.value for pe in primitive.pes]
        # PE q holds kernel[q % K][q // K]
        assert weights == [kernel[q % 3, q // 3] for q in range(9)]
        assert weights[1] == kernel[1, 0] and weights[3] == kernel[0, 1]

    def test_kernel_shape_mismatch(self):
        primitive = SystolicPrimitive(kernel_size=3)
        with pytest.raises(MappingError):
            primitive.load_kernel(np.zeros((2, 2)))

    def test_invalid_kernel_size(self):
        with pytest.raises(MappingError):
            SystolicPrimitive(kernel_size=0)

    def test_drain_latency_scales_with_kernel(self):
        assert SystolicPrimitive(3).drain_latency() == 2 * 9 + 2
        assert SystolicPrimitive(5).drain_latency() == 2 * 25 + 2

    def test_select_kernel_switches_kmemory_slot(self):
        primitive = SystolicPrimitive(kernel_size=2)
        first, second = np.array([[1, 2], [3, 4]]), np.array([[-5, 6], [7, -8]])
        primitive.load_kernel(first, slot=0)
        primitive.load_kernel(second, slot=1)
        for slot, kernel in ((1, second), (0, first), (1, second)):
            primitive.select_kernel(slot)
            result = primitive.run_stripe(np.arange(9).reshape(3, 3))
            expected = conv2d_single_channel(np.arange(9.0).reshape(3, 3),
                                             kernel.astype(float))
            np.testing.assert_array_equal(_dense(result, 2, 2), expected)

    @pytest.mark.parametrize("kernel_size", [1, 2, 3, 4])
    def test_window_emerges_2k_squared_cycles_after_injection(self, kernel_size):
        primitive = _loaded_primitive(np.ones((kernel_size, kernel_size), dtype=int))
        emerged = [(cycle, primitive.step(None, None, inject_window=cycle == 1))
                   for cycle in range(1, primitive.drain_latency() + 2)]
        finished = [(cycle, psum) for cycle, psum in emerged if psum is not None]
        # K^2 MACs two cycles apart, then the last PE's two psum registers
        assert finished == [(1 + 2 * kernel_size ** 2, TaggedPsum(0, 1))]
        assert primitive.drain_latency() >= 2 * kernel_size ** 2

    def test_reset_datapath_restarts_the_cycle_count(self):
        primitive = _loaded_primitive(np.ones((2, 2), dtype=int))
        for _ in range(3):
            primitive.step(1, 2, inject_window=True)
        assert primitive.cycle == 3
        primitive.reset_datapath()
        assert primitive.cycle == 0
        # the windows in flight were flushed with the datapath
        assert all(primitive.step(None, None, inject_window=False) is None
                   for _ in range(primitive.drain_latency()))

    def test_pixels_without_a_window_emit_nothing(self):
        primitive = _loaded_primitive(np.ones((3, 3), dtype=int))
        assert all(primitive.step(cycle, -cycle, inject_window=False) is None
                   for cycle in range(40))
        assert primitive.total_macs == 0


class TestSystolicPrimitiveConvolution:
    def _run(self, kernel_size, rows, width, seed=0):
        rng = np.random.default_rng(seed)
        stripe = rng.integers(-8, 8, size=(rows, width))
        kernel = rng.integers(-4, 4, size=(kernel_size, kernel_size))
        primitive = SystolicPrimitive(kernel_size=kernel_size)
        primitive.load_kernel(kernel)
        primitive.select_kernel()
        result = primitive.run_stripe(stripe)
        expected = conv2d_single_channel(stripe.astype(float), kernel.astype(float))
        out_rows = rows - kernel_size + 1
        produced = _dense(result, out_rows, width - kernel_size + 1)
        return result, produced, expected[:out_rows]

    def test_full_stripe_k3_matches_reference(self):
        result, produced, expected = self._run(3, rows=5, width=9)
        np.testing.assert_array_equal(produced, expected)
        assert len(result.outputs) == expected.size

    def test_full_stripe_k2_matches_reference(self):
        _, produced, expected = self._run(2, rows=3, width=7)
        np.testing.assert_array_equal(produced, expected)

    def test_full_stripe_k5_matches_reference(self):
        _, produced, expected = self._run(5, rows=9, width=12, seed=3)
        np.testing.assert_array_equal(produced, expected)

    @pytest.mark.parametrize("kernel_size, width",
                             [(1, 6), (4, 9), (6, 10), (7, 12), (11, 13)])
    def test_full_stripe_matches_reference(self, kernel_size, width):
        result, produced, expected = self._run(kernel_size, rows=2 * kernel_size - 1,
                                                width=width, seed=kernel_size)
        np.testing.assert_array_equal(produced, expected)
        assert len(result.outputs) == expected.size

    def test_partial_stripe_produces_one_row(self):
        _, produced, expected = self._run(3, rows=3, width=8, seed=1)
        assert produced.shape == (1, 6)
        np.testing.assert_array_equal(produced, expected)

    def test_one_output_per_cycle_in_steady_state(self):
        result, _, expected = self._run(3, rows=5, width=30, seed=2)
        completion = [output.completion_cycle for output in result.outputs]
        # consecutive completions are one cycle apart within a column batch
        gaps = np.diff(sorted(completion))
        assert np.all(gaps >= 1)
        assert np.median(gaps) == 1.0

    def test_cycle_count_is_streaming_plus_drain(self):
        result, _, _ = self._run(3, rows=5, width=9)
        # K*(W-1) + (2K-1) streaming + drain
        assert result.cycles == (3 * 8 + 5) + SystolicPrimitive(3).drain_latency()

    def test_macs_counted(self):
        result, _, _ = self._run(3, rows=5, width=9)
        assert result.macs > 0
        assert result.macs <= result.cycles * 9

    def test_outputs_tagged_inside_stripe(self):
        result, _, _ = self._run(3, rows=5, width=9)
        for output in result.outputs:
            assert 0 <= output.out_row_in_stripe < 3
            assert 0 <= output.out_col < 7

    @pytest.mark.parametrize("kernel_size, rows, width", [(3, 5, 9), (3, 3, 8), (5, 7, 12)])
    def test_stripe_macs_equal_the_closed_form(self, kernel_size, rows, width):
        result, _, _ = self._run(kernel_size, rows=rows, width=width)
        assert result.macs == stripe_mac_count(kernel_size, width, rows)

    def test_back_to_back_stripes_share_no_state(self):
        rng = np.random.default_rng(7)
        kernel = rng.integers(-4, 4, size=(3, 3))
        first, second = rng.integers(-8, 8, size=(2, 5, 9))
        reused = _loaded_primitive(kernel)
        reused.run_stripe(first)
        again = reused.run_stripe(second)
        fresh = _loaded_primitive(kernel).run_stripe(second)
        assert again.outputs == fresh.outputs
        assert (again.cycles, again.macs) == (fresh.cycles, fresh.macs)

    def test_total_macs_accumulate_across_stripes(self):
        rng = np.random.default_rng(8)
        primitive = _loaded_primitive(rng.integers(-4, 4, size=(3, 3)))
        runs = [primitive.run_stripe(rng.integers(-8, 8, size=(rows, 9)))
                for rows in (5, 4, 3)]
        assert primitive.total_macs == sum(run.macs for run in runs)


class TestSystolicPrimitiveProperties:
    @given(
        kernel=st.integers(min_value=2, max_value=4),
        extra_width=st.integers(min_value=0, max_value=6),
        short_rows=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_primitive_equals_reference_convolution(self, kernel, extra_width, short_rows, seed):
        rows = max(kernel, 2 * kernel - 1 - short_rows)
        width = kernel + extra_width
        rng = np.random.default_rng(seed)
        stripe = rng.integers(-16, 16, size=(rows, width))
        weights = rng.integers(-8, 8, size=(kernel, kernel))
        primitive = SystolicPrimitive(kernel_size=kernel)
        primitive.load_kernel(weights)
        primitive.select_kernel()
        result = primitive.run_stripe(stripe)
        expected = conv2d_single_channel(stripe.astype(float), weights.astype(float))
        out_rows = rows - kernel + 1
        produced = _dense(result, out_rows, width - kernel + 1)
        np.testing.assert_array_equal(produced, expected[:out_rows])

    @given(
        kernel=st.integers(min_value=2, max_value=4),
        extra_width=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_output_count_matches_window_count(self, kernel, extra_width):
        width = kernel + extra_width
        rows = 2 * kernel - 1
        primitive = SystolicPrimitive(kernel_size=kernel)
        primitive.load_kernel(np.ones((kernel, kernel), dtype=int))
        primitive.select_kernel()
        result = primitive.run_stripe(np.ones((rows, width), dtype=int))
        assert len(result.outputs) == kernel * (width - kernel + 1)
