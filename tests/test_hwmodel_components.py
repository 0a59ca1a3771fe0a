"""Tests for registers, MAC, mux and clock."""

from __future__ import annotations

import pytest

from repro.hwmodel.clock import ClockDomain
from repro.hwmodel.mac import MacUnit
from repro.hwmodel.mux import Mux
from repro.hwmodel.register import Pipeline, Register, ShiftRegister


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

    def test_hold_keeps_value(self):
        reg = Register(reset_value=1)
        reg.set_next(9)
        reg.tick()
        reg.hold()
        reg.tick()
        assert reg.value == 9

    def test_reset(self):
        reg = Register(reset_value=7)
        reg.set_next(1)
        reg.tick()
        reg.reset()
        assert reg.value == 7

    def test_write_count_tracks_changes_only(self):
        reg = Register(reset_value=0)
        reg.set_next(1)
        reg.tick()
        reg.set_next(1)
        reg.tick()
        reg.set_next(2)
        reg.tick()
        assert reg.write_count == 2


class TestShiftRegister:
    def test_values_emerge_after_depth_ticks(self):
        shift = ShiftRegister(depth=3, reset_value=0)
        outputs = []
        for value in [1, 2, 3, 4, 5]:
            shift.shift_in(value)
            outputs.append(shift.tick())
        # first three outputs are the reset value, then the inputs in order
        assert outputs == [0, 0, 0, 1, 2]

    def test_head_and_tail(self):
        shift = ShiftRegister(depth=2, reset_value=None)
        shift.shift_in("a")
        shift.tick()
        assert shift.head == "a"
        shift.shift_in("b")
        shift.tick()
        assert shift.head == "b"
        assert shift.tail == "a"

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            ShiftRegister(depth=0)

    def test_reset_clears_stages(self):
        shift = ShiftRegister(depth=2, reset_value=0)
        shift.shift_in(9)
        shift.tick()
        shift.reset()
        assert shift.stages == [0, 0]

    def test_len_and_iter(self):
        shift = ShiftRegister(depth=4, reset_value=0)
        assert len(shift) == 4
        assert list(shift) == [0, 0, 0, 0]


class TestPipeline:
    def test_zero_depth_is_a_wire(self):
        pipe = Pipeline(depth=0)
        pipe.push(42)
        assert pipe.tick() == 42

    def test_latency_matches_depth(self):
        pipe = Pipeline(depth=3)
        results = []
        for value in range(6):
            pipe.push(value)
            results.append(pipe.tick())
        assert results == [None, None, None, 0, 1, 2]

    def test_occupancy(self):
        pipe = Pipeline(depth=3)
        pipe.push(1)
        pipe.tick()
        pipe.tick()
        assert pipe.occupancy == 1

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            Pipeline(depth=-1)


class TestMacUnit:
    def test_compute_is_psum_plus_product(self):
        mac = MacUnit()
        assert mac.compute(3, 4, 10) == 22

    def test_mac_counter(self):
        mac = MacUnit()
        for _ in range(5):
            mac.compute(1, 1, 0)
        assert mac.mac_count == 5

    def test_saturation_at_accumulator_width(self):
        from repro.hwmodel.fixed_point import FixedPointFormat

        mac = MacUnit(accumulator_format=FixedPointFormat(8, 0))
        assert mac.compute(100, 100, 0) == 127

    def test_pipelined_issue_matches_compute(self):
        mac = MacUnit(pipeline_stages=3)
        mac.issue(2, 5, 1)
        # the result enters stage 0 on the first tick and emerges three ticks later
        results = [mac.tick() for _ in range(4)]
        assert results == [None, None, None, 11]
        assert mac.latency == 3


class TestMux:
    def test_selects_input(self):
        mux = Mux(num_inputs=2)
        assert mux.select(("even", "odd"), 1) == "odd"

    def test_counts_selects_and_toggles(self):
        mux = Mux(num_inputs=2)
        mux.select((1, 2), 0)
        mux.select((1, 2), 0)
        mux.select((1, 2), 1)
        assert mux.select_count == 3
        assert mux.toggle_count == 1

    def test_rejects_bad_select(self):
        mux = Mux(num_inputs=2)
        with pytest.raises(ValueError):
            mux.select((1, 2), 2)

    def test_rejects_wrong_input_count(self):
        mux = Mux(num_inputs=2)
        with pytest.raises(ValueError):
            mux.select((1, 2, 3), 0)

    def test_needs_at_least_two_inputs(self):
        with pytest.raises(ValueError):
            Mux(num_inputs=1)


class TestClockDomain:
    def test_paper_frequency_period(self):
        clock = ClockDomain(700e6)
        assert clock.period_ns == pytest.approx(1.4286, rel=1e-3)

    def test_cycle_time_round_trip(self):
        clock = ClockDomain(700e6)
        cycles = 871_200
        assert clock.seconds_to_cycles(clock.cycles_to_seconds(cycles)) == pytest.approx(cycles)

    def test_scaled(self):
        clock = ClockDomain(350e6)
        assert clock.scaled(2.0).frequency_hz == pytest.approx(700e6)

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            ClockDomain(700e6).cycles_to_seconds(-1)
