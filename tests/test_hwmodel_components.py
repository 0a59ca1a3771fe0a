"""Tests for the clock domain."""

from __future__ import annotations

import pytest

from repro.hwmodel.clock import ClockDomain


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
