"""Tests for the column-wise scan schedule (the heart of the dual-channel PE)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnn.layer import ConvLayer
from repro.core.scan import ColumnScanSchedule, pair_geometry, stripe_mac_count, stripe_plan
from repro.errors import ConfigurationError
from repro.sim.functional_vectorized import stride_keep_mask


def _delivered(schedule, timestamp):
    """Pixels the two channels carry at ``timestamp``."""
    delivery = schedule.delivery_at(timestamp)
    return [pixel for pixel in (delivery.even, delivery.odd) if pixel is not None]


def _window_timestamps(schedule, tag):
    """Timestamps of the ``K x K`` patch of ``tag``'s window, column-major."""
    k = schedule.kernel_size
    return [schedule.timestamp(tag.out_row_in_stripe + i, tag.out_col + j)
            for j in range(k) for i in range(k)]


class TestTimestampMapping:
    def test_fig5b_timestamps_for_k3(self):
        # Fig. 5(b): a 5-row stripe, column c gets timestamps 3c+1 .. 3c+5
        schedule = ColumnScanSchedule(kernel_size=3, width=8)
        assert [schedule.timestamp(r, 0) for r in range(5)] == [1, 2, 3, 4, 5]
        assert [schedule.timestamp(r, 1) for r in range(5)] == [4, 5, 6, 7, 8]
        assert [schedule.timestamp(r, 2) for r in range(5)] == [7, 8, 9, 10, 11]

    def test_total_timestamps(self):
        schedule = ColumnScanSchedule(kernel_size=3, width=8)
        assert schedule.total_timestamps == 3 * 7 + 5  # K*(W-1) + (2K-1)

    def test_fill_latency_is_k_squared(self):
        # the first window completes at timestamp K^2
        for kernel, width in ((3, 8), (5, 12)):
            schedule = ColumnScanSchedule(kernel, width)
            assert schedule.valid_windows()[0].timestamp == kernel * kernel
            assert not schedule.window_ending_at(kernel * kernel - 1).valid

    def test_out_of_range_rejected(self):
        schedule = ColumnScanSchedule(3, 8)
        with pytest.raises(ConfigurationError):
            schedule.timestamp(5, 0)
        with pytest.raises(ConfigurationError):
            schedule.timestamp(0, 8)

    def test_width_must_fit_kernel(self):
        with pytest.raises(ConfigurationError):
            ColumnScanSchedule(kernel_size=5, width=4)

    def test_stripe_rows_bounds(self):
        with pytest.raises(ConfigurationError):
            ColumnScanSchedule(3, 8, stripe_rows=2)
        with pytest.raises(ConfigurationError):
            ColumnScanSchedule(3, 8, stripe_rows=6)


class TestDualChannelInvariant:
    @pytest.mark.parametrize("kernel", [2, 3, 5, 7])
    def test_at_most_two_pixels_share_a_timestamp(self, kernel):
        # the two channels carry every pixel of a timestamp, so no two of
        # them share a column parity
        schedule = ColumnScanSchedule(kernel, width=4 * kernel)
        for timestamp in range(1, schedule.total_timestamps + 1):
            pixels = schedule.pixels_at(timestamp)
            assert len(pixels) <= 2
            assert sorted(_delivered(schedule, timestamp)) == sorted(pixels)

    def test_shared_pixels_have_opposite_column_parity(self):
        schedule = ColumnScanSchedule(3, 10)
        for timestamp in range(1, schedule.total_timestamps + 1):
            pixels = schedule.pixels_at(timestamp)
            if len(pixels) == 2:
                assert pixels[0][1] % 2 != pixels[1][1] % 2

    def test_every_pixel_delivered_exactly_once(self):
        schedule = ColumnScanSchedule(3, 6)
        seen = set()
        for timestamp in range(1, schedule.total_timestamps + 1):
            for pixel in _delivered(schedule, timestamp):
                assert pixel not in seen
                seen.add(pixel)
        assert len(seen) == schedule.pixels_streamed()

    def test_average_rate_below_two_pixels_per_cycle(self):
        schedule = ColumnScanSchedule(5, 40)
        stamps = range(1, schedule.total_timestamps + 1)
        assert schedule.pixels_streamed() <= 2 * schedule.total_timestamps
        assert max(len(_delivered(schedule, t)) for t in stamps) == 2


class TestWindowEnumeration:
    def test_one_valid_window_per_cycle_in_steady_state(self):
        schedule = ColumnScanSchedule(3, 10)
        # every timestamp from K^2 up to the last interior window completes one
        interior = [schedule.window_ending_at(t) for t in range(9, schedule.total_timestamps + 1)]
        valid = [tag for tag in interior if tag.valid]
        assert len(valid) == 3 * (10 - 3 + 1)

    def test_window_timestamps_are_consecutive(self):
        schedule = ColumnScanSchedule(3, 8)
        for tag in schedule.valid_windows():
            assert (_window_timestamps(schedule, tag)
                    == list(range(tag.timestamp - 8, tag.timestamp + 1)))

    def test_partial_stripe_produces_fewer_rows(self):
        schedule = ColumnScanSchedule(3, 8, stripe_rows=3)
        assert schedule.out_rows == 1
        rows = {tag.out_row_in_stripe for tag in schedule.valid_windows()}
        assert rows == {0}

    def test_utilization_approaches_one_for_wide_stripes(self):
        narrow = ColumnScanSchedule(3, 6).utilization()
        wide = ColumnScanSchedule(3, 200).utilization()
        assert wide > narrow
        assert wide > 0.97


class TestStripePlan:
    def test_exact_multiple(self):
        assert stripe_plan(12, 3) == [3, 3, 3, 3]

    def test_remainder(self):
        assert stripe_plan(13, 3) == [3, 3, 3, 3, 1]

    def test_alexnet_conv1(self):
        assert stripe_plan(55, 11) == [11] * 5

    def test_single_row(self):
        assert stripe_plan(1, 5) == [1]

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            stripe_plan(0, 3)
        with pytest.raises(ConfigurationError):
            stripe_plan(5, 0)


class TestHypothesisInvariants:
    @given(kernel=st.integers(2, 7), extra_width=st.integers(0, 20))
    @settings(max_examples=50, deadline=None)
    def test_dual_channel_suffices_for_any_geometry(self, kernel, extra_width):
        schedule = ColumnScanSchedule(kernel, width=kernel + extra_width)
        assert all(len(schedule.pixels_at(t)) <= 2
                   for t in range(1, schedule.total_timestamps + 1))

    @given(kernel=st.integers(2, 6), extra_width=st.integers(0, 15),
           short=st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_valid_window_count_matches_geometry(self, kernel, extra_width, short):
        width = kernel + extra_width
        stripe_rows = max(kernel, 2 * kernel - 1 - short)
        schedule = ColumnScanSchedule(kernel, width, stripe_rows=stripe_rows)
        expected = (stripe_rows - kernel + 1) * (width - kernel + 1)
        assert len(schedule.valid_windows()) == expected

    @given(kernel=st.integers(2, 6), extra_width=st.integers(0, 15))
    @settings(max_examples=50, deadline=None)
    def test_every_window_completion_timestamp_is_unique(self, kernel, extra_width):
        schedule = ColumnScanSchedule(kernel, width=kernel + extra_width)
        stamps = [tag.timestamp for tag in schedule.valid_windows()]
        assert len(stamps) == len(set(stamps))

    @given(kernel=st.integers(2, 6), extra_width=st.integers(0, 15))
    @settings(max_examples=50, deadline=None)
    def test_window_pixels_all_streamed_before_completion(self, kernel, extra_width):
        schedule = ColumnScanSchedule(kernel, width=kernel + extra_width)
        for tag in schedule.valid_windows():
            assert max(_window_timestamps(schedule, tag)) == tag.timestamp


class TestPairGeometry:
    """The closed form of a pair's stripes against the schedules it sums."""

    @pytest.mark.parametrize("k", range(1, 12))
    def test_stripe_mac_count_matches_bruteforce(self, k):
        # the window injected at streaming cycle s meets pixel
        # (r0 + q % K, oc + q // K) at PE q; a MAC happens iff it is inside
        for width in (k, k + 1, 2 * k + 3):
            for rows in range(k, 2 * k):
                expected = 0
                for s in range(1, k * (width - 1) + rows + 1):
                    oc, r0 = (s - 1) // k, (s - 1) % k
                    expected += sum(1 for q in range(k * k)
                                    if r0 + q % k < rows and oc + q // k < width)
                assert stripe_mac_count(k, width, rows) == expected

    @pytest.mark.parametrize("layer", [
        ConvLayer("k1", 1, 1, 5, 7, kernel_size=1),
        ConvLayer("k3p1", 1, 1, 9, 9, kernel_size=3, padding=1),
        ConvLayer("k3s2", 1, 1, 13, 11, kernel_size=3, stride=2),
        ConvLayer("k5s3p2", 1, 1, 12, 10, kernel_size=5, stride=3, padding=2),
        ConvLayer("k7s2p3", 1, 1, 17, 15, kernel_size=7, stride=2, padding=3),
        ConvLayer("k11s4", 1, 1, 27, 31, kernel_size=11, stride=4),
    ], ids=lambda layer: layer.name)
    def test_matches_a_walk_of_scan_schedules(self, layer):
        k, width = layer.kernel_size, layer.padded_width
        for height in range(1, k + 1):
            schedules = [
                ColumnScanSchedule(k, width, min(height + k - 1, layer.padded_height - base))
                for base in range(0, layer.padded_height - k + 1, height)
            ]
            geometry = pair_geometry(layer, height)
            assert geometry.stripes == len(schedules)
            assert geometry.pixels_streamed == sum(s.pixels_streamed() for s in schedules)
            assert geometry.scan_cycles == sum(s.total_timestamps for s in schedules)
            assert geometry.drain_cycles == len(schedules) * (2 * k * k + 2)
            assert geometry.windows_evaluated == sum(len(s.valid_windows())
                                                     for s in schedules)
            assert geometry.macs == sum(stripe_mac_count(k, width, s.stripe_rows)
                                        for s in schedules)
            assert geometry.windows_kept == int(stride_keep_mask(layer).sum())

    def test_pair_geometry_covers_all_stride1_windows(self, tiny_layer):
        geometry = pair_geometry(tiny_layer)
        stride1_windows = ((tiny_layer.padded_height - tiny_layer.kernel_size + 1)
                           * (tiny_layer.padded_width - tiny_layer.kernel_size + 1))
        assert geometry.windows_evaluated == stride1_windows
        assert geometry.windows_kept == tiny_layer.out_height * tiny_layer.out_width
        assert geometry.primitive_cycles == geometry.scan_cycles + geometry.drain_cycles

    def test_stripe_height_is_validated(self, tiny_layer):
        for height in (0, tiny_layer.kernel_size + 1):
            with pytest.raises(ConfigurationError):
                pair_geometry(tiny_layer, height)
