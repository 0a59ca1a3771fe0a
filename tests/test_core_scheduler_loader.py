"""Tests for the batch scheduler and the kernel-loading planner."""

from __future__ import annotations

import pytest

from repro.analysis.batch import BatchDesignEvaluator
from repro.cnn.layer import ConvLayer
from repro.cnn.zoo import alexnet, lenet5
from repro.core.config import ChainConfig
from repro.core.kernel_loader import KernelLoader
from repro.core.scheduler import BatchScheduler
from repro.errors import CapacityError, ConfigurationError


@pytest.fixture(scope="module")
def scheduler():
    return BatchScheduler(ChainConfig())


@pytest.fixture(scope="module")
def loader():
    return KernelLoader(ChainConfig())


class TestBatchScheduler:
    def test_segments_alternate_load_and_convolution(self, scheduler, alexnet_network):
        schedule = scheduler.schedule(alexnet_network, batch=4)
        kinds = [segment.kind for segment in schedule.segments]
        assert kinds == ["kernel_load", "convolution"] * 5

    def test_segments_are_contiguous_and_ordered(self, scheduler, alexnet_network):
        schedule = scheduler.schedule(alexnet_network, batch=4)
        cursor = 0.0
        for segment in schedule.segments:
            assert segment.start_cycle == pytest.approx(cursor)
            assert segment.end_cycle >= segment.start_cycle
            cursor = segment.end_cycle
        assert schedule.total_cycles == pytest.approx(cursor)

    def test_schedule_matches_performance_model(self, scheduler, alexnet_network):
        schedule = scheduler.schedule(alexnet_network, batch=128)
        point = BatchDesignEvaluator(alexnet_network, base=scheduler.config).breakdown(128)
        assert schedule.total_time_s == pytest.approx(point.total_time_per_batch_s)
        assert schedule.frames_per_second == pytest.approx(point.fps)

    def test_kernel_load_fraction_shrinks_with_batch(self, scheduler, alexnet_network):
        small = scheduler.schedule(alexnet_network, batch=1)
        large = scheduler.schedule(alexnet_network, batch=128)
        assert large.kernel_load_fraction < small.kernel_load_fraction
        assert large.kernel_load_fraction < 0.02

    def test_first_image_latency_exceeds_average_latency(self, scheduler, alexnet_network):
        schedule = scheduler.schedule(alexnet_network, batch=128)
        average_latency = 1.0 / schedule.frames_per_second
        # batch-blocked scheduling trades first-image latency for throughput
        assert schedule.first_image_latency_s() > 10 * average_latency

    def test_single_image_latency_close_to_makespan(self, scheduler, alexnet_network):
        schedule = scheduler.schedule(alexnet_network, batch=1)
        assert schedule.first_image_latency_s() == pytest.approx(schedule.total_time_s)

    def test_per_layer_breakdown(self, scheduler, alexnet_network):
        schedule = scheduler.schedule(alexnet_network, batch=128)
        breakdown = schedule.per_layer_breakdown_ms()
        assert set(breakdown) == {"conv1", "conv2", "conv3", "conv4", "conv5"}
        assert breakdown["conv1"]["convolution_ms"] == pytest.approx(159.3, rel=0.01)
        assert breakdown["conv3"]["kernel_load_ms"] == pytest.approx(1.26, rel=0.05)

    def test_batch_sensitivity_sweep(self, scheduler, alexnet_network):
        table = scheduler.batch_sensitivity(alexnet_network, batches=(1, 4, 128))
        assert table[128]["fps"] > table[4]["fps"] > table[1]["fps"]
        assert table[1]["kernel_load_fraction"] > table[128]["kernel_load_fraction"]

    def test_invalid_batch(self, scheduler, alexnet_network):
        with pytest.raises(ConfigurationError):
            scheduler.schedule(alexnet_network, batch=0)

    def test_lenet_schedules_too(self, scheduler):
        schedule = scheduler.schedule(lenet5(), batch=16)
        assert len(schedule.segments) == 4
        assert schedule.frames_per_second > 1000


class TestKernelLoader:
    def test_load_cycles_equal_weight_count(self, loader, alexnet_network):
        for layer in alexnet_network.conv_layers:
            plan = loader.plan_layer(layer)
            assert plan.load_cycles == layer.weight_count
            assert plan.kmemory_write_words == layer.weight_count

    def test_alexnet_refills(self, loader, alexnet_network):
        refills = loader.validate_against_capacity(alexnet_network)
        assert refills == {"conv1": 1, "conv2": 3, "conv3": 6, "conv4": 5, "conv5": 3}

    def test_strict_validation_raises_for_alexnet(self, loader, alexnet_network):
        with pytest.raises(CapacityError):
            loader.validate_against_capacity(alexnet_network, strict=True)

    def test_small_layer_fits(self, loader):
        layer = ConvLayer("small", 8, 8, 16, 16, kernel_size=3, padding=1)
        plan = loader.plan_layer(layer)
        assert plan.fits_in_kmemory
        assert plan.kmemory_occupancy < 1.0

    def test_placement_round_robin_over_primitives(self, loader):
        # 16 x 8 = 128 channel pairs over 64 primitives -> two full passes
        layer = ConvLayer("p", 16, 8, 10, 10, kernel_size=3, padding=1)
        plan = loader.plan_layer(layer)
        first_pass = [p for p in plan.placements if p.pass_index == 0]
        assert len(first_pass) == 64  # one pair per primitive before wrapping
        assert {p.primitive_index for p in first_pass} == set(range(64))

    def test_placements_for_primitive(self, loader):
        layer = ConvLayer("p", 4, 4, 10, 10, kernel_size=3, padding=1)
        plan = loader.plan_layer(layer)
        zero = plan.placements_for_primitive(0)
        assert all(p.primitive_index == 0 for p in zero)
        assert [p.pass_index for p in zero] == sorted(p.pass_index for p in zero)

    def test_kmemory_slots_stay_in_range(self, loader, alexnet_network):
        plan = loader.plan_layer(alexnet_network.conv_layer("conv3"), max_placements=5000)
        assert all(0 <= p.kmemory_slot < 256 for p in plan.placements)

    def test_max_placements_caps_list_not_counts(self, loader, alexnet_network):
        conv3 = alexnet_network.conv_layer("conv3")
        plan = loader.plan_layer(conv3, max_placements=100)
        assert len(plan.placements) == 100
        assert plan.weights_per_pe == 1536

    def test_network_requirement_is_max_over_layers(self, loader, alexnet_network):
        assert loader.network_kmemory_requirement(alexnet_network) == 1536

    def test_grouped_layer_placement_channels(self, loader):
        layer = ConvLayer("g", 4, 4, 10, 10, kernel_size=3, padding=1, groups=2)
        plan = loader.plan_layer(layer)
        # group 0 output channels only ever pair with group 0 input channels
        for placement in plan.placements:
            group_of_m = placement.ofmap_channel // 2
            group_of_c = placement.ifmap_channel // 2
            assert group_of_m == group_of_c
