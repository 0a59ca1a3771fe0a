"""Tests for the ChainNN facade and its one-point network evaluation."""

from __future__ import annotations

import pytest

from repro.cnn.zoo import alexnet, lenet5
from repro.core.accelerator import ChainNN
from repro.core.config import ChainConfig


@pytest.fixture(scope="module")
def chip():
    return ChainNN.paper_configuration()


@pytest.fixture(scope="module")
def alexnet_result(chip):
    return chip.evaluate(alexnet(), batch=4)


class TestFacadeBasics:
    def test_peak_gops(self, chip):
        assert chip.peak_gops == pytest.approx(806.4)

    def test_utilization_shortcut(self, chip):
        assert chip.utilization(11) == pytest.approx(484 / 576)

    def test_describe(self, chip):
        assert "576" in chip.describe()

    def test_custom_configuration(self):
        small = ChainNN(ChainConfig(num_pes=144, clock=ChainConfig().clock))
        assert small.peak_gops == pytest.approx(144 * 2 * 0.7)

    def test_power_calibration_constructor(self):
        calibrated = ChainNN.paper_configuration(calibrate_power_to=alexnet())
        point = calibrated.evaluate(alexnet(), 4)
        assert point.power_w * 1e3 == pytest.approx(567.5, rel=0.01)


class TestLayerResult:
    def test_layer_result_contains_all_views(self, chip, alexnet_result):
        assert chip.mapper.map_layer(alexnet().conv_layer("conv3")).active_primitives == 64
        conv3 = alexnet_result.layer_names.index("conv3")
        assert alexnet_result.conv_time_s[conv3] > 0
        assert alexnet_result.kernel_load_time_s[conv3] > 0
        assert alexnet_result.omemory_words[conv3] > alexnet_result.imemory_words[conv3]
        assert alexnet_result.dram_words[conv3] > 0

    def test_batch_propagates(self, chip):
        four, eight = chip.evaluate(alexnet(), batch=4), chip.evaluate(alexnet(), batch=8)
        assert eight.batch == 8
        conv5 = eight.layer_names.index("conv5")
        # convolution and on-chip traffic scale with the batch; kernels load once
        assert eight.conv_time_s[conv5] == pytest.approx(2 * four.conv_time_s[conv5])
        assert eight.omemory_words[conv5] == 2 * four.omemory_words[conv5]
        assert eight.kernel_load_time_s[conv5] == four.kernel_load_time_s[conv5]


class TestNetworkResult:
    def test_contains_one_entry_per_conv_layer(self, alexnet_result):
        assert alexnet_result.layer_names == ("conv1", "conv2", "conv3", "conv4", "conv5")
        assert len(alexnet_result.conv_time_s) == 5
        assert set(alexnet_result.traffic_mb()) == {*alexnet_result.layer_names, "Total"}

    def test_fps_and_efficiency_available(self, alexnet_result):
        assert alexnet_result.fps > 200
        assert alexnet_result.gops_per_watt > 500

    def test_summary_keys(self, alexnet_result):
        assert set(alexnet_result.power_components_w) == {
            "chain", "kMemory", "iMemory", "oMemory"}
        assert set(alexnet_result.layer_times_ms()) == set(alexnet_result.layer_names)

    def test_summary_consistency(self, alexnet_result):
        assert alexnet_result.fps == alexnet_result.batch / alexnet_result.total_time_per_batch_s
        assert alexnet_result.total_time_per_batch_s == (
            alexnet_result.conv_time_per_batch_s
            + alexnet_result.kernel_load_time_per_batch_s)
        report = alexnet_result.power_report()
        assert report.total_w == alexnet_result.power_w
        assert report.gops_per_watt == alexnet_result.gops_per_watt

    def test_other_networks_run(self, chip):
        result = chip.evaluate(lenet5(), batch=1)
        assert result.fps > 0
        assert len(result.layer_names) == 2
