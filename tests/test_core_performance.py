"""Tests for the analytical performance model (Fig. 9 / Sec. V.B numbers)."""

from __future__ import annotations

import pytest

from repro.analysis.batch import BatchDesignEvaluator
from repro.cnn.layer import ConvLayer
from repro.cnn.zoo import get_network
from repro.core.config import ChainConfig
from repro.core.performance import PerformanceModel
from repro.errors import ConfigurationError


@pytest.fixture
def model(paper_config):
    return PerformanceModel(paper_config)


@pytest.fixture
def evaluator(paper_config, alexnet_network):
    """Network-level timing: the columnar model at the paper design point."""
    return BatchDesignEvaluator(alexnet_network, base=paper_config)


#: Fig. 9 convolution times in milliseconds for a 128-image batch
PAPER_LAYER_TIMES_MS = {
    "conv1": 159.30,
    "conv2": 102.10,
    "conv3": 57.20,
    "conv4": 42.90,
    "conv5": 28.60,
}


class TestPairCycles:
    def test_stride1_formula(self, model):
        layer = ConvLayer("t", 1, 1, 13, 13, kernel_size=3, padding=1)
        # stripes = 13/3, per stripe = 3*13 + 8
        assert model.pair_cycles(layer) == pytest.approx((13 / 3) * (3 * 13 + 8))

    def test_strided_layer_is_input_bound(self, model, alexnet_network):
        conv1 = alexnet_network.conv_layer("conv1")
        # 5 stripes x K*E*S = 5 x 11*55*4
        assert model.pair_cycles(conv1) == pytest.approx(5 * 11 * 55 * 4)

    def test_single_channel_pays_factor_k(self, model):
        layer = ConvLayer("t", 1, 1, 13, 13, kernel_size=3, padding=1)
        assert model.single_channel_pair_cycles(layer) == pytest.approx(
            3 * model.pair_cycles(layer))

    def test_detailed_mode_is_more_conservative(self, paper_config):
        paper = PerformanceModel(paper_config, mode="paper")
        detailed = PerformanceModel(paper_config, mode="detailed")
        layer = ConvLayer("t", 1, 1, 13, 13, kernel_size=3, padding=1)
        assert detailed.pair_cycles(layer) > paper.pair_cycles(layer)

    def test_invalid_mode(self, paper_config):
        with pytest.raises(ConfigurationError):
            PerformanceModel(paper_config, mode="magic")


class TestAlexNetLayerTimes:
    @pytest.mark.parametrize("name,paper_ms", sorted(PAPER_LAYER_TIMES_MS.items()))
    def test_layer_times_match_fig9(self, model, alexnet_network, name, paper_ms):
        layer = alexnet_network.conv_layer(name)
        perf = model.layer_performance(layer, batch=128)
        measured_ms = perf.conv_time_per_batch_s * 1e3
        # conv2's published time includes stalls the paper does not explain;
        # all other layers reproduce to a fraction of a percent
        tolerance = 0.20 if name == "conv2" else 0.01
        assert measured_ms == pytest.approx(paper_ms, rel=tolerance)

    def test_kernel_load_is_one_weight_per_cycle(self, model, alexnet_network):
        conv3 = alexnet_network.conv_layer("conv3")
        perf = model.layer_performance(conv3, batch=128)
        assert perf.kernel_load_cycles == conv3.weight_count
        assert perf.kernel_load_time_s * 1e3 == pytest.approx(1.23, rel=0.05)

    def test_layer_ordering_matches_paper(self, model, alexnet_network):
        times = {
            layer.name: model.layer_performance(layer, 128).conv_time_per_batch_s
            for layer in alexnet_network.conv_layers
        }
        assert times["conv1"] > times["conv2"] > times["conv3"] > times["conv4"] > times["conv5"]


class TestNetworkPerformance:
    def test_fps_batch_128(self, evaluator):
        point = evaluator.breakdown(128)
        # paper: 326.2 fps; our conv2 is faster so we land a few percent above
        assert point.fps == pytest.approx(326.2, rel=0.06)

    def test_fps_batch_4(self, evaluator):
        assert evaluator.breakdown(4).fps == pytest.approx(275.6, rel=0.05)

    def test_larger_batches_amortise_kernel_loading(self, evaluator):
        fps = [evaluator.breakdown(b).fps for b in (1, 4, 32, 128)]
        assert fps == sorted(fps)

    @pytest.mark.parametrize("higher,lower,share", [
        # every VGG-16 layer is 3x3 stride 1, so the chain stays busier
        ("vgg16", "alexnet", "of_peak"),
        # small conv workloads amortise their kernel loads less
        ("lenet5", "alexnet", "kernel_load"),
        ("cifar10", "vgg16", "kernel_load"),
    ])
    def test_zoo_shares_at_batch_8(self, paper_config, higher, lower, share):
        def value(name):
            point = BatchDesignEvaluator(get_network(name),
                                         base=paper_config).breakdown(8)
            if share == "of_peak":
                return point.achieved_gops / point.peak_gops
            return point.kernel_load_time_per_batch_s / point.total_time_per_batch_s

        assert value(higher) > value(lower)

    def test_achieved_gops_below_peak(self, evaluator, paper_config):
        point = evaluator.breakdown(128)
        assert point.achieved_gops < paper_config.peak_gops
        assert point.achieved_gops / point.peak_gops > 0.5

    def test_peak_gops(self, paper_config):
        assert paper_config.peak_gops == pytest.approx(806.4)

    def test_layer_times_dict_keys(self, evaluator):
        assert set(evaluator.breakdown(128).layer_times_ms()) == set(PAPER_LAYER_TIMES_MS)

    def test_invalid_batch(self, model, alexnet_network):
        with pytest.raises(ConfigurationError):
            model.layer_performance(alexnet_network.conv_layer("conv1"), batch=0)


class TestBatchTimeline:
    """A batch runs layer by layer: load the kernels once, then stream every
    image.  The columnar breakdown must tell the same story as the per-layer
    model."""

    @pytest.mark.parametrize("batch", [1, 2, 4, 16, 64, 128])
    def test_breakdown_sums_the_layer_model(self, evaluator, model, alexnet_network,
                                            batch):
        point = evaluator.breakdown(batch)
        layers = [model.layer_performance(layer, batch)
                  for layer in alexnet_network.conv_layers]
        assert point.total_time_per_batch_s == pytest.approx(
            sum(perf.total_time_per_batch_s for perf in layers))
        assert point.kernel_load_time_per_batch_s == pytest.approx(
            sum(perf.kernel_load_time_s for perf in layers))
        assert point.fps == pytest.approx(batch / point.total_time_per_batch_s)

    @pytest.mark.parametrize("name,paper_ms", sorted(PAPER_LAYER_TIMES_MS.items()))
    def test_fig9_bars(self, evaluator, alexnet_network, paper_config, name, paper_ms):
        point = evaluator.breakdown(128)
        tolerance = 0.20 if name == "conv2" else 0.01
        assert point.layer_times_ms()[name] == pytest.approx(paper_ms, rel=tolerance)
        # one weight per cycle, once per batch
        weights = alexnet_network.conv_layer(name).weight_count
        assert point.kernel_load_times_ms()[name] == pytest.approx(
            weights / paper_config.frequency_hz * 1e3)

    def test_kernel_load_share_shrinks_with_batch(self, evaluator):
        def share(batch):
            point = evaluator.breakdown(batch)
            return point.kernel_load_time_per_batch_s / point.total_time_per_batch_s

        assert share(128) < share(1)
        assert share(128) < 0.02

    def test_invalid_batch(self, evaluator):
        with pytest.raises(ConfigurationError):
            evaluator.breakdown(0)

    def test_lenet_streams_both_conv_layers(self, paper_config):
        point = BatchDesignEvaluator(get_network("lenet5"),
                                     base=paper_config).breakdown(16)
        assert point.layer_names == ("conv1", "conv2")
        assert point.fps > 1000


ZOO = ("alexnet", "cifar10", "lenet5", "vgg16")


class TestZooNetworks:
    """Every zoo network on the paper's chain."""

    @pytest.fixture(scope="class")
    def evaluators(self):
        config = ChainConfig.paper_default()
        return {name: BatchDesignEvaluator(get_network(name), base=config)
                for name in ZOO}

    @pytest.mark.parametrize("name", ZOO)
    def test_sustained_rate_below_peak(self, evaluators, name):
        point = evaluators[name].breakdown(8)
        assert point.peak_gops == pytest.approx(806.4)
        assert 0 < point.achieved_gops < point.peak_gops

    @pytest.mark.parametrize("name", ZOO)
    def test_every_conv_layer_loads_and_streams(self, evaluators, name):
        point = evaluators[name].breakdown(8)
        network = get_network(name)
        assert point.layer_names == tuple(layer.name for layer in network.conv_layers)
        assert all(seconds > 0 for seconds in point.conv_time_s)
        assert all(seconds > 0 for seconds in point.kernel_load_time_s)

    @pytest.mark.parametrize("name", ZOO)
    def test_kernel_load_share_falls_with_batch(self, evaluators, name):
        def share(batch):
            point = evaluators[name].breakdown(batch)
            return point.kernel_load_time_per_batch_s / point.total_time_per_batch_s

        assert share(1) > share(8) > share(128)

    def test_alexnet_at_batch_8(self, evaluators):
        assert get_network("alexnet").total_conv_macs == pytest.approx(666e6, rel=0.01)
        assert 250 < evaluators["alexnet"].breakdown(8).fps < 400


class TestUtilizationMetrics:
    def test_temporal_utilization_below_one(self, model, alexnet_network):
        for layer in alexnet_network.conv_layers:
            perf = model.layer_performance(layer)
            assert 0.0 < perf.temporal_utilization <= 1.0

    def test_conv1_effective_utilization_reflects_stride_waste(self, model, alexnet_network):
        conv1 = model.layer_performance(alexnet_network.conv_layer("conv1"))
        conv3 = model.layer_performance(alexnet_network.conv_layer("conv3"))
        assert conv1.effective_utilization < conv3.effective_utilization

    def test_single_channel_config_is_k_times_slower(self, alexnet_network):
        dual = PerformanceModel(ChainConfig())
        single = PerformanceModel(ChainConfig().single_channel())
        layer = alexnet_network.conv_layer("conv3")
        ratio = (single.layer_performance(layer).conv_cycles_per_image
                 / dual.layer_performance(layer).conv_cycles_per_image)
        assert ratio == pytest.approx(3.0)


class TestScalingBehaviour:
    def test_cycles_scale_inversely_with_primitives(self, alexnet_network):
        big = PerformanceModel(ChainConfig(num_pes=1152))
        small = PerformanceModel(ChainConfig(num_pes=576))
        layer = alexnet_network.conv_layer("conv3")
        ratio = (small.layer_performance(layer).conv_cycles_per_image
                 / big.layer_performance(layer).conv_cycles_per_image)
        assert ratio == pytest.approx(2.0)

    def test_time_scales_inversely_with_frequency(self, alexnet_network):
        fast = PerformanceModel(ChainConfig().with_frequency(1400e6))
        slow = PerformanceModel(ChainConfig())
        layer = alexnet_network.conv_layer("conv4")
        assert slow.layer_performance(layer).conv_time_per_image_s == pytest.approx(
            2 * fast.layer_performance(layer).conv_time_per_image_s)
