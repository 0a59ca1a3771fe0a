"""Cross-model property tests (hypothesis).

These check invariants that must hold for *any* layer geometry, not just the
AlexNet/VGG shapes the paper evaluates: work conservation between the mapper
and the performance model, traffic lower bounds, utilization bounds, and
monotonicity of the analytical models in the quantities they should be
monotone in.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cnn.layer import ConvLayer
from repro.core.config import ChainConfig
from repro.core.mapper import LayerMapper
from repro.core.performance import PerformanceModel
from repro.memory.traffic import TrafficModel


@st.composite
def layer_strategy(draw):
    """A random but valid ConvLayer covering the supported kernel/stride space."""
    kernel = draw(st.sampled_from([1, 2, 3, 5, 7, 11]))
    stride = draw(st.sampled_from([1, 1, 1, 2, 4]))
    padding = draw(st.integers(0, kernel // 2))
    extra = draw(st.integers(0, 40))
    size = kernel + extra
    groups = draw(st.sampled_from([1, 1, 2]))
    in_channels = groups * draw(st.integers(1, 8))
    out_channels = groups * draw(st.integers(1, 8))
    return ConvLayer(
        name="prop",
        in_channels=in_channels,
        out_channels=out_channels,
        in_height=size,
        in_width=size,
        kernel_size=kernel,
        stride=stride,
        padding=padding,
        groups=groups,
    )


class TestMappingInvariants:
    @given(layer=layer_strategy())
    @settings(max_examples=60, deadline=None)
    def test_active_pes_never_exceed_chain(self, layer):
        mapping = LayerMapper(ChainConfig()).map_layer(layer)
        assert 0 < mapping.active_pes <= 576
        assert 0 < mapping.spatial_utilization <= 1.0

    @given(layer=layer_strategy())
    @settings(max_examples=60, deadline=None)
    def test_passes_cover_all_channel_pairs(self, layer):
        mapping = LayerMapper(ChainConfig()).map_layer(layer)
        covered = mapping.passes * mapping.active_primitives
        assert covered >= mapping.channel_pairs
        assert (mapping.passes - 1) * mapping.active_primitives < mapping.channel_pairs

    @given(layer=layer_strategy())
    @settings(max_examples=60, deadline=None)
    def test_kernel_load_cycles_equal_weight_count(self, layer):
        mapping = LayerMapper(ChainConfig()).map_layer(layer)
        assert mapping.kernel_load_cycles == layer.weight_count


class TestPerformanceInvariants:
    @given(layer=layer_strategy())
    @settings(max_examples=60, deadline=None)
    def test_cycles_respect_the_mac_bound(self, layer):
        model = PerformanceModel(ChainConfig())
        perf = model.layer_performance(layer)
        # the chain can never do more than one MAC per active PE per cycle
        assert perf.conv_cycles_per_image * perf.mapping.active_pes >= layer.macs * 0.999

    @given(layer=layer_strategy())
    @settings(max_examples=60, deadline=None)
    def test_utilizations_bounded(self, layer):
        perf = PerformanceModel(ChainConfig()).layer_performance(layer)
        assert 0.0 < perf.temporal_utilization <= 1.0 + 1e-9
        assert 0.0 < perf.effective_utilization <= 1.0 + 1e-9

    @given(layer=layer_strategy(), batch=st.sampled_from([1, 2, 8, 32]))
    @settings(max_examples=40, deadline=None)
    def test_batch_time_scales_linearly_in_convolution(self, layer, batch):
        model = PerformanceModel(ChainConfig())
        one = model.layer_performance(layer, 1)
        many = model.layer_performance(layer, batch)
        assert many.conv_cycles_per_batch == pytest.approx(batch * one.conv_cycles_per_image)
        # kernel loading does not grow with the batch
        assert many.kernel_load_cycles == one.kernel_load_cycles

    @given(layer=layer_strategy())
    @settings(max_examples=40, deadline=None)
    def test_detailed_mode_never_faster_than_paper_mode(self, layer):
        assume(layer.stride == 1)
        paper = PerformanceModel(ChainConfig(), mode="paper").pair_cycles(layer)
        detailed = PerformanceModel(ChainConfig(), mode="detailed").pair_cycles(layer)
        assert detailed >= paper


class TestTrafficInvariants:
    @given(layer=layer_strategy())
    @settings(max_examples=60, deadline=None)
    def test_traffic_lower_bounds(self, layer):
        model = TrafficModel(ChainConfig())
        traffic = model.layer_traffic(layer, batch=1)
        word = 2
        # DRAM must at least move every weight, every ifmap pixel and every ofmap pixel once
        compulsory = (layer.weight_count + layer.input_pixels + layer.output_pixels) * word
        assert traffic.dram_bytes >= compulsory
        # oMemory sees at least one write per output value
        assert traffic.omemory_bytes >= layer.output_pixels * word
        # kMemory is read at least once per weight
        assert traffic.kmemory_bytes >= layer.weight_count * word * 0.99

    @given(layer=layer_strategy())
    @settings(max_examples=40, deadline=None)
    def test_traffic_monotone_in_batch(self, layer):
        model = TrafficModel(ChainConfig())
        one = model.layer_traffic(layer, batch=1)
        two = model.layer_traffic(layer, batch=2)
        assert two.omemory_bytes == 2 * one.omemory_bytes
        assert two.dram_bytes < 2 * one.dram_bytes  # weights amortised
