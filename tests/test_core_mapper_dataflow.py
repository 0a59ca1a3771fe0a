"""Tests for the layer mapper and the Fig. 7 dataflow planner."""

from __future__ import annotations

import math

import pytest

from repro.cnn.layer import ConvLayer
from repro.cnn.zoo import alexnet, get_network
from repro.core.config import ChainConfig
from repro.core.dataflow import DataflowPlanner
from repro.core.mapper import LayerMapper
from repro.errors import MappingError


@pytest.fixture
def mapper(paper_config):
    return LayerMapper(paper_config)


@pytest.fixture
def planner(paper_config):
    return DataflowPlanner(paper_config)


class TestLayerMapper:
    def test_alexnet_conv3_mapping(self, mapper, alexnet_network):
        mapping = mapper.map_layer(alexnet_network.conv_layer("conv3"))
        assert mapping.active_primitives == 64
        assert mapping.active_pes == 576
        assert mapping.channel_pairs == 384 * 256
        assert mapping.passes == 1536
        assert mapping.kernel_load_cycles == 884_736

    def test_alexnet_conv1_mapping(self, mapper, alexnet_network):
        mapping = mapper.map_layer(alexnet_network.conv_layer("conv1"))
        assert mapping.active_primitives == 4
        assert mapping.spatial_utilization == pytest.approx(484 / 576)
        assert mapping.passes == 72

    def test_kmemory_refills_when_passes_exceed_capacity(self, mapper, alexnet_network):
        # conv3 needs 1536 weights per PE but kMemory holds 256
        mapping = mapper.map_layer(alexnet_network.conv_layer("conv3"))
        assert not mapping.weights_fit_in_kmemory
        assert mapping.kmemory_refills == 6

    def test_small_layer_fits_kmemory(self, mapper):
        layer = ConvLayer("small", 8, 8, 16, 16, kernel_size=3, padding=1)
        mapping = mapper.map_layer(layer)
        assert mapping.weights_fit_in_kmemory

    def test_kernel_too_large_for_chain(self):
        mapper = LayerMapper(ChainConfig(num_pes=36))
        with pytest.raises(MappingError):
            mapper.map_layer(ConvLayer("big", 1, 1, 20, 20, kernel_size=7))

    def test_stripes_per_pair(self, mapper, alexnet_network):
        mapping = mapper.map_layer(alexnet_network.conv_layer("conv3"))
        assert mapping.stripes_per_pair == [3, 3, 3, 3, 1]

    def test_map_network(self, mapper, alexnet_network):
        mappings = mapper.map_network(alexnet_network.conv_layers)
        assert len(mappings) == 5

    def test_describe(self, mapper, alexnet_network):
        text = mapper.map_layer(alexnet_network.conv_layer("conv1")).describe()
        assert "conv1" in text and "primitives" in text


class TestLayerMapperEdgeCases:
    """Mapper edge cases: oversized kernels, kMemory refills, grouped convs."""

    def test_kernel_area_exceeding_every_chain_size(self):
        # K^2 > P must raise for any chain shorter than the kernel area,
        # including the off-by-one boundary (P == K^2 - 1)
        layer = ConvLayer("k5", 1, 1, 16, 16, kernel_size=5)
        for pes in (1, 8, 24):
            with pytest.raises(MappingError):
                LayerMapper(ChainConfig(num_pes=pes)).map_layer(layer)
        mapping = LayerMapper(ChainConfig(num_pes=25)).map_layer(layer)
        assert mapping.active_primitives == 1
        assert mapping.spatial_utilization == 1.0

    def test_kmemory_refill_paths(self, alexnet_network):
        # conv3 needs 1536 weights/PE against a 256-word kMemory: chunking
        # the kernel stream changes the refill count but never the total
        # one-weight-per-cycle load volume
        layer = alexnet_network.conv_layer("conv3")
        mapper = LayerMapper(ChainConfig())
        full = mapper.map_layer_with(layer)
        assert (full.kernel_chunk, full.kmemory_refills) == (256, 6)
        halved = mapper.map_layer_with(layer, kernel_chunk=128)
        assert (halved.kernel_chunk, halved.kmemory_refills) == (128, 12)
        single = mapper.map_layer_with(layer, kernel_chunk=1)
        assert single.kmemory_refills == single.passes
        assert full.kernel_load_cycles == halved.kernel_load_cycles \
            == single.kernel_load_cycles == layer.weight_count

    def test_kernel_chunk_validation(self, mapper, alexnet_network):
        layer = alexnet_network.conv_layer("conv3")
        for chunk in (0, -1, 257):
            with pytest.raises(MappingError):
                mapper.map_layer_with(layer, kernel_chunk=chunk)

    def test_chunk_capped_by_weights_per_pe(self, mapper):
        # a layer whose weights fit easily: the effective chunk is the
        # per-PE weight demand, not the full kMemory capacity
        layer = ConvLayer("fits", 8, 8, 16, 16, kernel_size=3, padding=1)
        mapping = mapper.map_layer_with(layer, kernel_chunk=256)
        assert mapping.kernel_chunk == mapping.passes
        assert mapping.kmemory_refills == 1

    def test_grouped_conv_pass_accounting(self, mapper, grouped_layer):
        # groups halve the channel pairs: M * C/g, not M * C
        mapping = mapper.map_layer(grouped_layer)
        assert mapping.channel_pairs == 4 * 2
        # and passes follow the reduced pair count at any primitive budget
        narrowed = mapper.map_layer_with(grouped_layer, primitives=3)
        assert narrowed.passes == math.ceil(8 / 3)
        assert narrowed.active_primitives == 3
        assert narrowed.active_pes == 3 * 9

    def test_alexnet_grouped_layers_halve_pairs(self, mapper, alexnet_network):
        conv2 = alexnet_network.conv_layer("conv2")   # groups=2
        conv3 = alexnet_network.conv_layer("conv3")   # groups=1
        assert mapper.map_layer(conv2).channel_pairs == 256 * 48
        assert mapper.map_layer(conv3).channel_pairs == 384 * 256
        # kernel loading covers all groups' weights exactly once
        assert mapper.map_layer(conv2).kernel_load_cycles == conv2.weight_count

    def test_primitive_override_validation(self, mapper, alexnet_network):
        layer = alexnet_network.conv_layer("conv1")  # K=11 -> at most 4
        for primitives in (0, -2, 5):
            with pytest.raises(MappingError):
                mapper.map_layer_with(layer, primitives=primitives)
        narrowed = mapper.map_layer_with(layer, primitives=2)
        assert narrowed.active_primitives == 2
        assert narrowed.passes == math.ceil(288 / 2)

    def test_stripe_height_override(self, mapper, alexnet_network):
        layer = alexnet_network.conv_layer("conv3")  # E=13, K=3
        shorter = mapper.map_layer_with(layer, stripe_height=2)
        assert shorter.stripe_height == 2
        assert shorter.stripes_per_pair == [2, 2, 2, 2, 2, 2, 1]
        with pytest.raises(MappingError):
            mapper.map_layer_with(layer, stripe_height=4)
        with pytest.raises(MappingError):
            mapper.map_layer_with(layer, stripe_height=0)


#: kMemory (re)fills per AlexNet layer: weights per PE over 256 kMemory words
ALEXNET_REFILLS = {"conv1": 1, "conv2": 3, "conv3": 6, "conv4": 5, "conv5": 3}


class TestKernelResidency:
    @pytest.mark.parametrize("name,refills", sorted(ALEXNET_REFILLS.items()))
    def test_alexnet_refills(self, mapper, alexnet_network, paper_config, name,
                             refills):
        mapping = mapper.map_layer(alexnet_network.conv_layer(name))
        assert mapping.kmemory_refills == refills
        assert mapping.kmemory_refills == math.ceil(
            mapping.weights_per_pe / paper_config.kmemory_words_per_pe)

    @pytest.mark.parametrize("name,words", [
        ("alexnet", 1536), ("cifar10", 90), ("lenet5", 44), ("vgg16", 4096),
    ])
    def test_network_requirement_is_max_over_layers(self, mapper, name, words):
        layers = get_network(name).conv_layers
        assert max(mapper.map_layer(layer).weights_per_pe for layer in layers) == words

    def test_vgg16_keeps_every_pe_busy(self, mapper):
        # every VGG-16 layer is 3x3: 64 primitives of 9 PEs fill the chain
        for layer in get_network("vgg16").conv_layers:
            assert mapper.map_layer(layer).spatial_utilization == 1.0


class TestDataflowPlanner:
    def test_conv3_tiles(self, planner, alexnet_network, paper_config):
        layer = alexnet_network.conv_layer("conv3")
        tile = planner.plan(layer, active_primitives=64)
        assert tile.th == 3
        assert tile.stripe_rows == 5
        assert tile.tm == 64
        assert tile.ifmap_tile_bytes <= paper_config.imemory_bytes
        assert tile.ofmap_tile_bytes <= paper_config.omemory_bytes

    def test_conv1_tiles_fit_imemory(self, planner, alexnet_network, paper_config):
        layer = alexnet_network.conv_layer("conv1")
        tile = planner.plan(layer, active_primitives=4)
        assert tile.stripe_rows == 21
        assert tile.ifmap_tile_bytes <= paper_config.imemory_bytes

    def test_outer_and_inner_tile_counts(self, planner, alexnet_network):
        layer = alexnet_network.conv_layer("conv3")
        tile = planner.plan(layer, active_primitives=64)
        assert tile.outer_tiles == 6
        assert tile.inner_tiles == 5

    def test_iteration_order_counts(self, planner):
        layer = ConvLayer("t", 4, 6, 12, 12, kernel_size=3, padding=1)
        tile = planner.plan(layer, active_primitives=8)
        iterations = list(planner.iterations(tile, batch=2))
        # every (outer tile, image, inner tile, m, c) combination appears once
        expected = tile.outer_tiles * 2 * tile.inner_tiles * layer.out_channels \
            * layer.in_channels_per_group // tile.outer_tiles
        assert len(iterations) == expected
        # innermost loop is the ifmap channel
        assert [it.ifmap_channel for it in iterations[:4]] == [0, 1, 2, 3]

    def test_reuse_factors_positive_and_ordered(self, planner, alexnet_network):
        layer = alexnet_network.conv_layer("conv3")
        tile = planner.plan(layer, active_primitives=64)
        ifmap_reuse, weight_reuse, psum_reuse = planner.reuse_factors(tile)
        assert ifmap_reuse > psum_reuse > 0
        assert weight_reuse == pytest.approx(3 * 13)

    def test_tiny_imemory_raises(self):
        tiny = ChainConfig(imemory_bytes=64)
        planner = DataflowPlanner(tiny)
        layer = ConvLayer("wide", 1, 1, 64, 64, kernel_size=3)
        with pytest.raises(Exception):
            planner.plan(layer, active_primitives=1)

    def test_describe(self, planner, alexnet_network):
        layer = alexnet_network.conv_layer("conv2")
        tile = planner.plan(layer, active_primitives=23)
        assert "Tm=" in tile.describe()
