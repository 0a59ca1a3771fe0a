"""Tests for the DRAM model, the memory hierarchy and the Table IV traffic model."""

from __future__ import annotations

import pytest

from repro.analysis.batch import BatchDesignEvaluator
from repro.cnn.layer import ConvLayer
from repro.cnn.zoo import alexnet
from repro.core.config import ChainConfig
from repro.memory.dram import Dram, DramSpec
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.traffic import TrafficModel

#: Table IV as printed in the paper (MByte, batch 4)
PAPER_TABLE4 = {
    "conv1": {"DRAM": 9.0, "iMemory": 6.6, "kMemory": 15.4, "oMemory": 13.9},
    "conv2": {"DRAM": 5.5, "iMemory": 8.7, "kMemory": 17.8, "oMemory": 143.3},
    "conv3": {"DRAM": 4.3, "iMemory": 4.8, "kMemory": 37.2, "oMemory": 265.8},
    "conv4": {"DRAM": 3.4, "iMemory": 3.6, "kMemory": 27.9, "oMemory": 199.4},
    "conv5": {"DRAM": 2.3, "iMemory": 2.4, "kMemory": 18.6, "oMemory": 132.9},
}


class TestDram:
    def test_traffic_accounting(self):
        dram = Dram()
        dram.record_read(1000)
        dram.record_write(500)
        assert dram.total_bytes == 1500

    def test_transfer_time_uses_effective_bandwidth(self):
        spec = DramSpec(peak_bandwidth_bytes_per_s=10e9, efficiency=0.5)
        dram = Dram(spec)
        assert dram.transfer_time_s(5e9) == pytest.approx(1.0)

    def test_energy(self):
        dram = Dram(DramSpec(energy_per_byte_j=100e-12))
        assert dram.energy_j(1_000_000) == pytest.approx(100e-6)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Dram().record_read(-1)

    def test_reset(self):
        dram = Dram()
        dram.record_read(10)
        dram.reset()
        assert dram.total_bytes == 0


class TestMemoryHierarchy:
    def test_paper_sizes(self, paper_config):
        hierarchy = MemoryHierarchy(paper_config)
        sizes = hierarchy.sizes
        assert sizes.imemory_bytes == 32 * 1024
        assert sizes.omemory_bytes == 25 * 1024
        assert sizes.kmemory_bytes == 576 * 512
        assert sizes.total_bytes == paper_config.onchip_memory_bytes

    def test_traffic_collection(self, paper_config):
        hierarchy = MemoryHierarchy(paper_config)
        hierarchy.imemory.record_stream_read(100)
        hierarchy.omemory.record_stream_write(50)
        hierarchy.dram.record_read(64)
        traffic = hierarchy.traffic_bytes()
        assert traffic["iMemory"] == 200
        assert traffic["oMemory"] == 100
        assert traffic["DRAM"] == 64

    def test_reset(self, paper_config):
        hierarchy = MemoryHierarchy(paper_config)
        hierarchy.kmemory.record_stream_read(10)
        hierarchy.reset()
        assert hierarchy.traffic_bytes()["kMemory"] == 0


class TestTrafficModelTable4:
    @pytest.fixture(scope="class")
    def table(self):
        return BatchDesignEvaluator(alexnet(), base=ChainConfig()).breakdown(4).traffic_mb()

    @pytest.mark.parametrize("layer", sorted(PAPER_TABLE4))
    def test_omemory_column_matches_exactly(self, table, layer):
        assert table[layer]["oMemory"] == pytest.approx(PAPER_TABLE4[layer]["oMemory"], rel=0.01)

    @pytest.mark.parametrize("layer", ["conv1", "conv3", "conv4", "conv5"])
    def test_kmemory_close_for_most_layers(self, table, layer):
        assert table[layer]["kMemory"] == pytest.approx(PAPER_TABLE4[layer]["kMemory"], rel=0.10)

    @pytest.mark.parametrize("layer", ["conv2", "conv3", "conv4", "conv5"])
    def test_imemory_close_for_stride1_layers(self, table, layer):
        assert table[layer]["iMemory"] == pytest.approx(PAPER_TABLE4[layer]["iMemory"], rel=0.15)

    def test_ordering_omemory_dominates(self, table):
        totals = table["Total"]
        assert totals["oMemory"] > totals["kMemory"] > totals["iMemory"] > 0

    def test_dram_is_smallest_onchip_filter_works(self, table):
        # the on-chip hierarchy filters most traffic away from DRAM
        totals = table["Total"]
        assert totals["DRAM"] < totals["kMemory"]
        assert totals["DRAM"] < totals["oMemory"] / 10

    def test_total_row_is_sum_of_layers(self, table):
        for store in ("DRAM", "iMemory", "kMemory", "oMemory"):
            assert table["Total"][store] == pytest.approx(
                sum(table[layer][store] for layer in PAPER_TABLE4), rel=1e-6)


class TestTrafficModelStructure:
    def test_omemory_formula(self):
        model = TrafficModel(ChainConfig())
        layer = ConvLayer("t", 8, 4, 10, 10, kernel_size=3, padding=1)
        assert model.omemory_words(layer) == 2 * 10 * 10 * 4 * 8

    def test_kmemory_stride_dependence(self):
        model = TrafficModel(ChainConfig())
        stride1 = ConvLayer("s1", 4, 4, 12, 12, kernel_size=3, padding=1)
        stride2 = ConvLayer("s2", 4, 4, 25, 25, kernel_size=3, stride=2)
        # strided layers re-read the weight every output row, not every stripe
        assert model.kmemory_words(stride2) > model.kmemory_words(stride1)

    def test_traffic_scales_linearly_with_batch(self):
        model = TrafficModel(ChainConfig())
        layer = alexnet().conv_layer("conv3")
        one = model.layer_traffic(layer, batch=1)
        four = model.layer_traffic(layer, batch=4)
        assert four.omemory_bytes == 4 * one.omemory_bytes
        assert four.imemory_bytes == 4 * one.imemory_bytes
        # weights are loaded once per batch so DRAM grows sub-linearly
        assert four.dram_bytes < 4 * one.dram_bytes

    def test_reuse_summary_positive(self):
        model = TrafficModel(ChainConfig())
        summary = model.reuse_summary(alexnet().conv_layer("conv3"))
        assert all(value > 0 for value in summary.values())
        # stationary weights are reused far more than streamed ifmaps
        assert summary["weight_macs_per_kmemory_read"] > summary["macs_per_omemory_access"]

    def test_layer_traffic_totals(self):
        model = TrafficModel(ChainConfig())
        traffic = model.layer_traffic(alexnet().conv_layer("conv5"), batch=2)
        assert traffic.total_bytes == traffic.onchip_bytes + traffic.dram_bytes
        assert traffic.as_megabytes()["oMemory"] == pytest.approx(
            traffic.omemory_bytes / 1e6)
