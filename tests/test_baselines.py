"""Tests for the baseline architecture models and published specs (Table V inputs)."""

from __future__ import annotations

import pytest

from repro.baselines.chain_nn_model import ChainNNModel
from repro.baselines.memory_centric import MemoryCentricAccelerator, MemoryCentricParams
from repro.baselines.spatial_2d import Spatial2DAccelerator, Spatial2DParams
from repro.baselines.specs import (
    ALL_PUBLISHED_SPECS,
    CHAIN_NN_SPEC,
    DADIANNAO_SPEC,
    EYERISS_SPEC,
    PAPER_EFFICIENCY_RATIOS,
)
from repro.cnn.zoo import alexnet
from repro.energy.technology import TSMC_28NM


@pytest.fixture(scope="module")
def network():
    return alexnet()


class TestPublishedSpecs:
    def test_table5_columns(self):
        assert DADIANNAO_SPEC.peak_gops == pytest.approx(5584.9)
        assert DADIANNAO_SPEC.power_w == pytest.approx(15.97)
        assert EYERISS_SPEC.parallelism == 168
        assert CHAIN_NN_SPEC.peak_gops == pytest.approx(806.4)
        assert CHAIN_NN_SPEC.onchip_memory_bytes == 352 * 1024

    def test_dadiannao_efficiency_is_349_7(self):
        assert DADIANNAO_SPEC.energy_efficiency_gops_w == pytest.approx(349.7, rel=0.01)

    def test_eyeriss_uses_published_efficiency(self):
        assert EYERISS_SPEC.energy_efficiency_gops_w == pytest.approx(245.6)

    def test_eyeriss_paper_style_scaling_gives_570(self):
        scaled = EYERISS_SPEC.efficiency_scaled_paper_style(TSMC_28NM)
        assert scaled == pytest.approx(570.1, rel=0.01)

    def test_chain_nn_efficiency_is_1421(self):
        assert CHAIN_NN_SPEC.energy_efficiency_gops_w == pytest.approx(1421.0, rel=0.01)

    def test_paper_ratio_range_is_2_5_to_4_1(self):
        ratios = [PAPER_EFFICIENCY_RATIOS["vs DaDianNao"],
                  PAPER_EFFICIENCY_RATIOS["vs Eyeriss (scaled to 28nm)"]]
        assert min(ratios) == pytest.approx(2.5, abs=0.05)
        assert max(ratios) == pytest.approx(4.1, abs=0.05)

    def test_gates_per_pe(self):
        assert EYERISS_SPEC.gates_per_pe == pytest.approx(11024, rel=0.01)
        assert CHAIN_NN_SPEC.gates_per_pe == pytest.approx(6512, rel=0.01)

    def test_as_row_keys(self):
        for spec in ALL_PUBLISHED_SPECS:
            row = spec.as_row()
            assert "Energy Eff. (GOPS/W)" in row and "Parallelism" in row


class TestMemoryCentricModel:
    def test_peak_matches_dadiannao(self):
        model = MemoryCentricAccelerator()
        assert model.peak_gops == pytest.approx(5584.9, rel=0.01)

    def test_efficiency_lands_near_published(self, network):
        model = MemoryCentricAccelerator()
        summary = model.summarise(network, batch=4)
        assert summary.energy_efficiency_gops_w == pytest.approx(349.7, rel=0.10)

    def test_power_is_orders_of_magnitude_above_chain_nn(self, network):
        model = MemoryCentricAccelerator()
        assert model.workload_power_w(network, 4) > 5.0

    def test_energy_per_mac_includes_memory_movement(self):
        params = MemoryCentricParams()
        assert params.energy_per_mac_j > 3 * params.mac_op_j

    def test_workload_time_scales_with_batch(self, network):
        model = MemoryCentricAccelerator()
        assert model.workload_time_s(network, 8) == pytest.approx(
            2 * model.workload_time_s(network, 4))


class TestSpatial2DModel:
    def test_published_geometry(self):
        model = Spatial2DAccelerator()
        assert model.parallelism == 168
        assert model.gate_count() == pytest.approx(1852e3)
        assert model.gates_per_pe == pytest.approx(11024, rel=0.01)

    def test_65nm_efficiency_near_published(self, network):
        model = Spatial2DAccelerator()
        summary = model.summarise(network, batch=4)
        assert summary.energy_efficiency_gops_w == pytest.approx(245.6, rel=0.10)

    def test_scaled_to_28nm_lands_near_570(self, network):
        model = Spatial2DAccelerator.scaled_to_28nm()
        summary = model.summarise(network, batch=4)
        assert summary.energy_efficiency_gops_w == pytest.approx(570.1, rel=0.10)

    def test_scaling_preserves_parallelism_and_area(self):
        scaled = Spatial2DAccelerator.scaled_to_28nm()
        assert scaled.parallelism == 168
        assert scaled.gate_count() == pytest.approx(1852e3)
        assert scaled.frequency_hz > 250e6

    def test_energy_per_mac_is_above_raw_mac(self):
        params = Spatial2DParams()
        assert params.energy_per_mac_j > params.mac_op_j


class TestChainNNModelAdapter:
    def test_matches_facade_numbers(self, network):
        model = ChainNNModel()
        assert model.peak_gops == pytest.approx(806.4)
        assert model.gate_count() == pytest.approx(3751e3, rel=0.02)

    def test_calibrated_power(self, network):
        model = ChainNNModel(calibrate_power_to=network)
        assert model.workload_power_w(network, 4) == pytest.approx(0.5675, rel=0.01)

    def test_summary_row(self, network):
        summary = ChainNNModel(calibrate_power_to=network).summarise(network, batch=4)
        assert summary.energy_efficiency_gops_w == pytest.approx(1421.0, rel=0.02)
        assert summary.gates_per_pe == pytest.approx(6580, rel=0.05)
