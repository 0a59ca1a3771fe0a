"""Tests for technology scaling, unit energies, the area model and the power model."""

from __future__ import annotations

import pytest

from repro.analysis.batch import BatchDesignEvaluator
from repro.cnn.zoo import alexnet
from repro.core.config import ChainConfig
from repro.energy.area import AreaModel
from repro.energy.components import (
    PAPER_POWER_BREAKDOWN_W,
    PAPER_TOTAL_POWER_W,
    EnergyParams,
    GateCountParams,
)
from repro.energy.power import PowerModel
from repro.energy.technology import (
    TSMC_28NM,
    TSMC_65NM,
    TechNode,
    scale_efficiency,
    scale_frequency,
)


class TestTechnologyScaling:
    def test_energy_scale_smaller_node_cheaper(self):
        assert TSMC_65NM.energy_scale_to(TSMC_28NM) < 1.0

    def test_efficiency_scaling_improves_at_smaller_node(self):
        scaled = scale_efficiency(245.6, TSMC_65NM, TSMC_28NM)
        assert scaled > 245.6

    def test_frequency_scaling(self):
        assert scale_frequency(250e6, TSMC_65NM, TSMC_28NM) == pytest.approx(250e6 * 65 / 28)

    def test_area_scaling_is_quadratic(self):
        assert TSMC_65NM.area_scale_to(TSMC_28NM) == pytest.approx((28 / 65) ** 2)

    def test_same_node_is_identity(self):
        assert TSMC_28NM.energy_scale_to(TSMC_28NM) == pytest.approx(1.0)
        assert TSMC_28NM.efficiency_scale_to(TSMC_28NM) == pytest.approx(1.0)

    def test_invalid_node(self):
        with pytest.raises(Exception):
            TechNode(name="bad", feature_nm=-1, nominal_voltage_v=1.0)


class TestEnergyParams:
    def test_pe_cycle_energy_is_sum_of_parts(self):
        params = EnergyParams()
        assert params.pe_cycle_j == pytest.approx(
            params.mac_op_j + params.pe_register_j + params.pe_control_j)

    def test_uniform_scaling(self):
        params = EnergyParams()
        scaled = params.scaled(0.5)
        assert scaled.mac_op_j == pytest.approx(params.mac_op_j * 0.5)
        assert scaled.dram_byte_j == params.dram_byte_j  # off-chip untouched

    def test_overrides(self):
        params = EnergyParams().with_overrides(kmemory_access_j=9e-12)
        assert params.kmemory_access_j == pytest.approx(9e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(Exception):
            EnergyParams(mac_op_j=0.0)

    def test_paper_breakdown_sums_to_total(self):
        assert sum(PAPER_POWER_BREAKDOWN_W.values()) == pytest.approx(
            PAPER_TOTAL_POWER_W, rel=1e-3)


class TestAreaModel:
    def test_gates_per_pe_matches_paper(self):
        assert GateCountParams().per_pe_gates == pytest.approx(6510, rel=0.02)

    def test_total_gates_matches_paper(self):
        report = AreaModel(ChainConfig()).report()
        assert report.total_gates == pytest.approx(3751e3, rel=0.02)

    def test_logic_gates_per_pe_near_6_5k(self):
        report = AreaModel(ChainConfig()).report()
        assert report.logic_gates_per_pe == pytest.approx(6510, rel=0.05)

    def test_onchip_memory_reported(self):
        report = AreaModel(ChainConfig()).report()
        assert report.onchip_memory_bytes == ChainConfig().onchip_memory_bytes

    def test_chain_gates_scale_with_pe_count(self):
        small = AreaModel(ChainConfig(num_pes=288)).report()
        large = AreaModel(ChainConfig(num_pes=576)).report()
        assert large.chain_gates == pytest.approx(2 * small.chain_gates)

    def test_breakdowns(self):
        model = AreaModel(ChainConfig())
        assert sum(model.pe_breakdown().values()) == GateCountParams().per_pe_gates
        report = model.report()
        assert sum(report.breakdown().values()) == pytest.approx(report.total_gates)


def workload_power(model: PowerModel, network, batch: int):
    """The workload power split of ``model``'s configuration and energies."""
    evaluator = BatchDesignEvaluator(network, base=model.config, energy=model.energy)
    return evaluator.breakdown(batch).power_report()


class TestPowerModel:
    @pytest.fixture(scope="class")
    def network(self):
        return alexnet()

    @pytest.fixture(scope="class")
    def model(self):
        return PowerModel(ChainConfig())

    def test_component_breakdown_present(self, model, network):
        report = workload_power(model, network, 4)
        assert set(report.components_w) == {"chain", "kMemory", "iMemory", "oMemory"}
        assert report.total_w > 0

    def test_chain_dominates_power(self, model, network):
        # the paper attributes ~80 % of the power to the chain
        report = workload_power(model, network, 4)
        assert report.fractions()["chain"] > 0.6

    def test_representative_total_in_right_regime(self, model, network):
        report = workload_power(model, network, 4)
        assert 0.2 < report.total_w < 1.2  # hundreds of milliwatts

    def test_calibration_reproduces_fig10(self, model, network):
        calibrated = model.calibrated_to_paper(network, batch=4)
        report = workload_power(calibrated, network, 4)
        for name, target in PAPER_POWER_BREAKDOWN_W.items():
            assert report.components_w[name] == pytest.approx(target, rel=0.01)
        assert report.total_w == pytest.approx(PAPER_TOTAL_POWER_W, rel=0.01)

    def test_calibrated_efficiency_is_1421_gops_per_watt(self, model, network):
        calibrated = model.calibrated_to_paper(network, batch=4)
        report = workload_power(calibrated, network, 4)
        assert ChainConfig().peak_gops / report.total_w == pytest.approx(1421.0, rel=0.01)

    def test_core_only_split(self, model, network):
        report = workload_power(model, network, 4)
        assert report.core_only_w + report.memory_hierarchy_w == pytest.approx(report.total_w)
        assert report.core_only_gops_per_watt > report.gops_per_watt

    def test_peak_power_exceeds_workload_power(self, model, network):
        peak = model.peak_power(kernel_size=3)
        workload = workload_power(model, network, 4)
        assert peak.components_w["chain"] >= workload.components_w["chain"]

    def test_power_scales_with_pe_count(self, network):
        small = workload_power(PowerModel(ChainConfig(num_pes=288)), network, 4)
        large = workload_power(PowerModel(ChainConfig(num_pes=576)), network, 4)
        # chain energy is work-proportional and the runtime roughly halves with
        # twice the PEs, so the average chain power roughly doubles
        assert large.components_w["chain"] > 1.5 * small.components_w["chain"]
