"""Experiment: Fig. 10 — power breakdown and energy efficiency.

The paper reports 567.5 mW while sustaining 806.4 GOPS, i.e. 1421 GOPS/W,
split as: 1D chain 466.7 mW (80.8 %), kMemory 40.2 mW (8.6 %), iMemory
3.9 mW (0.8 %), oMemory 56.7 mW (9.7 %); core-only efficiency ~1.7 TOPS/W
against DaDianNao's ~3.0 TOPS/W core-only but 349.7 GOPS/W whole-chip.

The experiment produces the breakdown twice: with the representative 28 nm
unit energies (to show the model lands in the right regime uncalibrated) and
with the unit energies calibrated to the paper (used for the Table V
comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.batch import BatchDesignEvaluator
from repro.analysis.report import render_comparison
from repro.baselines.specs import DADIANNAO_SPEC
from repro.cnn.zoo import alexnet
from repro.core.config import ChainConfig
from repro.energy.components import PAPER_POWER_BREAKDOWN_W, PAPER_TOTAL_POWER_W
from repro.energy.power import PowerModel, PowerReport

#: Fig. 10 reference values
PAPER_BREAKDOWN_MW: Dict[str, float] = {
    name: watts * 1e3 for name, watts in PAPER_POWER_BREAKDOWN_W.items()
}
PAPER_TOTAL_MW = PAPER_TOTAL_POWER_W * 1e3
PAPER_EFFICIENCY_GOPS_W = 1421.0
PAPER_CORE_ONLY_GOPS_W = 1727.8
PAPER_DADIANNAO_TOTAL_GOPS_W = 349.7
PAPER_DADIANNAO_CORE_GOPS_W = 3035.3


@dataclass(frozen=True)
class Fig10Result:
    """Measured and published power breakdown."""

    representative: PowerReport
    calibrated: PowerReport
    peak_gops: float

    def measured_breakdown_mw(self, calibrated: bool = True) -> Dict[str, float]:
        """Per-block power in milliwatts."""
        report = self.calibrated if calibrated else self.representative
        return {name: watts * 1e3 for name, watts in report.components_w.items()}

    def measured_efficiency(self, calibrated: bool = True) -> float:
        """Peak-throughput energy efficiency in GOPS/W."""
        report = self.calibrated if calibrated else self.representative
        return self.peak_gops / report.total_w if report.total_w else 0.0

    def report(self) -> str:
        """Human-readable paper-vs-measured report."""
        sections = [
            render_comparison(PAPER_BREAKDOWN_MW, self.measured_breakdown_mw(calibrated=False),
                              title="Fig. 10 - power breakdown, representative 28nm energies (mW)"),
            render_comparison(PAPER_BREAKDOWN_MW, self.measured_breakdown_mw(calibrated=True),
                              title="Fig. 10 - power breakdown, calibrated energies (mW)"),
            render_comparison(
                {"total power (mW)": PAPER_TOTAL_MW,
                 "energy efficiency (GOPS/W)": PAPER_EFFICIENCY_GOPS_W},
                {"total power (mW)": self.calibrated.total_w * 1e3,
                 "energy efficiency (GOPS/W)": self.measured_efficiency()},
                title="Fig. 10 - headline numbers (calibrated)"),
        ]
        return "\n\n".join(sections)

    def chain_vs_dadiannao(self) -> Dict[str, float]:
        """The Fig. 10 right-hand comparison: whole-chip and core-only GOPS/W."""
        return {
            "Chain-NN total GOPS/W": self.measured_efficiency(),
            "Chain-NN core-only GOPS/W": self.peak_gops / self.calibrated.core_only_w,
            "DaDianNao total GOPS/W (published)": DADIANNAO_SPEC.energy_efficiency_gops_w,
            "DaDianNao core-only GOPS/W (published)": PAPER_DADIANNAO_CORE_GOPS_W,
        }


def run_fig10(config: ChainConfig | None = None, batch: int = 4) -> Fig10Result:
    """Regenerate Fig. 10."""
    config = config or ChainConfig()
    network = alexnet()
    representative_model = PowerModel(config)
    calibrated_model = representative_model.calibrated_to_paper(network, batch)

    def workload_power(model: PowerModel) -> PowerReport:
        evaluator = BatchDesignEvaluator(network, base=config, energy=model.energy)
        return evaluator.breakdown(batch).power_report()

    representative = workload_power(representative_model)
    calibrated = workload_power(calibrated_model)
    return Fig10Result(
        representative=representative,
        calibrated=calibrated,
        peak_gops=config.peak_gops,
    )
