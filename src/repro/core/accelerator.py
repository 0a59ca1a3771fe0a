"""The Chain-NN accelerator facade.

``ChainNN`` bundles a chain configuration with its fidelity mode, unit
energies and per-layer mapper, and evaluates whole networks through the
one analytical model — the columnar
:class:`~repro.analysis.batch.BatchDesignEvaluator` at a single design point:

>>> from repro import ChainNN, alexnet
>>> chip = ChainNN.paper_configuration()
>>> point = chip.evaluate(alexnet(), batch=128)
>>> round(point.fps, 1)   # doctest: +SKIP
350.3

The returned :class:`~repro.analysis.batch.PointBreakdown` keeps the
per-layer times, traffic and the power split, so Fig. 9 / Table IV /
Fig. 10-style breakdowns come from a single evaluation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cnn.network import Network
from repro.core.config import ChainConfig
from repro.core.mapper import LayerMapper
from repro.core.performance import Mode, PerformanceModel
from repro.energy.components import EnergyParams
from repro.energy.power import PowerModel

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.batch import PointBreakdown


class ChainNN:
    """The Chain-NN accelerator (model facade)."""

    def __init__(
        self,
        config: Optional[ChainConfig] = None,
        energy: Optional[EnergyParams] = None,
        performance_mode: Mode = "paper",
    ) -> None:
        self.config = config or ChainConfig()
        self.mapper = LayerMapper(self.config)
        self.performance_model = PerformanceModel(self.config, mode=performance_mode)
        self.power_model = PowerModel(config=self.config, energy=energy)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def paper_configuration(cls, calibrate_power_to: Optional[Network] = None,
                            batch: int = 4) -> "ChainNN":
        """The 576-PE, 700 MHz instantiation evaluated in the paper.

        When ``calibrate_power_to`` is given, the power model's unit energies
        are fitted so the Fig. 10 breakdown is reproduced exactly for that
        network (see :meth:`repro.energy.power.PowerModel.calibrated_to_paper`).
        """
        chip = cls(ChainConfig.paper_default())
        if calibrate_power_to is not None:
            chip.power_model = chip.power_model.calibrated_to_paper(calibrate_power_to, batch)
        return chip

    # ------------------------------------------------------------------ #
    # headline numbers
    # ------------------------------------------------------------------ #
    @property
    def peak_gops(self) -> float:
        """Peak throughput (806.4 GOPS for the paper configuration)."""
        return self.config.peak_gops

    def utilization(self, kernel_size: int) -> float:
        """Spatial PE utilization for one kernel size (Table II)."""
        return self.mapper.chain.utilization(kernel_size).utilization

    # ------------------------------------------------------------------ #
    # running workloads
    # ------------------------------------------------------------------ #
    def evaluate(self, network: Network, batch: int = 1) -> "PointBreakdown":
        """Evaluate every convolutional layer of a network at one batch size."""
        # lazy: repro.analysis imports the engine layer, which imports this module
        from repro.analysis.batch import BatchDesignEvaluator

        evaluator = BatchDesignEvaluator(network, base=self.config,
                                         mode=self.performance_model.mode,
                                         energy=self.power_model.energy)
        return evaluator.breakdown(batch)

    def describe(self) -> str:
        """One-line description of the instantiation."""
        return self.config.describe()
