"""Chain-NN wrapped in the common baseline interface.

The :class:`~repro.core.accelerator.ChainNN` facade is the library's main
entry point; this adapter exposes it through
:class:`~repro.baselines.base.AcceleratorModel` so that the Table V
comparison can iterate over all architectures uniformly.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import AcceleratorModel
from repro.cnn.network import Network
from repro.core.accelerator import ChainNN
from repro.core.config import ChainConfig
from repro.energy.area import AreaModel
from repro.energy.technology import TSMC_28NM, TechNode


class ChainNNModel(AcceleratorModel):
    """Chain-NN (this paper) as an :class:`AcceleratorModel`."""

    name = "Chain-NN (this model)"

    def __init__(self, chip: Optional[ChainNN] = None,
                 calibrate_power_to: Optional[Network] = None) -> None:
        if chip is not None:
            self.chip = chip
        elif calibrate_power_to is not None:
            self.chip = ChainNN.paper_configuration(calibrate_power_to=calibrate_power_to)
        else:
            self.chip = ChainNN.paper_configuration()
        self.area_model = AreaModel(self.chip.config)

    @property
    def config(self) -> ChainConfig:
        """The underlying chain configuration."""
        return self.chip.config

    @property
    def technology(self) -> TechNode:
        return TSMC_28NM

    @property
    def parallelism(self) -> int:
        return self.config.num_pes

    @property
    def frequency_hz(self) -> float:
        return self.config.frequency_hz

    def gate_count(self) -> float:
        return self.area_model.report().total_gates

    def onchip_memory_bytes(self) -> int:
        return self.config.onchip_memory_bytes

    def workload_time_s(self, network: Network, batch: int) -> float:
        return self.chip.evaluate(network, batch).total_time_per_batch_s

    def workload_power_w(self, network: Network, batch: int) -> float:
        return self.chip.evaluate(network, batch).power_w
