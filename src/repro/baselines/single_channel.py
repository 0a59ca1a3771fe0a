"""Single-channel chain ablation (the strawman of Fig. 5(a)).

A chain whose PEs have only one ifmap channel cannot keep the systolic
primitive fed: after every completed window the primitive must wait for the
``K`` non-overlapping pixels of the next window to trickle in one per cycle,
so at best ``1/K`` of the peak throughput is reached (33 % for K = 3).  This
module models that architecture with the same machinery as the real Chain-NN
— only the throughput differs — so the Fig. 5 ablation bench can put the two
side by side, per kernel size and per AlexNet layer.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.base import AcceleratorModel
from repro.cnn.layer import ConvLayer
from repro.cnn.network import Network
from repro.core.accelerator import ChainNN
from repro.core.config import ChainConfig
from repro.energy.technology import TSMC_28NM, TechNode


class SingleChannelChain(AcceleratorModel):
    """Chain-NN with single-channel PEs (Fig. 5(a) behaviour)."""

    name = "1D chain, single channel"

    def __init__(self, config: ChainConfig | None = None) -> None:
        base = config or ChainConfig()
        self.config = base.single_channel()
        self.chip = ChainNN(self.config)

    @property
    def technology(self) -> TechNode:
        return TSMC_28NM

    @property
    def parallelism(self) -> int:
        return self.config.num_pes

    @property
    def frequency_hz(self) -> float:
        return self.config.frequency_hz

    def onchip_memory_bytes(self) -> int:
        return self.config.onchip_memory_bytes

    def workload_time_s(self, network: Network, batch: int) -> float:
        return self.chip.evaluate(network, batch).total_time_per_batch_s

    def workload_power_w(self, network: Network, batch: int) -> float:
        return self.chip.evaluate(network, batch).power_w

    # ------------------------------------------------------------------ #
    # per-kernel-size throughput comparison (the Fig. 5 ablation)
    # ------------------------------------------------------------------ #
    def throughput_fraction(self, kernel_size: int) -> float:
        """Fraction of the dual-channel throughput reached (``1/K``)."""
        return 1.0 / kernel_size

    def layer_utilization(self, layer: ConvLayer) -> float:
        """Temporal utilization of the active PEs for one layer."""
        perf = self.chip.performance_model.layer_performance(layer)
        return perf.temporal_utilization

    def utilization_by_kernel(self, kernel_sizes=(3, 5, 7, 9, 11)) -> Dict[int, float]:
        """Peak-throughput fraction per kernel size, for the Fig. 5 bench."""
        return {k: self.throughput_fraction(k) for k in kernel_sizes}
