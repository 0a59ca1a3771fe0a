"""Simulators: functional (dataflow-level) and cycle-accurate (register-level)."""

from repro.sim.cycle import CycleAccurateChainSimulator, CycleSimResult, CycleSimStats
from repro.sim.functional import (
    FunctionalChainSimulator,
    FunctionalRunResult,
    FunctionalRunStats,
)
from repro.sim.functional_vectorized import (
    stride_keep_mask,
    vectorized_layer_ofmaps,
)
from repro.sim.network import (
    FunctionalNetworkRunner,
    NetworkRunResult,
    StageReport,
    pool2d,
)

__all__ = [
    "CycleAccurateChainSimulator",
    "CycleSimResult",
    "CycleSimStats",
    "FunctionalChainSimulator",
    "FunctionalNetworkRunner",
    "FunctionalRunResult",
    "FunctionalRunStats",
    "NetworkRunResult",
    "StageReport",
    "pool2d",
    "stride_keep_mask",
    "vectorized_layer_ofmaps",
]
