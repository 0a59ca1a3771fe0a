"""Cycle-accurate chain simulation."""

from repro.sim.cycle.engine import (
    CycleAccurateChainSimulator,
    CycleSimResult,
    CycleSimStats,
)

__all__ = [
    "CycleAccurateChainSimulator",
    "CycleSimResult",
    "CycleSimStats",
]
