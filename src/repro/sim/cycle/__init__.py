"""Cycle-accurate chain simulation."""

from repro.sim.cycle.engine import (
    CycleAccurateChainSimulator,
    CycleSimResult,
    CycleSimStats,
)
from repro.sim.cycle.vectorized import PairGeometryStats, pair_geometry, stripe_mac_count

__all__ = [
    "CycleAccurateChainSimulator",
    "CycleSimResult",
    "CycleSimStats",
    "PairGeometryStats",
    "pair_geometry",
    "stripe_mac_count",
]
