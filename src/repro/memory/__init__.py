"""Memory-hierarchy substrate: DRAM, on-chip SRAMs, traffic and bandwidth models."""

from repro.memory.bandwidth import BandwidthAnalyzer, LayerBandwidth
from repro.memory.dram import Dram, DramSpec
from repro.memory.hierarchy import HierarchySizes, MemoryHierarchy
from repro.memory.traffic import LayerTraffic, TrafficModel

__all__ = [
    "BandwidthAnalyzer",
    "LayerBandwidth",
    "Dram",
    "DramSpec",
    "HierarchySizes",
    "MemoryHierarchy",
    "LayerTraffic",
    "TrafficModel",
]
