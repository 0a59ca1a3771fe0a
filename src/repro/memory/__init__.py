"""Memory-communication model: per-layer DRAM and on-chip SRAM traffic (Table IV)."""

from repro.memory.traffic import LayerTraffic, TrafficModel

__all__ = [
    "LayerTraffic",
    "TrafficModel",
]
