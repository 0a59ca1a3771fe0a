"""The paper's contribution: the Chain-NN 1D chain architecture models."""

from repro.core.accelerator import ChainNN
from repro.core.chain import ChainPartition, PEChain, PrimitiveSlot
from repro.core.config import MAINSTREAM_KERNEL_SIZES, ChainConfig
from repro.core.dataflow import DataflowPlanner, LoopIteration, TileConfig
from repro.core.mapper import LayerMapper, LayerMapping
from repro.core.performance import LayerPerformance, PerformanceModel
from repro.core.scan import ColumnScanSchedule, PixelDelivery, WindowTag, stripe_plan
from repro.core.utilization import (
    UtilizationEntry,
    active_primitives,
    best_chain_lengths,
    minimum_utilization,
    primitive_size,
    utilization_entry,
    utilization_table,
)

__all__ = [
    "ChainNN",
    "ChainConfig",
    "MAINSTREAM_KERNEL_SIZES",
    "PEChain",
    "ChainPartition",
    "PrimitiveSlot",
    "DataflowPlanner",
    "TileConfig",
    "LoopIteration",
    "LayerMapper",
    "LayerMapping",
    "PerformanceModel",
    "LayerPerformance",
    "ColumnScanSchedule",
    "PixelDelivery",
    "WindowTag",
    "stripe_plan",
    "UtilizationEntry",
    "utilization_table",
    "utilization_entry",
    "active_primitives",
    "primitive_size",
    "minimum_utilization",
    "best_chain_lengths",
]
