"""Baseline architectures and published specs for the Table V comparison."""

from repro.baselines.base import AcceleratorModel, AcceleratorSummary
from repro.baselines.chain_nn_model import ChainNNModel
from repro.baselines.memory_centric import MemoryCentricAccelerator, MemoryCentricParams
from repro.baselines.spatial_2d import Spatial2DAccelerator, Spatial2DParams
from repro.baselines.specs import (
    ALL_PUBLISHED_SPECS,
    CHAIN_NN_SPEC,
    DADIANNAO_SPEC,
    EYERISS_SPEC,
    PAPER_EFFICIENCY_RATIOS,
    PublishedSpec,
)

__all__ = [
    "AcceleratorModel",
    "AcceleratorSummary",
    "ChainNNModel",
    "MemoryCentricAccelerator",
    "MemoryCentricParams",
    "Spatial2DAccelerator",
    "Spatial2DParams",
    "PublishedSpec",
    "ALL_PUBLISHED_SPECS",
    "DADIANNAO_SPEC",
    "EYERISS_SPEC",
    "CHAIN_NN_SPEC",
    "PAPER_EFFICIENCY_RATIOS",
]
