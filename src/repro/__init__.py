"""Chain-NN reproduction library.

An open-source Python reproduction of *"Chain-NN: An Energy-Efficient 1D
Chain Architecture for Accelerating Deep Convolutional Neural Networks"*
(DATE 2017).  The package models the dual-channel PE chain, its column-wise
scan dataflow, the surrounding memory hierarchy, and the power/area budget,
plus the baselines the paper compares against, and regenerates every table
and figure of the paper's evaluation (see EXPERIMENTS.md).

Quickstart
----------
>>> from repro import ChainNN, alexnet
>>> chip = ChainNN.paper_configuration()
>>> chip.peak_gops
806.4
"""

from repro.cnn import (
    ConvLayer,
    Network,
    WorkloadGenerator,
    alexnet,
    cifar10_quick,
    get_network,
    lenet5,
    tiny_test_network,
    vgg16,
)
from repro.core import (
    ChainConfig,
    ChainNN,
    ColumnScanSchedule,
    LayerMapper,
    PerformanceModel,
    SystolicPrimitive,
    utilization_table,
)
from repro.energy import AreaModel, EnergyParams, PowerModel
from repro.engine import (
    Engine,
    RunCache,
    RunRecord,
    SweepExecutor,
    available_engines,
    create_engine,
)
from repro.memory import TrafficModel

__version__ = "1.6.0"

__all__ = [
    "__version__",
    "available_engines",
    "create_engine",
    "ChainNN",
    "Engine",
    "RunCache",
    "RunRecord",
    "SweepExecutor",
    "ChainConfig",
    "ColumnScanSchedule",
    "SystolicPrimitive",
    "LayerMapper",
    "PerformanceModel",
    "TrafficModel",
    "PowerModel",
    "EnergyParams",
    "AreaModel",
    "utilization_table",
    "ConvLayer",
    "Network",
    "WorkloadGenerator",
    "alexnet",
    "vgg16",
    "lenet5",
    "cifar10_quick",
    "tiny_test_network",
    "get_network",
]
