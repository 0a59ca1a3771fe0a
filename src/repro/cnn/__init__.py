"""CNN workload substrate: layer specs, network zoo, references, quantisation."""

from repro.cnn.generator import TensorStats, WorkloadGenerator
from repro.cnn.layer import ConvLayer, FullyConnectedLayer, PoolingLayer
from repro.cnn.network import Network, validate_chaining
from repro.cnn.quantize import (
    QuantizationResult,
    bit_width_sweep,
    choose_format,
    evaluate_layer_quantization,
    quantize_layer_tensors,
)
from repro.cnn.reference import (
    conv2d_direct,
    conv2d_im2col,
    conv2d_single_channel,
    pad_input,
    strided_windows,
)
from repro.cnn.zoo import (
    NETWORKS,
    alexnet,
    cifar10_quick,
    get_network,
    lenet5,
    tiny_test_network,
    vgg16,
)

__all__ = [
    "ConvLayer",
    "FullyConnectedLayer",
    "PoolingLayer",
    "Network",
    "validate_chaining",
    "WorkloadGenerator",
    "TensorStats",
    "QuantizationResult",
    "bit_width_sweep",
    "choose_format",
    "evaluate_layer_quantization",
    "quantize_layer_tensors",
    "conv2d_direct",
    "conv2d_im2col",
    "conv2d_single_channel",
    "pad_input",
    "strided_windows",
    "NETWORKS",
    "alexnet",
    "vgg16",
    "lenet5",
    "cifar10_quick",
    "tiny_test_network",
    "get_network",
]
