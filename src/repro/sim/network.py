"""Whole-network functional verification of the Chain-NN dataflow.

The paper checks the hardware against a software golden model layer by
layer; this module chains that check across a full network the way the
fixed-point toolchain would run it: synthetic tensors drawn on the
``total_bits`` grid (:mod:`repro.cnn.generator`) enter the first
convolution, every convolutional layer is executed by the
:class:`~repro.sim.functional.FunctionalChainSimulator` and verified against
the im2col/GEMM golden reference on the *same* inputs, and activations go
through ReLU and are re-quantised through :mod:`repro.cnn.quantize` between
stages — the "float-point-to-fix-point simulator" loop of the paper at
network scale.  The first ifmaps and every layer's weights are generated on
the grid, so only the between-stage activations are quantised.  Pooling
layers are applied in NumPy (a running reduction over the ``K * K`` strided
taps) so inter-layer feature-map shapes stay faithful; fully connected
layers end the chain (the paper's accelerator only executes convolutions).

Weights and activations are ``total_bits`` fixed point at every conv
layer, the input domain the simulator enforces, so every sum is exact: a
conv stage — Winograd stages included — passes only when it equals its
golden bit for bit (``max|err|=0.00e+00``).  Whole-network verification of
AlexNet or VGG-16 takes seconds
(``repro verify --sim functional --network vgg16``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cnn.generator import WorkloadGenerator
from repro.cnn.layer import ConvLayer, FullyConnectedLayer, PoolingLayer
from repro.cnn.network import Network
from repro.cnn.quantize import choose_format
from repro.cnn.reference import conv2d_im2col
from repro.core.config import ChainConfig
from repro.errors import WorkloadError
from repro.obs import trace as obs_trace
from repro.sim.functional import FunctionalChainSimulator, FunctionalRunStats

# NOTE: repro.analysis.winograd / repro.sim.winograd are imported lazily
# inside the Winograd code paths — repro.sim is itself imported while
# repro.engine.adapters is only partially initialised, and the
# repro.analysis package __init__ closes a cycle back into it.

#: network-level algorithm modes (``auto`` and ``winograd`` both run the
#: transform domain on every eligible layer; ineligible layers stay direct)
NETWORK_ALGORITHMS = ("direct", "winograd", "auto")


def pool2d(activations: np.ndarray, layer: PoolingLayer) -> np.ndarray:
    """Apply one pooling layer to a ``(C, H, W)`` activation tensor.

    Reduces the ``K * K`` strided tap slices into one running maximum (or
    running sum, divided once for ``avg``): each pass streams one output-sized
    slice instead of reducing a strided ``(C, OH, OW, K, K)`` window view.
    """
    expected = (layer.channels, layer.in_height, layer.in_width)
    if activations.shape != expected:
        raise WorkloadError(
            f"{layer.name}: activations shape {activations.shape} does not "
            f"match {expected}"
        )
    k, stride = layer.kernel_size, layer.stride
    row_span = stride * (layer.out_height - 1) + 1
    col_span = stride * (layer.out_width - 1) + 1
    pooled = activations[:, :row_span:stride, :col_span:stride].astype(np.float64)
    combine = np.maximum if layer.mode == "max" else np.add
    for dy in range(k):
        for dx in range(k):
            if dy or dx:
                combine(pooled, activations[:, dy:dy + row_span:stride,
                                            dx:dx + col_span:stride], out=pooled)
    if layer.mode == "avg":
        pooled /= k * k
    return pooled


@dataclass(frozen=True)
class StageReport:
    """Outcome of one network stage (conv, pooling, or terminating FC)."""

    name: str
    kind: str
    out_shape: tuple
    seconds: float
    #: golden-reference deviation (conv stages only, else 0.0)
    max_abs_error: float = 0.0
    windows_kept: int = 0
    chain_cycles: float = 0.0
    #: execution algorithm of a conv stage
    algorithm: str = "direct"

    def describe(self) -> str:
        """One verification line, mirroring the cycle CLI output."""
        shape = "x".join(str(dim) for dim in self.out_shape)
        if self.kind != "conv":
            return f"{self.name:<10} {self.kind:<5} -> {shape}"
        suffix = " wino" if self.algorithm == "winograd" else ""
        return (f"{self.name:<10} conv  -> {shape:<12} "
                f"max|err|={self.max_abs_error:.2e} "
                f"windows={self.windows_kept:<10} "
                f"cycles={self.chain_cycles:<12.0f}{suffix}")


@dataclass
class NetworkRunResult:
    """Whole-network functional verification outcome."""

    network: str
    seed: int
    total_bits: int
    stages: List[StageReport] = field(default_factory=list)
    stats: FunctionalRunStats = field(default_factory=FunctionalRunStats)
    chain_cycles_estimate: float = 0.0
    seconds: float = 0.0

    @property
    def conv_stages(self) -> List[StageReport]:
        """The verified convolutional stages."""
        return [stage for stage in self.stages if stage.kind == "conv"]

    @property
    def max_abs_error(self) -> float:
        """Worst golden-reference deviation over all conv stages."""
        return max((stage.max_abs_error for stage in self.conv_stages), default=0.0)

    @property
    def passed(self) -> bool:
        """True when every conv stage equals its golden exactly."""
        return all(stage.max_abs_error == 0.0 for stage in self.conv_stages)

    def describe(self) -> str:
        """Multi-line human-readable verification report."""
        lines = [stage.describe() for stage in self.stages]
        verdict = "PASSED" if self.passed else "FAILED"
        lines.append(
            f"functional verification {verdict}: {len(self.conv_stages)} conv "
            f"layers, max|err|={self.max_abs_error:.2e} "
            f"({'exact' if self.passed else 'inexact'}), "
            f"{self.stats.windows_kept} windows kept, {self.seconds:.2f}s"
        )
        return "\n".join(lines)


class FunctionalNetworkRunner:
    """Chains the functional simulator across every stage of a network."""

    def __init__(self, config: Optional[ChainConfig] = None, seed: int = 2017,
                 total_bits: int = 16, algorithm: str = "direct") -> None:
        if algorithm not in NETWORK_ALGORITHMS:
            raise WorkloadError(
                f"unknown algorithm {algorithm!r}; available: "
                f"{', '.join(NETWORK_ALGORITHMS)}"
            )
        self.simulator = FunctionalChainSimulator(config)
        self.seed = seed
        self.total_bits = total_bits
        #: execution-algorithm mode: ``winograd``/``auto`` run the
        #: F(2x2,3x3) transform domain on every eligible (3x3 stride-1)
        #: conv layer (exact like the direct layers); ineligible layers always
        #: run direct
        self.algorithm = algorithm

    def _quantize(self, activations: np.ndarray) -> np.ndarray:
        """Snap activations onto the fixed-point grid the datapath carries."""
        return choose_format(activations, self.total_bits).quantize(activations)

    def _algorithm_for(self, layer: ConvLayer) -> str:
        """The execution algorithm this run uses for ``layer``."""
        from repro.analysis.winograd import winograd_eligible

        if self.algorithm != "direct" and winograd_eligible(layer):
            return "winograd"
        return "direct"

    def run(self, network: Network,
            stripe_heights: Optional[Dict[str, int]] = None,
            algorithms: Optional[Dict[str, str]] = None,
            progress: Optional[Callable[[StageReport], None]] = None,
            ) -> NetworkRunResult:
        """Propagate fixed-point activations through ``network`` and verify.

        Every conv layer's simulated ofmaps are compared against the im2col
        golden reference on the same (fixed-point) inputs; deviations are
        recorded per stage rather than raised, so one report covers the whole
        network.  Layers after the first fully connected layer are not
        simulated (the chain only accelerates convolutions).

        ``stripe_heights`` optionally maps layer names to searched stripe
        heights (:meth:`repro.mapping.OptimizedSchedule.stripe_heights`), so
        whole-network verification exercises the exact stripe plans an
        optimised schedule would execute; unlisted layers use the paper's
        full ``K``-row stripes.  ``algorithms`` likewise maps layer names to
        execution algorithms (:meth:`~repro.mapping.OptimizedSchedule.
        algorithms`); unlisted layers follow the runner's algorithm mode.

        ``progress`` is called with each :class:`StageReport` as it lands
        (the evaluation service streams these to clients as chunked
        progress events); it must not mutate the report.
        """
        result = NetworkRunResult(
            network=network.name,
            seed=self.seed,
            total_bits=self.total_bits,
        )
        generator = WorkloadGenerator(seed=self.seed)
        activations: Optional[np.ndarray] = None
        started = time.perf_counter()
        for layer in network.layers:
            stage_start = time.perf_counter()
            if isinstance(layer, FullyConnectedLayer):
                break
            if isinstance(layer, PoolingLayer):
                if activations is None:
                    raise WorkloadError(
                        f"{network.name}: pooling layer {layer.name} before any "
                        "convolution"
                    )
                activations = pool2d(activations, layer)
                result.stages.append(StageReport(
                    name=layer.name,
                    kind="pool",
                    out_shape=activations.shape,
                    seconds=time.perf_counter() - stage_start,
                ))
                if progress is not None:
                    progress(result.stages[-1])
                continue
            if activations is None:
                activations = generator.ifmaps(layer, bits=self.total_bits)
            if activations.shape != layer.in_shape:
                raise WorkloadError(
                    f"{network.name}: {layer.name} expects ifmaps {layer.in_shape} "
                    f"but the previous stage produced {activations.shape}"
                )
            weights = generator.weights(layer, bits=self.total_bits)
            algorithm = ((algorithms or {}).get(layer.name)
                         or self._algorithm_for(layer))
            with obs_trace.span("verify.layer", layer=layer.name,
                                network=network.name, algorithm=algorithm):
                run = self.simulator.run_layer(
                    layer, activations, weights,
                    stripe_height=(stripe_heights or {}).get(layer.name),
                    algorithm=algorithm,
                )
            error = float(np.max(np.abs(
                conv2d_im2col(layer, activations, weights) - run.ofmaps)))
            result.stages.append(StageReport(
                name=layer.name,
                kind="conv",
                out_shape=run.ofmaps.shape,
                seconds=time.perf_counter() - stage_start,
                max_abs_error=error,
                windows_kept=run.stats.windows_kept,
                chain_cycles=run.chain_cycles_estimate,
                algorithm=algorithm,
            ))
            if progress is not None:
                progress(result.stages[-1])
            _accumulate(result.stats, run.stats)
            result.chain_cycles_estimate += run.chain_cycles_estimate
            # ReLU then re-quantise: the activation path every fixed-point
            # CNN stage applies between convolutions
            activations = self._quantize(np.maximum(run.ofmaps, 0.0))
        result.seconds = time.perf_counter() - started
        return result


def _accumulate(total: FunctionalRunStats, stage: FunctionalRunStats) -> None:
    """Add one layer's counters into the network totals."""
    total.windows_evaluated += stage.windows_evaluated
    total.windows_kept += stage.windows_kept
    total.stripes_processed += stage.stripes_processed
    total.pairs_processed += stage.pairs_processed
    total.pixels_streamed += stage.pixels_streamed
    total.primitive_cycles += stage.primitive_cycles
