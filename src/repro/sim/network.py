"""Whole-network functional verification of the Chain-NN dataflow.

The paper checks the hardware against a software golden model layer by
layer; this module chains that check across a full network the way the
fixed-point toolchain would run it: synthetic quantised tensors enter the
first convolution, every convolutional layer is executed by the
:class:`~repro.sim.functional.FunctionalChainSimulator` (scalar, vectorized
or cross-checked ``both`` backend) and verified against the im2col/GEMM
golden reference on the *same* inputs, and activations are re-quantised
through :mod:`repro.cnn.quantize` between stages — the "float-point-to-
fix-point simulator" loop of the paper at network scale.  Pooling layers are
applied in NumPy so inter-layer feature-map shapes stay faithful; fully
connected layers end the chain (the paper's accelerator only executes
convolutions).

With the vectorized backend this turns whole-network functional
verification of AlexNet/VGG from an overnight job into a seconds-scale step
(``repro verify --sim functional --network alexnet``).
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
from repro.cnn.reference import conv2d_im2col, strided_windows
from repro.core.config import ChainConfig
from repro.errors import WorkloadError
from repro.obs import trace as obs_trace
from repro.runtime import ParallelRuntime, WorkerError, shared_runtime
from repro.sim.functional import (
    FunctionalChainSimulator,
    FunctionalRunResult,
    FunctionalRunStats,
)

# NOTE: repro.analysis.winograd / repro.sim.winograd are imported lazily
# inside the Winograd code paths — repro.sim is itself imported while
# repro.engine.adapters is only partially initialised, and the
# repro.analysis package __init__ closes a cycle back into it.

#: network-level algorithm modes (``auto`` and ``winograd`` both run the
#: transform domain on every eligible layer; ineligible layers stay direct)
NETWORK_ALGORITHMS = ("direct", "winograd", "auto")


def pool2d(activations: np.ndarray, layer: PoolingLayer) -> np.ndarray:
    """Apply one pooling layer to a ``(C, H, W)`` activation tensor."""
    expected = (layer.channels, layer.in_height, layer.in_width)
    if activations.shape != expected:
        raise WorkloadError(
            f"{layer.name}: activations shape {activations.shape} does not "
            f"match {expected}"
        )
    windows = strided_windows(activations, layer.kernel_size, layer.stride,
                              layer.out_height, layer.out_width)
    if layer.mode == "max":
        return windows.max(axis=(3, 4))
    return windows.mean(axis=(3, 4))


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
    #: per-stage golden bound override (Winograd stages carry the documented
    #: :func:`repro.sim.winograd.winograd_tolerance`; ``None`` falls back to
    #: the network-wide tolerance)
    tolerance: Optional[float] = None

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
    backend: str
    seed: int
    total_bits: int
    tolerance: float
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
        """True when every conv stage stayed within its tolerance.

        Each stage checks against its own bound when set (Winograd stages),
        the network-wide tolerance otherwise.
        """
        return all(
            stage.max_abs_error
            <= (stage.tolerance if stage.tolerance is not None else self.tolerance)
            for stage in self.conv_stages
        )

    def describe(self) -> str:
        """Multi-line human-readable verification report.

        Under the ``both`` backend a Winograd stage line says it was checked
        against the im2col golden only: the scalar walk has no
        transform-domain form to cross-check it with.
        """
        lines = []
        for stage in self.stages:
            line = stage.describe()
            if self.backend == "both" and stage.algorithm == "winograd":
                line += " (golden only)"
            lines.append(line)
        verdict = "PASSED" if self.passed else "FAILED"
        lines.append(
            f"functional verification {verdict}: {len(self.conv_stages)} conv "
            f"layers, max|err|={self.max_abs_error:.2e} "
            f"(tolerance {self.tolerance:.0e}), "
            f"{self.stats.windows_kept} windows kept, "
            f"{self.seconds:.2f}s [{self.backend}]"
        )
        return "\n".join(lines)


class FunctionalNetworkRunner:
    """Chains the functional simulator across every stage of a network."""

    def __init__(self, config: Optional[ChainConfig] = None,
                 backend: str = "vectorized", seed: int = 2017,
                 total_bits: int = 16, tolerance: float = 1e-6,
                 quantize_between_stages: bool = True,
                 workers: Optional[int] = None,
                 algorithm: str = "direct") -> None:
        if workers is not None and workers < 1:
            raise WorkloadError(f"workers must be >= 1, got {workers}")
        if algorithm not in NETWORK_ALGORITHMS:
            raise WorkloadError(
                f"unknown algorithm {algorithm!r}; available: "
                f"{', '.join(NETWORK_ALGORITHMS)}"
            )
        self.simulator = FunctionalChainSimulator(config, backend=backend)
        self.backend = backend
        self.seed = seed
        self.total_bits = total_bits
        self.tolerance = tolerance
        self.quantize_between_stages = quantize_between_stages
        #: execution-algorithm mode: ``winograd``/``auto`` run the
        #: F(2x2,3x3) transform domain on every eligible (3x3 stride-1)
        #: conv layer, with the documented per-stage tolerance; ineligible
        #: layers always run direct
        self.algorithm = algorithm
        #: fan each conv layer's ofmap blocks over this many persistent
        #: workers (vectorized backend only; ``None``/1 = serial); the
        #: chained forward pass stays serial — layer N+1 needs layer N's
        #: ofmaps — but within a layer every ofmap channel is independent
        self.workers = workers
        self._pool = shared_runtime()

    # ------------------------------------------------------------------ #
    # parallel runtime lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_runtime(self) -> Optional[ParallelRuntime]:
        """The runner's persistent pool (``None`` = run serially).

        Only the vectorized backend decomposes into independent ofmap
        blocks; the scalar and cross-checking backends always run serially.
        A platform without process pools degrades to serial as well — the
        results are bit-identical either way.
        """
        if self.workers is None or self.workers <= 1:
            return None
        if self.backend != "vectorized":
            return None
        return self._pool.get(workers=self.workers)

    def close(self) -> None:
        """Detach from the shared pool (idempotent; serial use needs none)."""
        self._pool.release()

    def __enter__(self) -> "FunctionalNetworkRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _quantize(self, activations: np.ndarray) -> np.ndarray:
        """Snap activations onto the fixed-point grid the datapath carries."""
        if not self.quantize_between_stages:
            return activations
        return choose_format(activations, self.total_bits).quantize(activations)

    def _algorithm_for(self, layer: ConvLayer) -> str:
        """The execution algorithm this run uses for ``layer``."""
        from repro.analysis.winograd import winograd_eligible

        if self.algorithm != "direct" and winograd_eligible(layer):
            return "winograd"
        return "direct"

    def _run_conv(self, layer: ConvLayer, activations: np.ndarray,
                  weights: np.ndarray,
                  stripe_height: Optional[int],
                  algorithm: str = "direct") -> FunctionalRunResult:
        """One conv layer's simulation, parallel over ofmap blocks when on.

        The parallel path ships the padded ifmaps and weights to the workers
        once through shared memory, lets every worker write its ofmap
        channel block into a shared assembly buffer, and derives the
        dataflow counters from the same closed forms the vectorized backend
        uses — so ofmaps *and* stats are bit-identical to the serial path
        (`tests/test_runtime.py` holds this in the equivalence gate; the
        Winograd block kernel preserves the same partition invariant).
        """
        runtime = self._ensure_runtime()
        if runtime is not None:
            try:
                return self.simulator.run_layer_parallel(
                    layer, activations, weights, runtime,
                    stripe_height=stripe_height, algorithm=algorithm)
            except WorkerError:
                pass  # degradation ladder's last rung: the serial layer walk
        return self.simulator.run_layer(layer, activations, weights,
                                        stripe_height=stripe_height,
                                        algorithm=algorithm)

    def run(self, network: Network,
            stripe_heights: Optional[Dict[str, int]] = None,
            algorithms: Optional[Dict[str, str]] = None,
            progress: Optional[Callable[[StageReport], None]] = None,
            ) -> NetworkRunResult:
        """Propagate quantised activations through ``network`` and verify.

        Every conv layer's simulated ofmaps are compared against the im2col
        golden reference on the same (quantised) inputs; deviations are
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
        Winograd stages record the documented per-stage tolerance instead of
        the network-wide one.

        ``progress`` is called with each :class:`StageReport` as it lands
        (the evaluation service streams these to clients as chunked
        progress events); it must not mutate the report.
        """
        result = NetworkRunResult(
            network=network.name,
            backend=self.backend,
            seed=self.seed,
            total_bits=self.total_bits,
            tolerance=self.tolerance,
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
                activations = self._quantize(generator.ifmaps(layer))
            if activations.shape != layer.in_shape:
                raise WorkloadError(
                    f"{network.name}: {layer.name} expects ifmaps {layer.in_shape} "
                    f"but the previous stage produced {activations.shape}"
                )
            weights = self._quantize(generator.weights(layer))
            algorithm = ((algorithms or {}).get(layer.name)
                         or self._algorithm_for(layer))
            with obs_trace.span("verify.layer", layer=layer.name,
                                network=network.name, algorithm=algorithm):
                run = self._run_conv(
                    layer, activations, weights,
                    stripe_height=(stripe_heights or {}).get(layer.name),
                    algorithm=algorithm,
                )
            if algorithm == "winograd":
                from repro.sim.winograd import winograd_tolerance

                reference = conv2d_im2col(layer, activations, weights)
                error = float(np.max(np.abs(reference - run.ofmaps)))
                stage_tolerance: Optional[float] = winograd_tolerance(reference)
            else:
                error = run.max_abs_error_vs_reference(activations, weights)
                stage_tolerance = None
            result.stages.append(StageReport(
                name=layer.name,
                kind="conv",
                out_shape=run.ofmaps.shape,
                seconds=time.perf_counter() - stage_start,
                max_abs_error=error,
                windows_kept=run.stats.windows_kept,
                chain_cycles=run.chain_cycles_estimate,
                algorithm=algorithm,
                tolerance=stage_tolerance,
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
