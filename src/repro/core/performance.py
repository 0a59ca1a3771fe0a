"""Analytical cycle/throughput model of the chain (reproduces Fig. 9, Sec. V.B).

The unit of work is the *channel pair* — one ``K x K`` kernel plane convolved
over one ifmap plane by one systolic primitive.  A pair is processed as a
sequence of stripes (Sec. IV.C); the model's cycle count per pair is

    ``cycles_pair = stripes * per_stripe``

with two fidelity modes:

``paper`` (default)
    The idealised accounting the paper's Fig. 9 numbers follow: fractional
    stripes (``E / K`` — the chain never drains between stripes of a pass),
    ``K * E_w`` streaming cycles per stripe scaled by the stride (strided
    layers are input-bound: every ifmap column passes through the chain), and
    a ``K^2 - 1`` fill that is hidden whenever striding already makes the
    stripe input-bound.  This reproduces the paper's conv1/3/4/5 times to
    <1 % and conv2 to ~18 % (see EXPERIMENTS.md).

``detailed``
    The cycle simulator's accounting, read from the one closed form of a
    pair's stripe geometry (:func:`repro.core.scan.pair_geometry`): integral
    stride-1 stripes over the padded plane (a short final stripe still pays
    full column cadence, a strided layer streams every row and keeps the
    windows on its stride grid), plus the ``2K^2 + 2`` drain per stripe.
    The ``cycle`` engine reads the same closed form, so the two report the
    same time; this mode shows how optimistic the paper's accounting is.

Kernel loading takes one weight per cycle (the rate the paper's per-layer
kernel-load times imply) and happens once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.cnn.layer import ConvLayer
from repro.core.config import ChainConfig
from repro.core.mapper import LayerMapper, LayerMapping
from repro.core.scan import pair_geometry
from repro.errors import ConfigurationError

Mode = Literal["paper", "detailed"]


# --------------------------------------------------------------------- #
# per-pair closed forms (module level so the columnar batch evaluator of
# :mod:`repro.analysis.batch` evaluates the *same* arithmetic per layer)
# --------------------------------------------------------------------- #
def per_stripe_cycles_paper(layer: ConvLayer) -> float:
    """Idealised cycles to stream one stripe of one channel pair.

    ``K * E_w`` column-scan cycles per stripe, scaled by the stride (strided
    layers are input-bound: every ifmap column passes through the chain),
    plus a ``K^2 - 1`` fill that hides whenever striding already makes the
    stripe input-bound (this is what the paper's conv1 time implies).  Shared
    by :func:`pair_cycles_paper` and the mapping cost model of
    :class:`repro.analysis.batch.MappingBatchEvaluator`, so the two stay in
    lock-step.
    """
    k = layer.kernel_size
    fill = k * k - 1
    stream = k * layer.out_width * layer.stride
    if layer.stride == 1:
        return stream + fill
    return max(stream, k * layer.out_width + fill)


def pair_cycles_paper(layer: ConvLayer) -> float:
    """Idealised (Fig. 9) cycles for one primitive to process one channel pair."""
    stripes = layer.out_height / layer.kernel_size
    return stripes * per_stripe_cycles_paper(layer)


def pair_cycles_for(layer: ConvLayer, mode: Mode, dual_channel: bool = True) -> float:
    """Dispatch the per-pair closed form by fidelity mode.

    A single-channel chain (the Fig. 5(a) strawman) reaches only ``1/K`` of
    the dual-channel rate: after each output the primitive idles ``K - 1``
    cycles waiting for the non-overlapping pixels of the next window.
    """
    if mode == "paper":
        pair = pair_cycles_paper(layer)
    elif mode == "detailed":
        pair = float(pair_geometry(layer).primitive_cycles)
    else:
        raise ConfigurationError(f"mode must be 'paper' or 'detailed', got {mode!r}")
    return pair if dual_channel else pair * layer.kernel_size


@dataclass(frozen=True)
class LayerPerformance:
    """Timing of one convolutional layer on the chain."""

    layer: ConvLayer
    mapping: LayerMapping
    batch: int
    conv_cycles_per_image: float
    kernel_load_cycles: int
    frequency_hz: float

    # ------------------------------------------------------------------ #
    # times
    # ------------------------------------------------------------------ #
    @property
    def conv_cycles_per_batch(self) -> float:
        """Convolution cycles for the whole batch."""
        return self.conv_cycles_per_image * self.batch

    @property
    def conv_time_per_image_s(self) -> float:
        """Convolution time for one image."""
        return self.conv_cycles_per_image / self.frequency_hz

    @property
    def conv_time_per_batch_s(self) -> float:
        """Convolution time for the batch."""
        return self.conv_cycles_per_batch / self.frequency_hz

    @property
    def kernel_load_time_s(self) -> float:
        """Kernel-loading time (once per batch)."""
        return self.kernel_load_cycles / self.frequency_hz

    @property
    def total_time_per_batch_s(self) -> float:
        """Convolution plus kernel loading for the batch."""
        return self.conv_time_per_batch_s + self.kernel_load_time_s

    # ------------------------------------------------------------------ #
    # rates
    # ------------------------------------------------------------------ #
    @property
    def achieved_gops(self) -> float:
        """Sustained throughput over the batch (2 ops per MAC)."""
        total_ops = 2 * self.layer.macs * self.batch
        return total_ops / self.total_time_per_batch_s / 1e9

    @property
    def temporal_utilization(self) -> float:
        """Fraction of active-PE cycles that perform useful MACs."""
        useful = self.layer.macs
        offered = self.mapping.active_pes * self.conv_cycles_per_image
        return useful / offered if offered else 0.0

    @property
    def effective_utilization(self) -> float:
        """Spatial x temporal utilization relative to the whole chain."""
        return self.temporal_utilization * self.mapping.spatial_utilization


class PerformanceModel:
    """Per-layer analytical timing for a chain configuration.

    Network-level timing is one design point of the columnar evaluator:
    :meth:`repro.analysis.batch.BatchDesignEvaluator.breakdown`.
    """

    def __init__(self, config: ChainConfig | None = None, mode: Mode = "paper") -> None:
        if mode not in ("paper", "detailed"):
            raise ConfigurationError(f"mode must be 'paper' or 'detailed', got {mode!r}")
        self.config = config or ChainConfig()
        self.mode = mode
        self.mapper = LayerMapper(self.config)

    # ------------------------------------------------------------------ #
    # per-pair cycle counts
    # ------------------------------------------------------------------ #
    def pair_cycles(self, layer: ConvLayer) -> float:
        """Cycles for one systolic primitive to process one channel pair."""
        return pair_cycles_for(layer, self.mode)

    # ------------------------------------------------------------------ #
    # layer level
    # ------------------------------------------------------------------ #
    def single_channel_pair_cycles(self, layer: ConvLayer) -> float:
        """Pair cycles for the single-channel strawman of Fig. 5(a)."""
        return pair_cycles_for(layer, self.mode, dual_channel=False)

    def layer_performance(self, layer: ConvLayer, batch: int = 1) -> LayerPerformance:
        """Timing of one layer for a given batch size."""
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        mapping = self.mapper.map_layer(layer)
        pair = pair_cycles_for(layer, self.mode, self.config.dual_channel)
        cycles_per_image = pair * mapping.channel_pairs / mapping.active_primitives
        return LayerPerformance(
            layer=layer,
            mapping=mapping,
            batch=batch,
            conv_cycles_per_image=cycles_per_image,
            kernel_load_cycles=mapping.kernel_load_cycles,
            frequency_hz=self.config.frequency_hz,
        )
