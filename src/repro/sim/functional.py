"""Functional (dataflow-level) simulation of a layer on the chain.

This simulator walks the exact same decomposition the hardware uses — channel
pairs, stripes, column-wise scan windows — but evaluates each window with
NumPy instead of ticking PE registers.  It answers the question *"does the
Chain-NN dataflow enumerate exactly the right windows and accumulate them
into the right output pixels?"* for layers of any size in reasonable time,
and provides the golden intermediate results the cycle-accurate simulator is
checked against.

Two backends share one result contract (mirroring the cycle simulator):

* ``scalar`` — the per-window Python walk over every channel pair;
* ``vectorized`` — :mod:`repro.sim.functional_vectorized`, the same
  decomposition as whole-array NumPy operations with closed-form counters,
  bit-identical ofmaps and identical :class:`FunctionalRunStats`;
* ``both`` — run both and raise :class:`~repro.errors.SimulationError` on
  any divergence (the cross-check mode ``repro verify`` uses).  Winograd
  layers are the exception: the scalar walk has no transform-domain form,
  so under ``both`` a Winograd layer is computed once and only the im2col
  golden check of the caller verifies it.

Strided layers use the stream-everything-discard policy discussed in
DESIGN.md: the scan runs at stride-1 cadence over the padded input and
windows that do not fall on the stride grid are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.cnn.reference import conv2d_im2col, pad_input
from repro.core.config import ChainConfig
from repro.core.mapper import LayerMapper, LayerMapping
from repro.core.scan import ColumnScanSchedule
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.sim.functional_vectorized import pair_window_stats, vectorized_layer_ofmaps

# NOTE: repro.analysis.winograd / repro.sim.winograd are imported lazily
# inside the Winograd code paths — repro.sim is itself imported while
# repro.engine.adapters is only partially initialised, and the
# repro.analysis package __init__ closes a cycle back into it.

#: selectable simulation backends (``"both"`` additionally cross-checks them)
FUNCTIONAL_BACKENDS = ("scalar", "vectorized")

#: execution algorithms the simulator can run a layer with
SIM_ALGORITHMS = ("direct", "winograd")


@dataclass
class FunctionalRunStats:
    """Counters collected while functionally simulating one layer."""

    windows_evaluated: int = 0
    windows_kept: int = 0
    stripes_processed: int = 0
    pairs_processed: int = 0
    pixels_streamed: int = 0
    primitive_cycles: int = 0

    @property
    def stride_discard_fraction(self) -> float:
        """Fraction of evaluated windows discarded by the stride filter."""
        if self.windows_evaluated == 0:
            return 0.0
        return 1.0 - self.windows_kept / self.windows_evaluated


@dataclass
class FunctionalRunResult:
    """Output of a functional layer simulation."""

    layer: ConvLayer
    ofmaps: np.ndarray
    stats: FunctionalRunStats
    chain_cycles_estimate: float

    def max_abs_error_vs_reference(self, ifmaps: np.ndarray, weights: np.ndarray) -> float:
        """Largest absolute difference against the NumPy reference convolution.

        The golden output comes from the im2col/GEMM reference — much faster
        than the per-pixel direct loop on large layers, and cross-checked
        against it in the reference test suite — while the simulation itself
        still enumerates windows the way the hardware does.
        """
        reference = conv2d_im2col(self.layer, ifmaps, weights)
        return float(np.max(np.abs(reference - self.ofmaps))) if reference.size else 0.0


class FunctionalChainSimulator:
    """Dataflow-level simulator of the Chain-NN execution of a conv layer."""

    def __init__(self, config: Optional[ChainConfig] = None,
                 backend: str = "scalar") -> None:
        if backend not in FUNCTIONAL_BACKENDS + ("both",):
            raise ConfigurationError(
                f"unknown functional backend {backend!r}; "
                f"available: {', '.join(FUNCTIONAL_BACKENDS + ('both',))}"
            )
        self.config = config or ChainConfig()
        self.backend = backend
        self.mapper = LayerMapper(self.config)

    # ------------------------------------------------------------------ #
    # stripe helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _stripe_bases(padded_height: int, kernel_size: int,
                      stripe_height: int) -> List[int]:
        """Starting input rows of the stride-1 stripes covering the feature map.

        ``stripe_height`` is the number of stride-1 output rows each stripe
        produces (the paper's full stripe uses ``K``; the mapping-search
        subsystem explores ``1..K``).
        """
        out_rows_stride1 = padded_height - kernel_size + 1
        bases = list(range(0, out_rows_stride1, stripe_height))
        return bases

    def _process_pair(
        self,
        layer: ConvLayer,
        plane: np.ndarray,
        kernel: np.ndarray,
        out_plane: np.ndarray,
        stats: FunctionalRunStats,
        stripe_height: int,
    ) -> None:
        """Convolve one ifmap plane with one kernel plane, accumulating into out_plane."""
        k = layer.kernel_size
        stride = layer.stride
        padded_height, padded_width = plane.shape
        kernel_col_major = kernel  # indexed [i, j] directly below
        for base in self._stripe_bases(padded_height, k, stripe_height):
            rows = min(stripe_height + k - 1, padded_height - base)
            if rows < k:
                continue
            schedule = ColumnScanSchedule(k, padded_width, stripe_rows=rows)
            stripe = plane[base:base + rows]
            stats.stripes_processed += 1
            stats.pixels_streamed += schedule.pixels_streamed()
            stats.primitive_cycles += schedule.total_timestamps
            for tag in schedule.valid_windows():
                stats.windows_evaluated += 1
                in_row = base + tag.out_row_in_stripe
                in_col = tag.out_col
                if in_row % stride or in_col % stride:
                    continue
                out_row = in_row // stride
                out_col = in_col // stride
                if out_row >= out_plane.shape[0] or out_col >= out_plane.shape[1]:
                    continue
                window = stripe[
                    tag.out_row_in_stripe:tag.out_row_in_stripe + k,
                    tag.out_col:tag.out_col + k,
                ]
                out_plane[out_row, out_col] += float(np.sum(window * kernel_col_major))
                stats.windows_kept += 1
        stats.pairs_processed += 1

    # ------------------------------------------------------------------ #
    # shared plumbing (serial and parallel paths must stay identical)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_tensors(layer: ConvLayer, ifmaps: np.ndarray,
                          weights: np.ndarray,
                          stripe_height: Optional[int]):
        """Common input validation; returns float64 tensors + stripe height."""
        ifmaps = np.asarray(ifmaps, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if stripe_height is None:
            stripe_height = layer.kernel_size
        if not (1 <= stripe_height <= layer.kernel_size):
            raise ConfigurationError(
                f"{layer.name}: stripe_height must be in [1, {layer.kernel_size}], "
                f"got {stripe_height}"
            )
        if ifmaps.shape != layer.in_shape:
            raise WorkloadError(
                f"{layer.name}: ifmaps shape {ifmaps.shape} does not match {layer.in_shape}"
            )
        expected_w = (layer.out_channels, layer.in_channels_per_group,
                      layer.kernel_size, layer.kernel_size)
        if weights.shape != expected_w:
            raise WorkloadError(
                f"{layer.name}: weights shape {weights.shape} does not match {expected_w}"
            )
        return ifmaps, weights, stripe_height

    @staticmethod
    def _closed_form_stats(layer: ConvLayer,
                           stripe_height: int) -> FunctionalRunStats:
        """Layer counters from the per-pair closed forms (vectorized path)."""
        per_pair = pair_window_stats(layer, stripe_height)
        pairs = layer.channel_pairs()
        return FunctionalRunStats(
            windows_evaluated=per_pair.windows_evaluated * pairs,
            windows_kept=per_pair.windows_kept * pairs,
            stripes_processed=per_pair.stripes * pairs,
            pairs_processed=pairs,
            pixels_streamed=per_pair.pixels_streamed * pairs,
            primitive_cycles=per_pair.primitive_cycles * pairs,
        )

    @staticmethod
    def _winograd_stats(layer: ConvLayer) -> FunctionalRunStats:
        """Layer counters of the transform-domain execution, closed form.

        A "window" is one 4x4 input tile (each produces a 2x2 output tile),
        a "stripe" one tile row; streamed pixels and primitive cycles follow
        the :mod:`repro.analysis.winograd` cost model (3 cycles per tile on
        a 9-PE primitive plus the ``K^2 - 1`` fill per stripe), so the
        simulator's counters and the analytical scorer agree.
        """
        from repro.analysis.winograd import (
            WINOGRAD_CYCLES_PER_TILE,
            winograd_ext_width,
            winograd_tile_grid,
        )

        tiles_h, tiles_w = winograd_tile_grid(layer)
        pairs = layer.channel_pairs()
        fill = layer.kernel_size * layer.kernel_size - 1
        per_stripe = WINOGRAD_CYCLES_PER_TILE * tiles_w + fill
        return FunctionalRunStats(
            windows_evaluated=tiles_h * tiles_w * pairs,
            windows_kept=tiles_h * tiles_w * pairs,
            stripes_processed=tiles_h * pairs,
            pairs_processed=pairs,
            pixels_streamed=tiles_h * 4 * winograd_ext_width(layer) * pairs,
            primitive_cycles=per_stripe * tiles_h * pairs,
        )

    def _run_winograd(self, layer: ConvLayer,
                      padded: np.ndarray, weights: np.ndarray,
                      mapping: LayerMapping) -> FunctionalRunResult:
        """Whole-layer Winograd execution of already-validated tensors.

        One transform-domain implementation serves every backend selection,
        ``both`` included: there is no second Winograd computation to
        cross-check against, so the layer is verified against the im2col
        golden only.
        """
        from repro.sim.winograd import winograd_ofmap_block

        ofmaps = np.zeros(layer.out_shape, dtype=np.float64)
        winograd_ofmap_block(layer, padded, weights, 0, layer.out_channels,
                             ofmaps)
        return self._finalize(layer, ofmaps, self._winograd_stats(layer),
                              mapping)

    @staticmethod
    def _finalize(layer: ConvLayer, ofmaps: np.ndarray,
                  stats: FunctionalRunStats,
                  mapping: LayerMapping) -> FunctionalRunResult:
        """Shared sanity checks + result assembly for every execution path."""
        if stats.pairs_processed != mapping.channel_pairs:
            raise SimulationError(
                f"{layer.name}: processed {stats.pairs_processed} pairs, "
                f"expected {mapping.channel_pairs}"
            )
        if mapping.active_primitives <= 0:
            raise SimulationError(
                f"{layer.name}: mapping reports {mapping.active_primitives} active "
                "primitives; cannot derive a per-primitive chain-cycle estimate"
            )
        return FunctionalRunResult(
            layer=layer,
            ofmaps=ofmaps,
            stats=stats,
            chain_cycles_estimate=stats.primitive_cycles / mapping.active_primitives,
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run_layer(self, layer: ConvLayer, ifmaps: np.ndarray,
                  weights: np.ndarray,
                  stripe_height: Optional[int] = None,
                  algorithm: str = "direct") -> FunctionalRunResult:
        """Simulate one layer; returns the ofmaps and the dataflow statistics.

        ``stripe_height`` overrides the ofmap rows computed per stripe (the
        default is the paper's full ``K``-row stripe).  Any legal height
        partitions the same window set differently, so the ofmaps are
        bit-identical across heights — the property the mapping-search
        verification relies on — while the dataflow counters (stripes,
        streamed pixels, primitive cycles) honestly reflect the choice.

        ``algorithm="winograd"`` executes the F(2x2,3x3) transform-domain
        mode instead (3x3 stride-1 layers only): results match the im2col
        golden within :func:`repro.sim.winograd.winograd_tolerance` rather
        than bit-identically, and the stripe-height knob does not apply (the
        4x4 tile grid fixes the stripe plan).
        """
        if algorithm not in SIM_ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {algorithm!r}; "
                f"available: {', '.join(SIM_ALGORITHMS)}"
            )
        ifmaps, weights, stripe_height = self._validate_tensors(
            layer, ifmaps, weights, stripe_height)
        mapping = self.mapper.map_layer(layer)
        padded = pad_input(ifmaps, layer.padding)

        if algorithm == "winograd":
            return self._run_winograd(layer, padded, weights, mapping)
        if self.backend == "both":
            scalar = self._run_backend("scalar", layer, padded, weights, mapping,
                                       stripe_height)
            result = self._run_backend("vectorized", layer, padded, weights, mapping,
                                       stripe_height)
            if not np.array_equal(scalar.ofmaps, result.ofmaps):
                raise SimulationError(
                    f"{layer.name}: vectorized functional backend diverges from "
                    f"the scalar path (max abs difference "
                    f"{float(np.max(np.abs(scalar.ofmaps - result.ofmaps))):.3e})"
                )
            if scalar.stats != result.stats:
                raise SimulationError(
                    f"{layer.name}: vectorized functional counters diverge from "
                    f"the scalar path ({result.stats} != {scalar.stats})"
                )
            return result
        return self._run_backend(self.backend, layer, padded, weights, mapping,
                                 stripe_height)

    def run_layer_parallel(self, layer: ConvLayer, ifmaps: np.ndarray,
                           weights: np.ndarray, runtime,
                           stripe_height: Optional[int] = None,
                           algorithm: str = "direct") -> FunctionalRunResult:
        """Simulate one layer with ofmap blocks fanned over ``runtime``.

        Requires the vectorized backend: every ofmap channel is an
        independent broadcast-multiply/merged-axis reduction, so the padded
        ifmaps and weights ship to the persistent workers once through
        shared memory, each worker writes its channel block into a shared
        assembly buffer, and the dataflow counters come from the same closed
        forms the vectorized backend uses — ofmaps *and* stats are
        bit-identical to :meth:`run_layer`.  The Winograd algorithm keeps
        the same decomposition (its transform-domain accumulation is also
        per-ofmap-channel independent), so the partition invariant holds for
        both algorithms.
        """
        from repro.runtime import SharedTensor
        from repro.sim.functional_vectorized import ofmap_block_ranges

        if self.backend != "vectorized":
            raise ConfigurationError(
                f"run_layer_parallel requires the vectorized backend, "
                f"not {self.backend!r}"
            )
        if algorithm not in SIM_ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {algorithm!r}; "
                f"available: {', '.join(SIM_ALGORITHMS)}"
            )
        ifmaps, weights, stripe_height = self._validate_tensors(
            layer, ifmaps, weights, stripe_height)
        mapping = self.mapper.map_layer(layer)
        padded = pad_input(ifmaps, layer.padding)

        handles = []
        try:
            shared_out = SharedTensor.zeros(layer.out_shape)
            handles.append(shared_out)
            if shared_out.name is None:
                # inline fallback: workers would write their blocks into
                # private pickled copies and the parent would read back
                # zeros — run the (bit-identical) serial path instead
                return self.run_layer(layer, ifmaps, weights,
                                      stripe_height=stripe_height,
                                      algorithm=algorithm)
            shared_padded = SharedTensor.create(padded)
            handles.append(shared_padded)
            shared_weights = SharedTensor.create(weights)
            handles.append(shared_weights)
            runtime.map("verify.sim_block", [
                {
                    "layer": layer,
                    "padded": shared_padded,
                    "weights": shared_weights,
                    "out": shared_out,
                    "m_start": m_start,
                    "m_stop": m_stop,
                    "algorithm": algorithm,
                }
                for m_start, m_stop in ofmap_block_ranges(layer, runtime.workers)
            ])
            ofmaps = np.array(shared_out.open(), copy=True)
        finally:
            for handle in handles:
                handle.unlink()

        if algorithm == "winograd":
            stats = self._winograd_stats(layer)
        else:
            stats = self._closed_form_stats(layer, stripe_height)
        return self._finalize(layer, ofmaps, stats, mapping)

    def _run_backend(self, backend: str, layer: ConvLayer, padded: np.ndarray,
                     weights: np.ndarray, mapping: LayerMapping,
                     stripe_height: int) -> FunctionalRunResult:
        """One backend's simulation of an already-validated layer."""
        if backend == "vectorized":
            ofmaps = vectorized_layer_ofmaps(layer, padded, weights)
            stats = self._closed_form_stats(layer, stripe_height)
        else:
            ofmaps = np.zeros(layer.out_shape, dtype=np.float64)
            stats = FunctionalRunStats()
            in_per_group = layer.in_channels_per_group
            out_per_group = layer.out_channels_per_group
            for group in range(layer.groups):
                for m_local in range(out_per_group):
                    m = group * out_per_group + m_local
                    for c_local in range(in_per_group):
                        c = group * in_per_group + c_local
                        self._process_pair(
                            layer,
                            padded[c],
                            weights[m, c_local],
                            ofmaps[m],
                            stats,
                            stripe_height,
                        )

        return self._finalize(layer, ofmaps, stats, mapping)

    def run_and_check(self, layer: ConvLayer, ifmaps: np.ndarray, weights: np.ndarray,
                      tolerance: float = 1e-9,
                      algorithm: str = "direct") -> Dict[str, float]:
        """Run the simulation and compare against the reference convolution.

        Winograd runs should pass the documented
        :func:`repro.sim.winograd.winograd_tolerance` bound as ``tolerance``
        (the transforms reassociate the reduction, so the direct float
        round-off default is not the right contract).
        """
        result = self.run_layer(layer, ifmaps, weights, algorithm=algorithm)
        error = result.max_abs_error_vs_reference(ifmaps, weights)
        if error > tolerance:
            raise SimulationError(
                f"{layer.name}: functional simulation deviates from reference "
                f"(max abs error {error:.3e} > {tolerance:.3e})"
            )
        return {
            "max_abs_error": error,
            "windows_kept": float(result.stats.windows_kept),
            "chain_cycles": result.chain_cycles_estimate,
        }
