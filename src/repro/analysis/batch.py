"""The analytical model of Chain-NN, evaluated columnar (struct-of-arrays).

:class:`BatchDesignEvaluator` is the one place network-level analytical
numbers come from: Fig. 9 layer times, Table IV memory traffic, the Fig. 10
power split and the sweep columns.  It evaluates a whole grid of design
points — PE count x clock frequency x batch size x datapath precision — as
whole-NumPy-array expressions:

* the per-layer *closed forms* are shared with the per-layer helpers
  (:func:`repro.core.performance.pair_cycles_for`,
  :meth:`repro.memory.traffic.TrafficModel.kmemory_words` and its siblings,
  :func:`repro.memory.traffic.imemory_words_for` /
  :func:`~repro.memory.traffic.dram_words_for`,
  :func:`repro.energy.power.chain_power_w` /
  :func:`~repro.energy.power.memory_power_w`,
  :meth:`repro.energy.area.AreaModel.total_gates_for`), applied to arrays of
  design points instead of scalars;
* layer-constant factors (pair cycles, channel pairs, traffic word counts
  per image, tile heights per precision) are hoisted out of the grid loop and
  computed once per network.

:meth:`BatchDesignEvaluator.breakdown` runs the same layer loop on a
one-point grid and keeps the per-layer terms: every ``analytical`` run
record, ``run --traffic`` table and paper experiment is such a breakdown.
The tests check the evaluator, bit for bit, against an oracle that sums the
per-layer helpers (``layer_performance``, ``layer_traffic``) layer by layer.

The engine layer exposes grids as the ``analytical-batch`` engine
(:class:`repro.engine.adapters.AnalyticalBatchEngine`);
:meth:`repro.engine.executor.SweepExecutor.run_grid` feeds it cache-aware
chunks.  :mod:`repro.analysis.pareto` reduces the resulting columns to a
Pareto frontier or a top-k list.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.pareto import objective_matrix, pareto_mask, top_k_indices
from repro.analysis.winograd import winograd_cost_fields, winograd_eligible
from repro.cnn.layer import ConvLayer
from repro.cnn.network import Network
from repro.core.config import MAINSTREAM_KERNEL_SIZES, ChainConfig
from repro.core.dataflow import DataflowPlanner, tm_for
from repro.core.performance import Mode, pair_cycles_for, per_stripe_cycles_paper
from repro.energy.area import AreaModel
from repro.energy.components import EnergyParams, GateCountParams
from repro.energy.power import PowerReport, chain_power_w, memory_power_w
from repro.errors import ConfigurationError
from repro.hwmodel.clock import ClockDomain
from repro.kernels import MAPPING_RESULT_COLUMNS, MappingCostParams, get_backend
from repro.memory.traffic import TrafficModel, dram_words_for, imemory_words_for
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

# columnar-path throughput counters
_M_BATCH_POINTS = obs_metrics.counter("batch.points_evaluated")
_M_CANDIDATES_SCORED = obs_metrics.counter("mapping.candidates_scored")

#: grid-axis names accepted by :meth:`DesignGrid.parse`
GRID_AXES = ("pe", "freq", "batch", "bits")

#: default Pareto objectives (all minimised): latency vs. power vs. area
DEFAULT_OBJECTIVES = ("total_time_per_batch_s", "power_w", "total_gates")

#: metric columns where larger values are better; every other column is
#: treated as lower-is-better by ranking/frontier consumers (the CLI)
HIGHER_IS_BETTER = frozenset({
    "fps",
    "achieved_gops",
    "peak_gops",
    "gops_per_watt",
    "worst_case_utilization",
})


def _parse_axis(name: str, text: str, integer: bool) -> np.ndarray:
    """Parse one axis spec: ``v``, ``start:stop`` or ``start:stop:step``.

    Ranges include the stop value when it lies on the step grid (the natural
    reading of ``pe=128:1152:32``).
    """
    parts = text.split(":")
    if len(parts) not in (1, 2, 3) or any(not part for part in parts):
        raise ConfigurationError(
            f"grid axis {name}={text!r} must be 'value', 'start:stop' or 'start:stop:step'"
        )
    try:
        numbers = [float(part) for part in parts]
    except ValueError:
        raise ConfigurationError(f"grid axis {name}={text!r} contains a non-number") from None
    if len(parts) == 1:
        values = np.array([numbers[0]])
    else:
        start, stop = numbers[0], numbers[1]
        step = numbers[2] if len(parts) == 3 else 1.0
        if step <= 0:
            raise ConfigurationError(f"grid axis {name}: step must be > 0, got {step}")
        if stop < start:
            raise ConfigurationError(f"grid axis {name}: stop {stop} < start {start}")
        # never overshoot: the last value is the largest on-grid point <= stop
        # (with a float-tolerant count so e.g. 200:1000:50 still includes 1000)
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        values = start + step * np.arange(count)
    if integer:
        rounded = np.rint(values)
        if not np.allclose(values, rounded):
            raise ConfigurationError(f"grid axis {name} must contain integers, got {text!r}")
        return rounded.astype(np.int64)
    return values.astype(np.float64)


@dataclass(frozen=True)
class DesignGrid:
    """A flattened grid of design points, one array ("column") per axis.

    All four columns have the same length; point ``i`` is
    ``(num_pes[i], frequency_hz[i], batch[i], word_bits[i])``.
    """

    num_pes: np.ndarray       # int64
    frequency_hz: np.ndarray  # float64
    batch: np.ndarray         # int64
    word_bits: np.ndarray     # int64

    def __post_init__(self) -> None:
        lengths = {column.shape for column in self._columns()}
        if len(lengths) != 1 or len(next(iter(lengths))) != 1:
            raise ConfigurationError(
                f"grid columns must be 1D and equally long, got shapes {sorted(lengths)}"
            )
        if self.n_points and int(self.num_pes.min()) < 1:
            raise ConfigurationError("num_pes values must be >= 1")
        if self.n_points and int(self.batch.min()) < 1:
            raise ConfigurationError("batch values must be >= 1")
        if self.n_points and float(self.frequency_hz.min()) <= 0:
            raise ConfigurationError("frequency values must be > 0")
        if self.n_points and (np.any(self.word_bits < 8) or np.any(self.word_bits % 8)):
            raise ConfigurationError("word_bits values must be positive multiples of 8")

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return (self.num_pes, self.frequency_hz, self.batch, self.word_bits)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_axes(
        cls,
        pe_counts: Sequence[int] = (576,),
        frequencies_hz: Sequence[float] = (700e6,),
        batches: Sequence[int] = (128,),
        word_bits: Sequence[int] = (16,),
    ) -> "DesignGrid":
        """Cartesian product of the four axes, flattened in C order."""
        pe, freq, batch, bits = np.meshgrid(
            np.asarray(pe_counts, dtype=np.int64),
            np.asarray(frequencies_hz, dtype=np.float64),
            np.asarray(batches, dtype=np.int64),
            np.asarray(word_bits, dtype=np.int64),
            indexing="ij",
        )
        return cls(pe.ravel(), freq.ravel(), batch.ravel(), bits.ravel())

    @classmethod
    def parse(cls, spec: str, base: Optional[ChainConfig] = None,
              default_batch: int = 128) -> "DesignGrid":
        """Build a grid from a CLI spec like ``pe=128:1152:32,freq=200:1000:50``.

        Axes: ``pe`` (chain length), ``freq`` (MHz), ``batch``, ``bits``
        (datapath width).  Ranges are ``start:stop:step`` with an inclusive
        stop; omitted axes default to the ``base`` configuration (and
        ``default_batch``).
        """
        base = base or ChainConfig()
        axes: Dict[str, np.ndarray] = {
            "pe": np.array([base.num_pes], dtype=np.int64),
            "freq": np.array([base.frequency_hz / 1e6]),
            "batch": np.array([default_batch], dtype=np.int64),
            "bits": np.array([base.word_bits], dtype=np.int64),
        }
        spec = spec.strip()
        if not spec:
            raise ConfigurationError("empty grid spec")
        for term in spec.split(","):
            name, _, text = term.partition("=")
            name = name.strip()
            if name not in GRID_AXES:
                raise ConfigurationError(
                    f"unknown grid axis {name!r}; expected one of {', '.join(GRID_AXES)}"
                )
            axes[name] = _parse_axis(name, text.strip(), integer=name != "freq")
        return cls.from_axes(
            pe_counts=axes["pe"],
            frequencies_hz=axes["freq"] * 1e6,
            batches=axes["batch"],
            word_bits=axes["bits"],
        )

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def n_points(self) -> int:
        """Number of design points in the grid."""
        return int(self.num_pes.shape[0])

    def config_at(self, index: int, base: Optional[ChainConfig] = None) -> ChainConfig:
        """Materialise one grid point as a :class:`ChainConfig`."""
        base = base or ChainConfig()
        return replace(
            base,
            num_pes=int(self.num_pes[index]),
            clock=ClockDomain(float(self.frequency_hz[index])),
            word_bits=int(self.word_bits[index]),
        )

    def take(self, indices: np.ndarray) -> "DesignGrid":
        """Sub-grid at the given point indices."""
        return DesignGrid(
            num_pes=self.num_pes[indices],
            frequency_hz=self.frequency_hz[indices],
            batch=self.batch[indices],
            word_bits=self.word_bits[indices],
        )

    def chunks(self, chunk_size: int) -> Iterator["DesignGrid"]:
        """Split into consecutive sub-grids of at most ``chunk_size`` points."""
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, self.n_points, chunk_size):
            yield self.take(np.arange(start, min(start + chunk_size, self.n_points)))

    # ------------------------------------------------------------------ #
    # serialisation (chunk cache keys and payloads)
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-ready form for hashing and caching: one exact byte column
        per axis (see :func:`_encode_columns`)."""
        return _encode_columns(self, _GRID_WIRE_DTYPES)

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "DesignGrid":
        """Rebuild a grid from :meth:`to_json_dict` output."""
        return cls(**_decode_columns(data, _GRID_WIRE_DTYPES))


#: metric columns every batch result carries, in report order
RESULT_COLUMNS = (
    "peak_gops",
    "fps",
    "total_time_per_batch_s",
    "achieved_gops",
    "power_w",
    "gops_per_watt",
    "worst_case_utilization",
    "total_gates",
)

#: serialised dtype of each column: little-endian, so the bytes (and the
#: chunk cache keys hashed from them) are the same on every host
_GRID_WIRE_DTYPES = {"num_pes": "<i8", "frequency_hz": "<f8", "batch": "<i8",
                     "word_bits": "<i8"}
_RESULT_WIRE_DTYPES = dict.fromkeys(RESULT_COLUMNS, "<f8")


def _encode_columns(owner: Any, dtypes: Dict[str, str]) -> Dict[str, str]:
    """Each named column of ``owner`` as base64 of its raw bytes.

    Exact by construction: decoding returns the same bits, where decimal
    text would cost a float repr per value to write and a parse to read.
    """
    return {
        name: base64.b64encode(
            np.asarray(getattr(owner, name), dtype=dtype).tobytes()).decode("ascii")
        for name, dtype in dtypes.items()
    }


def _decode_columns(data: Dict[str, Any], dtypes: Dict[str, str]) -> Dict[str, np.ndarray]:
    """Inverse of :func:`_encode_columns` (read-only arrays over the bytes).

    A missing column raises ``KeyError``, a column that is not text
    ``TypeError``, and text that is not whole base64 of whole elements
    ``ValueError``.
    """
    return {
        name: np.frombuffer(base64.b64decode(data[name], validate=True), dtype=dtype)
        for name, dtype in dtypes.items()
    }


@dataclass(frozen=True)
class BatchSweepResult:
    """Struct-of-arrays sweep result: one NumPy column per metric."""

    grid: DesignGrid
    peak_gops: np.ndarray
    fps: np.ndarray
    total_time_per_batch_s: np.ndarray
    achieved_gops: np.ndarray
    power_w: np.ndarray
    gops_per_watt: np.ndarray
    worst_case_utilization: np.ndarray
    total_gates: np.ndarray

    def __post_init__(self) -> None:
        shape = self.grid.num_pes.shape
        for name in RESULT_COLUMNS:
            if getattr(self, name).shape != shape:
                raise ConfigurationError(
                    f"result column {name} has shape {getattr(self, name).shape}, "
                    f"the grid {shape}"
                )

    @property
    def n_points(self) -> int:
        """Number of evaluated design points."""
        return self.grid.n_points

    # ------------------------------------------------------------------ #
    # columnar access
    # ------------------------------------------------------------------ #
    def columns(self) -> Dict[str, np.ndarray]:
        """All columns (grid axes + metrics) keyed by name."""
        out: Dict[str, np.ndarray] = {
            "num_pes": self.grid.num_pes,
            "frequency_hz": self.grid.frequency_hz,
            "batch": self.grid.batch,
            "word_bits": self.grid.word_bits,
        }
        for name in RESULT_COLUMNS:
            out[name] = getattr(self, name)
        return out

    def row(self, index: int) -> Dict[str, float]:
        """One design point as a report row (the sweep-table format)."""
        return {
            "PEs": int(self.grid.num_pes[index]),
            "Freq (MHz)": float(self.grid.frequency_hz[index]) / 1e6,
            "batch": int(self.grid.batch[index]),
            "bits": int(self.grid.word_bits[index]),
            "Peak GOPS": float(self.peak_gops[index]),
            "Achieved GOPS": float(self.achieved_gops[index]),
            "fps": float(self.fps[index]),
            "Time/batch (ms)": float(self.total_time_per_batch_s[index]) * 1e3,
            "Power (W)": float(self.power_w[index]),
            "GOPS/W": float(self.gops_per_watt[index]),
            "worst-case util.": float(self.worst_case_utilization[index]),
            "Gates (k)": float(self.total_gates[index]) / 1e3,
        }

    def rows(self, indices: Optional[Sequence[int]] = None) -> List[Dict[str, float]]:
        """Report rows for selected points (all points when ``indices`` is None)."""
        if indices is None:
            indices = range(self.n_points)
        return [self.row(int(index)) for index in indices]

    def labels(self, indices: Optional[Sequence[int]] = None) -> List[str]:
        """Human-readable point labels matching :meth:`rows`."""
        if indices is None:
            indices = range(self.n_points)
        return [
            f"{int(self.grid.num_pes[i])} PEs @ {self.grid.frequency_hz[i] / 1e6:.0f} MHz"
            for i in indices
        ]

    def take(self, indices: np.ndarray) -> "BatchSweepResult":
        """Sub-result at the given point indices."""
        return BatchSweepResult(
            grid=self.grid.take(indices),
            **{name: getattr(self, name)[indices] for name in RESULT_COLUMNS},
        )

    @classmethod
    def concatenate(cls, results: Sequence["BatchSweepResult"]) -> "BatchSweepResult":
        """Stitch chunked results back into one (in chunk order)."""
        if not results:
            raise ConfigurationError("cannot concatenate zero batch results")
        grid = DesignGrid(
            num_pes=np.concatenate([r.grid.num_pes for r in results]),
            frequency_hz=np.concatenate([r.grid.frequency_hz for r in results]),
            batch=np.concatenate([r.grid.batch for r in results]),
            word_bits=np.concatenate([r.grid.word_bits for r in results]),
        )
        columns = {
            name: np.concatenate([getattr(r, name) for r in results])
            for name in RESULT_COLUMNS
        }
        return cls(grid=grid, **columns)

    # ------------------------------------------------------------------ #
    # reduction
    # ------------------------------------------------------------------ #
    def pareto_indices(self, objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                       maximize: Sequence[str] = ()) -> np.ndarray:
        """Indices of the Pareto-efficient points (all objectives minimised
        unless listed in ``maximize``)."""
        costs = objective_matrix(self.columns(), objectives, maximize)
        return np.flatnonzero(pareto_mask(costs))

    def pareto(self, objectives: Sequence[str] = DEFAULT_OBJECTIVES,
               maximize: Sequence[str] = ()) -> "BatchSweepResult":
        """The Pareto frontier as a (smaller) batch result."""
        return self.take(self.pareto_indices(objectives, maximize))

    def top_k(self, metric: str, k: int, maximize: bool = True) -> "BatchSweepResult":
        """The ``k`` best points by one metric column, best first."""
        columns = self.columns()
        if metric not in columns:
            raise ConfigurationError(
                f"unknown metric {metric!r}; available: {sorted(columns)}"
            )
        return self.take(top_k_indices(columns[metric], k, maximize=maximize))

    # ------------------------------------------------------------------ #
    # serialisation (the sweep executor caches whole chunks)
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-ready form: the grid plus one exact byte column per metric."""
        return {"grid": self.grid.to_json_dict(),
                **_encode_columns(self, _RESULT_WIRE_DTYPES)}

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "BatchSweepResult":
        """Rebuild a result from :meth:`to_json_dict` output.

        Raises ``KeyError``/``TypeError``/``ValueError`` on a damaged
        column and :class:`ConfigurationError` on columns of unequal length.
        """
        return cls(grid=DesignGrid.from_json_dict(data["grid"]),
                   **_decode_columns(data, _RESULT_WIRE_DTYPES))


@dataclass(frozen=True)
class PointBreakdown:
    """The analytical model at one design point, layer by layer.

    Per-layer times and word counts cover the whole batch (kernels load
    once per batch); the power split is the average over the batch.  The
    headline fields are the :data:`RESULT_COLUMNS` of a one-point grid.
    """

    network_name: str
    config: ChainConfig
    batch: int
    layer_names: Tuple[str, ...]
    conv_time_s: Tuple[float, ...]
    kernel_load_time_s: Tuple[float, ...]
    dram_words: Tuple[float, ...]
    imemory_words: Tuple[float, ...]
    kmemory_words: Tuple[float, ...]
    omemory_words: Tuple[float, ...]
    conv_time_per_batch_s: float
    kernel_load_time_per_batch_s: float
    power_components_w: Dict[str, float]
    peak_gops: float
    fps: float
    total_time_per_batch_s: float
    achieved_gops: float
    power_w: float
    gops_per_watt: float
    worst_case_utilization: float
    total_gates: float

    def summary(self) -> Dict[str, float]:
        """The headline numbers of a run, as ``run`` tables and records show them."""
        return {
            "batch": float(self.batch),
            "fps": self.fps,
            "conv_time_per_batch_ms": self.conv_time_per_batch_s * 1e3,
            "kernel_load_time_ms": self.kernel_load_time_per_batch_s * 1e3,
            "achieved_gops": self.achieved_gops,
            "total_power_w": self.power_w,
            "gops_per_watt": self.gops_per_watt,
        }

    def layer_times_ms(self) -> Dict[str, float]:
        """Per-layer convolution time in milliseconds for the batch (Fig. 9 bars)."""
        return {name: seconds * 1e3
                for name, seconds in zip(self.layer_names, self.conv_time_s)}

    def kernel_load_times_ms(self) -> Dict[str, float]:
        """Per-layer kernel-load time in milliseconds (Fig. 9 small bars)."""
        return {name: seconds * 1e3
                for name, seconds in zip(self.layer_names, self.kernel_load_time_s)}

    def traffic_mb(self) -> Dict[str, Dict[str, float]]:
        """Table IV: layer name -> {store -> decimal MB} plus the "Total" row."""
        word = self.config.word_bytes
        stores = {
            "DRAM": self.dram_words,
            "iMemory": self.imemory_words,
            "kMemory": self.kmemory_words,
            "oMemory": self.omemory_words,
        }
        table = {
            name: {store: words[index] * word / 1e6 for store, words in stores.items()}
            for index, name in enumerate(self.layer_names)
        }
        table["Total"] = {store: sum(words) * word / 1e6
                          for store, words in stores.items()}
        return table

    def power_report(self) -> PowerReport:
        """The Fig. 10 power split as a :class:`~repro.energy.power.PowerReport`."""
        return PowerReport(
            name=self.network_name,
            components_w=dict(self.power_components_w),
            throughput_gops=self.achieved_gops,
        )


@dataclass(frozen=True)
class _LayerConstants:
    """Per-layer factors that do not depend on the design point."""

    layer: ConvLayer
    kernel_area: int            # K^2 (PEs per primitive)
    pair_cycles: float          # per-pair cycles, dual-channel adjusted
    channel_pairs: int
    kmemory_words: int          # per image
    omemory_words: int          # per image
    tiles_by_bits: Dict[int, Tuple[int, int]]  # bits -> (th, stripe_rows)


#: per-layer terms :meth:`BatchDesignEvaluator._evaluate` sums over layers
_LAYER_TERMS = ("conv_time_s", "kernel_load_time_s", "busy_pe_cycles",
                "kmemory_words", "imemory_words", "omemory_words")


class BatchDesignEvaluator:
    """The analytical model of a fixed network, over arrays of design points.

    Everything that only depends on the network (pair cycles, channel pairs,
    traffic word counts per image) is computed once at construction;
    :meth:`evaluate_grid` is then pure array arithmetic — no per-point Python
    objects.  :meth:`breakdown` is the same arithmetic at the base design
    point, with the per-layer terms kept.
    """

    def __init__(
        self,
        network: Network,
        base: Optional[ChainConfig] = None,
        mode: Mode = "paper",
        energy: Optional[EnergyParams] = None,
        gates: Optional[GateCountParams] = None,
    ) -> None:
        if mode not in ("paper", "detailed"):
            raise ConfigurationError(f"mode must be 'paper' or 'detailed', got {mode!r}")
        self.network = network
        self.base = base or ChainConfig()
        self.mode = mode
        self.energy = energy or EnergyParams()
        self.gates = gates or GateCountParams()
        self._layers = [self._constants_for(layer) for layer in network.conv_layers]
        if not self._layers:
            raise ConfigurationError(f"{network.name}: no convolutional layers to evaluate")
        self._max_kernel_area = max(layer.kernel_area for layer in self._layers)
        self._total_macs = sum(layer.macs for layer in network.conv_layers)

    # ------------------------------------------------------------------ #
    # per-layer constants
    # ------------------------------------------------------------------ #
    def _constants_for(self, layer: ConvLayer) -> _LayerConstants:
        return _LayerConstants(
            layer=layer,
            kernel_area=layer.kernel_size * layer.kernel_size,
            pair_cycles=pair_cycles_for(layer, self.mode, self.base.dual_channel),
            channel_pairs=layer.channel_pairs(),
            kmemory_words=TrafficModel.kmemory_words(layer),
            omemory_words=TrafficModel.omemory_words(layer),
            tiles_by_bits={},
        )

    def _tile_for(self, layer_index: int, bits: int) -> Tuple[int, int]:
        """(th, stripe_rows) of one layer at one datapath width.

        Delegates to the real :class:`DataflowPlanner` so capacity-driven tile
        shrinking is the per-layer model's (``Tm`` is recomputed per design
        point later; it does not influence ``Th``).
        """
        constants = self._layers[layer_index]
        cached = constants.tiles_by_bits.get(bits)
        if cached is not None:
            return cached
        planner = DataflowPlanner(replace(self.base, word_bits=bits))
        tile = planner.plan(constants.layer, active_primitives=1)
        constants.tiles_by_bits[bits] = (tile.th, tile.stripe_rows)
        return constants.tiles_by_bits[bits]

    def mapping_evaluator(self, layer_index: int,
                          batch: int) -> "MappingBatchEvaluator":
        """Columnar *mapping-candidate* evaluator for one layer of the network.

        The mapping-search subsystem (:mod:`repro.mapping`) scores its
        candidates through this hook so the search shares the evaluator's
        base configuration and unit energies.
        """
        return MappingBatchEvaluator(
            self.network.conv_layers[layer_index],
            config=self.base,
            batch=batch,
            energy=self.energy,
        )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate_grid(self, grid: DesignGrid) -> BatchSweepResult:
        """Evaluate every grid point; all metrics as whole-array expressions."""
        _M_BATCH_POINTS.inc(grid.n_points)
        with obs_trace.span("batch.evaluate_grid", network=self.network.name,
                            points=grid.n_points):
            if grid.n_points == 0:
                empty = np.zeros(0, dtype=np.float64)
                return BatchSweepResult(grid=grid, **{name: empty for name in RESULT_COLUMNS})
            return self._evaluate(grid)[0]

    def breakdown(self, batch: int) -> PointBreakdown:
        """The base design point at one batch size, layer by layer.

        The same layer loop and arithmetic as :meth:`evaluate_grid` on a
        one-point grid, so every number equals the grid's at that point.
        """
        base = self.base
        grid = DesignGrid.from_axes(pe_counts=(base.num_pes,),
                                    frequencies_hz=(base.frequency_hz,),
                                    batches=(batch,), word_bits=(base.word_bits,))
        result, totals, power, layers = self._evaluate(grid, per_layer=True)
        return PointBreakdown(
            network_name=self.network.name,
            config=base,
            batch=batch,
            layer_names=tuple(layer.name for layer in self.network.conv_layers),
            conv_time_s=layers["conv_time_s"],
            kernel_load_time_s=layers["kernel_load_time_s"],
            dram_words=layers["dram_words"],
            imemory_words=layers["imemory_words"],
            kmemory_words=layers["kmemory_words"],
            omemory_words=layers["omemory_words"],
            conv_time_per_batch_s=float(totals["conv_time_s"][0]),
            kernel_load_time_per_batch_s=float(totals["kernel_load_time_s"][0]),
            power_components_w={name: float(watts[0]) for name, watts in power.items()},
            **{name: float(getattr(result, name)[0]) for name in RESULT_COLUMNS},
        )

    def _tile_terms(self, layer_index: int, bits: int, primitives: np.ndarray,
                    batch: np.ndarray, dram: bool
                    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """(iMemory words, DRAM words or None) of one layer at points of one
        datapath width.

        Both depend on the tile shape: Th is precision-driven (planned per
        distinct word width), Tm is design-point-driven.
        """
        layer = self._layers[layer_index].layer
        th, stripe_rows = self._tile_for(layer_index, bits)
        word = bits // 8
        tm = tm_for(layer, self.base.omemory_bytes, word, th, primitives)
        imemory_words = imemory_words_for(layer, th, stripe_rows, tm) * batch
        dram_words = (dram_words_for(layer, self.base.imemory_bytes, word, stripe_rows,
                                     tm, batch) if dram else None)
        return imemory_words, dram_words

    def _layer_terms(self, grid: DesignGrid, dram: bool
                     ) -> Iterator[Tuple[str, Any, np.ndarray]]:
        """``(term, selector, column)`` of every layer's terms, layer by layer
        in network order, for the whole batch.

        ``column`` holds the term at the grid points ``selector`` picks: all
        of them, except that a grid with several datapath widths gets its
        iMemory and DRAM words one width group at a time.  Columns come one
        at a time and are added in place, so a grid holds one column besides
        the running totals.  DRAM words come only when ``dram``: breakdowns
        report them, grids do not.
        """
        num_pes = grid.num_pes
        frequency = grid.frequency_hz
        batch = grid.batch.astype(np.float64)
        widths = [int(value) for value in np.unique(grid.word_bits)]
        every_point = slice(None)
        selectors = ([grid.word_bits == bits for bits in widths] if len(widths) > 1
                     else [every_point])
        for layer_index, constants in enumerate(self._layers):
            primitives = num_pes // constants.kernel_area
            cycles_per_image = constants.pair_cycles * constants.channel_pairs / primitives
            cycles_per_batch = cycles_per_image * batch
            yield "conv_time_s", every_point, cycles_per_batch / frequency
            yield "kernel_load_time_s", every_point, constants.layer.weight_count / frequency
            yield ("busy_pe_cycles", every_point,
                   primitives * constants.kernel_area * cycles_per_batch)
            yield "kmemory_words", every_point, constants.kmemory_words * batch
            yield "omemory_words", every_point, constants.omemory_words * batch
            for bits, selector in zip(widths, selectors):
                imemory_words, dram_words = self._tile_terms(
                    layer_index, bits, primitives[selector], batch[selector], dram)
                yield "imemory_words", selector, imemory_words
                if dram:
                    yield "dram_words", selector, dram_words

    def _evaluate(self, grid: DesignGrid, per_layer: bool = False
                  ) -> Tuple[BatchSweepResult, Dict[str, np.ndarray],
                             Dict[str, np.ndarray], Dict[str, Tuple[float, ...]]]:
        """(result, per-term totals, power split, per-layer terms).

        The per-layer terms (with DRAM words) only come when ``per_layer``,
        which takes a one-point grid: :meth:`breakdown` asks for them.
        """
        smallest = int(grid.num_pes.min())
        if smallest < self._max_kernel_area:
            raise ConfigurationError(
                f"{self.network.name} needs at least {self._max_kernel_area} PEs "
                f"(largest kernel), but a design point has {smallest}"
            )
        totals = {term: np.zeros(grid.n_points) for term in _LAYER_TERMS}
        layers: Dict[str, List[float]] = {}
        for term, selector, column in self._layer_terms(grid, dram=per_layer):
            if term in totals:
                totals[term][selector] += column
            if per_layer:
                layers.setdefault(term, []).append(float(column[0]))

        total_time_s = totals["conv_time_s"] + totals["kernel_load_time_s"]
        power = {
            "chain": chain_power_w(totals["busy_pe_cycles"], total_time_s, self.energy),
            "kMemory": memory_power_w(totals["kmemory_words"], total_time_s,
                                      self.energy.kmemory_access_j),
            "iMemory": memory_power_w(totals["imemory_words"], total_time_s,
                                      self.energy.imemory_access_j),
            "oMemory": memory_power_w(totals["omemory_words"], total_time_s,
                                      self.energy.omemory_access_j),
        }
        power_w = power["chain"] + power["kMemory"] + power["iMemory"] + power["oMemory"]

        batch = grid.batch.astype(np.float64)
        total_ops = 2 * self._total_macs * batch
        achieved_gops = total_ops / total_time_s / 1e9
        result = BatchSweepResult(
            grid=grid,
            peak_gops=grid.num_pes * self.base.ops_per_mac * grid.frequency_hz / 1e9,
            fps=batch / total_time_s,
            total_time_per_batch_s=total_time_s,
            achieved_gops=achieved_gops,
            power_w=power_w,
            gops_per_watt=achieved_gops / power_w,
            worst_case_utilization=worst_case_utilization_array(grid.num_pes),
            total_gates=AreaModel.total_gates_for(grid.num_pes, self.gates),
        )
        return result, totals, power, {term: tuple(values) for term, values in layers.items()}


class MappingBatchEvaluator:
    """Columnar evaluation of per-layer *mapping candidates*.

    Where :class:`BatchDesignEvaluator` sweeps hardware design points at the
    paper's fixed Table II mapping, this evaluator holds the hardware fixed
    and sweeps the *mapping* of one layer: arrays of (primitive count, stripe
    height, kernel-streaming chunk, batch-interleave policy) evaluate to
    arrays of cycle/energy metrics in one pass of NumPy arithmetic, which is
    what lets the exhaustive search of :mod:`repro.mapping` score a layer's
    whole pruned space (up to ~10^5 candidates) in one call.

    The cost model is the *integral-pass* form of the analytical model
    (honest ``ceil`` accounting instead of the paper's fractional stripes and
    passes — the same closed forms otherwise), extended with the two effects
    a mapping choice actually controls:

    * **Kernel residency.**  ``chunk`` passes' worth of weights are kMemory-
      resident at a time (``refills = ceil(passes / chunk)``).  With the
      batch-interleaved schedule (chunk-major over the batch) kernels load
      once per batch but partial ofmaps of every image must survive each
      chunk boundary, spilling ``2 * ofmap_words * (refills - 1)`` words per
      image to DRAM; with the image-major schedule no partials spill but
      every image reloads all ``weight_count`` kernels.  The two policies
      coincide when the weights fit (``refills == 1``).
    * **First-image latency.**  Image-major schedules finish the first image
      after one image's convolutions; batch-interleaved schedules finish it
      only ``(refills - 1) / refills`` of the way into the batch.

    Energy follows the :class:`~repro.energy.power.PowerModel` philosophy
    (busy-PE cycles x unit energies, with the static fraction on the chain
    term); DRAM spill/reload traffic is charged at ``dram_byte_j``.

    The arithmetic itself lives in :mod:`repro.kernels`
    (:func:`repro.kernels.numpy_backend.score_mappings` and its Winograd
    twin), fetched through the module-level :func:`~repro.kernels.get_backend`
    on every :meth:`evaluate` call.  A caller names the metric columns it
    reads, and only those are computed: the mapping search scores the whole
    space on its objective's one proxy column and the few shortlisted rows
    on all :data:`MAPPING_RESULT_COLUMNS`.
    """

    def __init__(self, layer, config: Optional[ChainConfig] = None,
                 batch: int = 1,
                 energy: Optional[EnergyParams] = None) -> None:
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        self.layer = layer
        self.config = config or ChainConfig()
        self.batch = int(batch)
        self.energy = energy or EnergyParams()
        k = layer.kernel_size
        self.kernel_area = k * k
        if self.kernel_area > self.config.num_pes:
            raise ConfigurationError(
                f"{layer.name}: kernel {k}x{k} needs {self.kernel_area} PEs "
                f"but the chain has only {self.config.num_pes}"
            )
        self.max_primitives = self.config.num_pes // self.kernel_area
        self.channel_pairs = layer.channel_pairs()
        self.per_stripe_cycles = per_stripe_cycles_paper(layer)
        self.ofmap_words = layer.out_height * layer.out_width * layer.out_channels
        self.winograd_eligible = winograd_eligible(layer)
        wino_fields = (winograd_cost_fields(layer) if self.winograd_eligible
                       else {})
        self._params = MappingCostParams(
            kernel_area=self.kernel_area,
            channel_pairs=self.channel_pairs,
            per_stripe_cycles=self.per_stripe_cycles,
            out_height=layer.out_height,
            weight_count=layer.weight_count,
            batch=self.batch,
            ofmap_words=self.ofmap_words,
            stride=layer.stride,
            kernel_size=layer.kernel_size,
            padded_width=layer.padded_width,
            in_channels_per_group=layer.in_channels_per_group,
            frequency_hz=self.config.frequency_hz,
            word_bytes=self.config.word_bytes,
            pe_cycle_j=self.energy.pe_cycle_j,
            static_fraction=self.energy.static_fraction,
            kmemory_access_j=self.energy.kmemory_access_j,
            imemory_access_j=self.energy.imemory_access_j,
            omemory_access_j=self.energy.omemory_access_j,
            dram_byte_j=self.energy.dram_byte_j,
            **wino_fields,
        )

    def evaluate(
        self,
        primitives: np.ndarray,
        stripe_height: np.ndarray,
        chunk: np.ndarray,
        interleave_image: np.ndarray,
        winograd: Optional[np.ndarray] = None,
        columns: Sequence[str] = MAPPING_RESULT_COLUMNS,
    ) -> Dict[str, np.ndarray]:
        """Score candidate columns; returns the requested metric ``columns``.

        The first four inputs are equally-long 1D arrays (``interleave_image``
        is boolean: True for the image-major schedule).  ``winograd`` is an
        optional boolean column selecting the F(2x2,3x3) transform-domain
        cost model per candidate; ``None`` (or all-False) is the direct path,
        byte-for-byte the pre-algorithm-axis behaviour.  ``columns`` names
        the :data:`MAPPING_RESULT_COLUMNS` to compute (all by default); a
        column is the same bits whichever others are requested with it, and
        only the requested ones are merged across the direct/Winograd split.
        Legality is assumed to have been established by the map-space (use
        :meth:`repro.core.mapper.LayerMapper.map_layer_with` /
        :class:`repro.mapping.LayerMapSpace` to validate candidates).
        """
        backend = get_backend()
        primitives = np.asarray(primitives, dtype=np.int64)
        _M_CANDIDATES_SCORED.inc(primitives.shape[0] if primitives.ndim else 1)
        stripe_height = np.asarray(stripe_height, dtype=np.int64)
        chunk = np.asarray(chunk, dtype=np.int64)
        interleave_image = np.asarray(interleave_image, dtype=bool)
        winograd = None if winograd is None else np.asarray(winograd, dtype=bool)
        if winograd is None or not winograd.any():
            return backend.score_mappings(
                self._params, primitives, stripe_height, chunk,
                interleave_image, columns=columns)
        if not self.winograd_eligible:
            raise ConfigurationError(
                f"{self.layer.name}: winograd candidates on a layer that is "
                f"not F(2x2,3x3)-eligible (needs kernel_size=3, stride=1)")
        if winograd.all():
            return backend.score_mappings_winograd(
                self._params, primitives, chunk, interleave_image,
                columns=columns)
        wino_rows = np.flatnonzero(winograd)
        direct_rows = np.flatnonzero(~winograd)
        wino = backend.score_mappings_winograd(
            self._params, primitives[wino_rows], chunk[wino_rows],
            interleave_image[wino_rows], columns=columns)
        direct = backend.score_mappings(
            self._params, primitives[direct_rows], stripe_height[direct_rows],
            chunk[direct_rows], interleave_image[direct_rows], columns=columns)
        merged: Dict[str, np.ndarray] = {}
        for name in columns:
            column = np.empty(winograd.shape[0], dtype=direct[name].dtype)
            column[direct_rows] = direct[name]
            column[wino_rows] = wino[name]
            merged[name] = column
        return merged


def worst_case_utilization_array(
    num_pes: np.ndarray,
    kernel_sizes: Sequence[int] = MAINSTREAM_KERNEL_SIZES,
) -> np.ndarray:
    """Worst-case spatial utilization over the mainstream kernels that fit.

    ``num_pes`` is a scalar or an array of chain lengths; each point is the
    minimum of its Table II utilizations
    (:func:`repro.core.utilization.minimum_utilization`), 0.0 where no
    kernel fits the chain.
    """
    num_pes = np.asarray(num_pes, dtype=np.int64)
    worst = np.full(num_pes.shape, np.inf)
    any_fit = np.zeros(num_pes.shape, dtype=bool)
    for kernel in kernel_sizes:
        area = kernel * kernel
        fits = num_pes >= area
        with np.errstate(divide="ignore", invalid="ignore"):
            utilization = (num_pes // area) * area / num_pes
        worst = np.where(fits, np.minimum(worst, utilization), worst)
        any_fit |= fits
    return np.where(any_fit, worst, 0.0)
