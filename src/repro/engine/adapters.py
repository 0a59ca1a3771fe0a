"""Engine adapters: every evaluator of the library behind one interface.

* :class:`AnalyticalEngine` — the analytical model (performance + traffic +
  power + area + utilization) in either fidelity mode, one design point of
  the columnar :class:`~repro.analysis.batch.BatchDesignEvaluator` per
  record;
* :class:`AnalyticalBatchEngine` — the same evaluator over whole design
  grids: the ``evaluate_batch`` fast path design-space sweeps dispatch to;
* :class:`MappedAnalyticalEngine` — mapping-searched analytical evaluation:
  every run first optimises the per-layer mapping (:mod:`repro.mapping`)
  for a configurable objective and reports searched-vs-baseline metrics;
* :class:`CycleEngine` — the cycle-accurate simulator on synthetic seeded
  tensors, every layer checked exactly against the direct golden;
* :class:`FunctionalEngine` — the dataflow-level simulator (whole-array
  window enumeration, or the Winograd transform domain on eligible layers);
* :class:`BaselineEngine` — any :class:`~repro.baselines.base.AcceleratorModel`
  (Chain-NN itself, the memory-centric DaDianNao-like and the 2D spatial
  Eyeriss-like baselines of Table V).

Importing this module registers the default engine names listed in
:data:`DEFAULT_ENGINES`; :data:`ALGORITHM_ENGINES` names the ones that take
an execution-algorithm mode.
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.batch import BatchDesignEvaluator, BatchSweepResult, DesignGrid

from repro.baselines.base import AcceleratorModel, AcceleratorSummary
from repro.baselines.chain_nn_model import ChainNNModel
from repro.baselines.memory_centric import MemoryCentricAccelerator
from repro.baselines.spatial_2d import Spatial2DAccelerator
from repro.cnn.generator import WorkloadGenerator
from repro.cnn.network import Network
from repro.core.config import ChainConfig
from repro.energy.components import EnergyParams
from repro.engine.base import Engine, RunRecord
from repro.engine.cache import canonical_json, config_fingerprint, workload_fingerprint
from repro.engine.registry import register_engine
from repro.errors import ConfigurationError
from repro.sim.cycle import CycleAccurateChainSimulator
from repro.sim.functional import FunctionalChainSimulator


class AnalyticalEngine(Engine):
    """Analytical Chain-NN models (the Fig. 9 / Fig. 10 / sweep substrate).

    A record is one design point of the columnar
    :class:`~repro.analysis.batch.BatchDesignEvaluator`: its
    :meth:`~repro.analysis.batch.BatchDesignEvaluator.breakdown` supplies
    the headline metrics and the per-layer Fig. 9 time tables.
    """

    def __init__(self, config: Optional[ChainConfig] = None, mode: str = "paper") -> None:
        if mode not in ("paper", "detailed"):
            raise ConfigurationError(f"mode must be 'paper' or 'detailed', got {mode!r}")
        self.mode = mode
        self.default_config = config or ChainConfig()
        #: unit energies every evaluation uses
        self.energy = EnergyParams()
        self.name = "analytical" if mode == "paper" else f"analytical-{mode}"

    def evaluator(self, network: Network,
                  config: Optional[ChainConfig] = None) -> "BatchDesignEvaluator":
        """The columnar evaluator of ``network`` around ``config``."""
        # lazy: repro.analysis imports this module (sweeps dispatch through engines)
        from repro.analysis.batch import BatchDesignEvaluator

        return BatchDesignEvaluator(network, base=config or self.default_config,
                                    mode=self.mode, energy=self.energy)

    def evaluate(self, network: Network, config: Optional[ChainConfig] = None,
                 batch: int = 1) -> RunRecord:
        config = config or self.default_config
        point = self.evaluator(network, config).breakdown(batch)
        metrics = point.summary()
        metrics.update(
            peak_gops=point.peak_gops,
            power_w=point.power_w,
            total_time_per_batch_s=point.total_time_per_batch_s,
            total_gates=point.total_gates,
            worst_case_utilization=point.worst_case_utilization,
            onchip_memory_bytes=float(config.onchip_memory_bytes),
            dram_traffic_mb=point.traffic_mb()["Total"]["DRAM"],
        )
        extra: Dict[str, Any] = {
            "layer_times_ms": point.layer_times_ms(),
            "kernel_load_times_ms": point.kernel_load_times_ms(),
        }
        return RunRecord(
            engine=self.name,
            network=network.name,
            batch=batch,
            config_summary=config.describe(),
            metrics=metrics,
            extra=extra,
        )

    def fingerprint(self) -> Dict[str, Any]:
        # the default config and the unit energies decide what a config=None
        # evaluation returns, so they enter the cache key
        return {
            "name": self.name,
            "mode": self.mode,
            "default_config": dataclasses.asdict(self.default_config),
            "energy": dataclasses.asdict(self.energy),
        }


class AnalyticalBatchEngine(Engine):
    """The analytical engine's columnar fast path over whole design grids.

    A point evaluation is the wrapped :class:`AnalyticalEngine`'s record,
    renamed; :meth:`evaluate_batch` returns the eight
    :data:`~repro.analysis.batch.RESULT_COLUMNS` of every grid point, with
    the evaluator (per-network layer constants) memoised across chunks of
    the same sweep.
    """

    supports_batch = True

    def __init__(self, config: Optional[ChainConfig] = None, mode: str = "paper") -> None:
        self._point = AnalyticalEngine(config=config, mode=mode)
        self.mode = self._point.mode
        self.name = ("analytical-batch" if self.mode == "paper"
                     else f"analytical-batch-{self.mode}")
        #: BatchDesignEvaluator per (workload, base-config) pair
        self._evaluators: Dict[str, "BatchDesignEvaluator"] = {}

    @property
    def default_config(self) -> ChainConfig:
        """Base configuration supplying the non-grid fields."""
        return self._point.default_config

    def evaluate(self, network: Network, config: Optional[ChainConfig] = None,
                 batch: int = 1) -> RunRecord:
        record = self._point.evaluate(network, config, batch)
        return dataclasses.replace(record, engine=self.name)

    def evaluate_batch(self, network: Network, grid: "DesignGrid",
                       base: Optional[ChainConfig] = None) -> "BatchSweepResult":
        base = base or self.default_config
        key = canonical_json({
            "workload": workload_fingerprint(network),
            "base": config_fingerprint(base),
        })
        evaluator = self._evaluators.get(key)
        if evaluator is None:
            evaluator = self._point.evaluator(network, base)
            self._evaluators[key] = evaluator
        return evaluator.evaluate_grid(grid)

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "mode": self.mode,
            "default_config": dataclasses.asdict(self.default_config),
            "energy": dataclasses.asdict(self._point.energy),
        }


class MappedAnalyticalEngine(Engine):
    """Mapping-searched analytical evaluation (the ``analytical-mapped`` engine).

    Every evaluation first optimises the per-layer mapping for the
    configured objective with the exhaustive search of :mod:`repro.mapping`,
    then reports the searched schedule's metrics next to the Table II
    baseline's.  The search configuration — objective, shortlist, algorithm
    mode — enters :meth:`fingerprint`, so cached sweep records from
    different searches can never collide.
    """

    def __init__(self, config: Optional[ChainConfig] = None,
                 objective: str = "throughput", shortlist: int = 4,
                 algorithm: str = "direct") -> None:
        self.name = "analytical-mapped"
        self.default_config = config or ChainConfig()
        self.objective = objective
        self.shortlist = shortlist
        self.algorithm = algorithm
        self._memo: Dict[str, Any] = {}

    def _optimize(self, network: Network, config: ChainConfig, batch: int):
        from repro.mapping import ScheduleOptimizer

        memo_key = canonical_json({
            "config": config_fingerprint(config),
            "workload": workload_fingerprint(network),
            "batch": batch,
        })
        if memo_key not in self._memo:
            optimizer = ScheduleOptimizer(
                config=config,
                objective=self.objective,
                batch=batch,
                shortlist=self.shortlist,
                algorithm=self.algorithm,
            )
            self._memo[memo_key] = optimizer.optimize(network)
        return self._memo[memo_key]

    def evaluate(self, network: Network, config: Optional[ChainConfig] = None,
                 batch: int = 1) -> RunRecord:
        config = config or self.default_config
        schedule = self._optimize(network, config, batch)
        time_s = schedule.total_time_per_batch_s()
        energy_j = schedule.total_energy_per_batch_j()
        metrics = {
            "fps": schedule.frames_per_second(),
            "total_time_per_batch_s": time_s,
            "first_image_latency_s": schedule.first_image_latency_s(),
            "energy_per_batch_j": energy_j,
            "edp_js": energy_j * time_s,
            "power_w": energy_j / time_s if time_s else 0.0,
            "objective_value": schedule.objective_value(),
            "baseline_objective_value": schedule.baseline_objective_value(),
            "improvement_fraction": schedule.improvement_fraction(),
            "search_evaluations": float(schedule.evaluations),
            "peak_gops": config.peak_gops,
        }
        return RunRecord(
            engine=self.name,
            network=network.name,
            batch=batch,
            config_summary=config.describe(),
            metrics=metrics,
            extra={"schedule": schedule.to_json_dict()},
        )

    def fingerprint(self) -> Dict[str, Any]:
        fingerprint = {
            "name": self.name,
            "objective": self.objective,
            "shortlist": self.shortlist,
            "default_config": dataclasses.asdict(self.default_config),
        }
        # the algorithm axis only enters the key when it changes the search
        # space, so pre-existing direct-mode cache entries remain valid
        if self.algorithm != "direct":
            fingerprint["algorithm"] = self.algorithm
        return fingerprint


class CycleEngine(Engine):
    """Cycle-accurate simulation of every conv layer on seeded tensors.

    Each layer runs on :class:`~repro.sim.cycle.CycleAccurateChainSimulator`
    (kernels up to 11x11) and is checked exactly against the direct golden
    on the operands it simulated.
    """

    def __init__(self, seed: int = 2017, total_bits: int = 16) -> None:
        self.seed = seed
        self.total_bits = total_bits
        self.name = "cycle"
        # the simulation itself is batch-independent (batch only scales the
        # time arithmetic), so one (config, workload) simulation serves every
        # batch size — e.g. the whole Sec. V.B batch sweep
        self._memo: Dict[str, Dict[str, Any]] = {}

    def _simulate(self, network: Network, config: ChainConfig) -> Dict[str, Any]:
        memo_key = canonical_json({
            "config": config_fingerprint(config),
            "workload": workload_fingerprint(network),
        })
        if memo_key in self._memo:
            return self._memo[memo_key]
        simulator = CycleAccurateChainSimulator(config, total_bits=self.total_bits)
        generator = WorkloadGenerator(seed=self.seed)
        layers: Dict[str, Dict[str, float]] = {}
        conv_cycles = 0.0
        kernel_load_cycles = 0
        macs = 0
        outputs = 0
        max_error = 0.0
        for layer in network.conv_layers:
            ifmaps, weights = generator.layer_pair(layer, bits=self.total_bits)
            result = simulator.run_layer(layer, ifmaps, weights)
            conv_cycles += result.chain_cycles_estimate
            kernel_load_cycles += result.stats.kernel_load_cycles
            macs += result.stats.macs
            outputs += result.stats.outputs_collected
            error = result.reference_max_abs_error
            max_error = max(max_error, error)
            layers[layer.name] = {
                "chain_cycles": result.chain_cycles_estimate,
                "primitive_cycles": float(result.stats.primitive_cycles),
                "macs": float(result.stats.macs),
                "outputs_collected": float(result.stats.outputs_collected),
                "max_abs_error": error,
            }
        data = {
            "conv_cycles": conv_cycles,
            "kernel_load_cycles": kernel_load_cycles,
            "macs": macs,
            "outputs": outputs,
            "max_error": max_error,
            "layers": layers,
        }
        self._memo[memo_key] = data
        return data

    def evaluate(self, network: Network, config: Optional[ChainConfig] = None,
                 batch: int = 1) -> RunRecord:
        config = config or ChainConfig()
        sim = self._simulate(network, config)
        conv_cycles = sim["conv_cycles"]
        kernel_load_cycles = sim["kernel_load_cycles"]
        frequency = config.frequency_hz
        total_time_s = (conv_cycles * batch + kernel_load_cycles) / frequency
        fps = batch / total_time_s if total_time_s else 0.0
        metrics = {
            "fps": fps,
            "conv_cycles_per_image": conv_cycles,
            "kernel_load_cycles": float(kernel_load_cycles),
            "total_time_per_batch_s": total_time_s,
            "simulated_macs": float(sim["macs"]),
            "outputs_collected": float(sim["outputs"]),
            "max_abs_error": sim["max_error"],
            "peak_gops": config.peak_gops,
        }
        layers = sim["layers"]
        return RunRecord(
            engine=self.name,
            network=network.name,
            batch=batch,
            config_summary=config.describe(),
            metrics=metrics,
            # the simulator path every zoo layer runs (all kernels are <= 11x11)
            extra={"layers": layers, "backend": "vectorized"},
        )

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "total_bits": self.total_bits,
        }


class FunctionalEngine(Engine):
    """Dataflow-level simulation (window enumeration) of every conv layer."""

    def __init__(self, seed: int = 2017, algorithm: str = "direct") -> None:
        self.seed = seed
        #: "direct" runs every layer on the sliding-window dataflow;
        #: "winograd"/"auto" run eligible 3x3-stride-1 layers in the
        #: transform domain (ineligible layers always stay direct)
        self.algorithm = algorithm
        self.name = "functional"
        self._memo: Dict[str, Dict[str, Any]] = {}

    def _simulate(self, network: Network, config: ChainConfig) -> Dict[str, Any]:
        memo_key = canonical_json({
            "config": config_fingerprint(config),
            "workload": workload_fingerprint(network),
        })
        if memo_key in self._memo:
            return self._memo[memo_key]
        simulator = FunctionalChainSimulator(config)
        generator = WorkloadGenerator(seed=self.seed)
        layers: Dict[str, Dict[str, float]] = {}
        chain_cycles = 0.0
        windows_kept = 0
        max_error = 0.0
        for layer in network.conv_layers:
            # drawn in the simulator's input domain, the chip's fixed point
            ifmaps, weights = generator.layer_pair(layer, bits=config.word_bits)
            algorithm = "direct"
            if self.algorithm != "direct":
                # lazy: repro.analysis closes an import cycle back into this
                # module, so the eligibility check cannot be a top-level import
                from repro.analysis.winograd import winograd_eligible

                if winograd_eligible(layer):
                    algorithm = "winograd"
            result = simulator.run_layer(layer, ifmaps, weights,
                                         algorithm=algorithm)
            error = result.max_abs_error_vs_reference(ifmaps, weights)
            chain_cycles += result.chain_cycles_estimate
            windows_kept += result.stats.windows_kept
            max_error = max(max_error, error)
            layers[layer.name] = {
                "chain_cycles": result.chain_cycles_estimate,
                "windows_kept": float(result.stats.windows_kept),
                "stride_discard_fraction": result.stats.stride_discard_fraction,
                "max_abs_error": error,
            }
        data = {
            "chain_cycles": chain_cycles,
            "windows_kept": windows_kept,
            "max_error": max_error,
            "layers": layers,
        }
        self._memo[memo_key] = data
        return data

    def evaluate(self, network: Network, config: Optional[ChainConfig] = None,
                 batch: int = 1) -> RunRecord:
        config = config or ChainConfig()
        sim = self._simulate(network, config)
        chain_cycles = sim["chain_cycles"]
        total_time_s = chain_cycles * batch / config.frequency_hz
        metrics = {
            "fps": batch / total_time_s if total_time_s else 0.0,
            "conv_cycles_per_image": chain_cycles,
            "windows_kept": float(sim["windows_kept"]),
            "max_abs_error": sim["max_error"],
            "total_time_per_batch_s": total_time_s,
            "peak_gops": config.peak_gops,
        }
        return RunRecord(
            engine=self.name,
            network=network.name,
            batch=batch,
            config_summary=config.describe(),
            metrics=metrics,
            extra={"layers": sim["layers"]},
        )

    def fingerprint(self) -> Dict[str, Any]:
        fingerprint = {
            "name": self.name,
            "seed": self.seed,
        }
        # only a non-default algorithm changes the simulated numbers, so only
        # it enters the key
        if self.algorithm != "direct":
            fingerprint["algorithm"] = self.algorithm
        return fingerprint


class BaselineEngine(Engine):
    """Any Table V :class:`AcceleratorModel` as an engine (config is ignored)."""

    def __init__(self, model: AcceleratorModel, name: Optional[str] = None) -> None:
        self.model = model
        self.name = name or f"baseline-{_slug(model.name)}"

    def evaluate(self, network: Network, config: Optional[ChainConfig] = None,
                 batch: int = 1) -> RunRecord:
        summary = self.model.summarise(network, batch)
        metrics = {
            "fps": 0.0,
            "peak_gops": summary.peak_gops,
            "achieved_gops": summary.achieved_gops,
            "power_w": summary.power_w,
            "gops_per_watt": summary.energy_efficiency_gops_w,
            "parallelism": float(summary.parallelism),
            "frequency_hz": summary.frequency_hz,
        }
        time_s = self.model.workload_time_s(network, batch)
        if time_s > 0:
            metrics["fps"] = batch / time_s
            metrics["total_time_per_batch_s"] = time_s
        return RunRecord(
            engine=self.name,
            network=network.name,
            batch=batch,
            config_summary=f"{self.model.name} @ {summary.technology}",
            metrics=metrics,
            extra={"summary": asdict(summary)},
        )

    def fingerprint(self) -> Dict[str, Any]:
        fingerprint: Dict[str, Any] = {
            "name": self.name,
            "model": self.model.name,
            "technology": self.model.technology.name,
            "parallelism": self.model.parallelism,
            "frequency_hz": self.model.frequency_hz,
        }
        chip = getattr(self.model, "chip", None)
        if chip is not None:
            # Chain-NN baseline: configuration and calibrated energies decide
            # the modelled numbers
            fingerprint["default_config"] = dataclasses.asdict(chip.config)
            fingerprint["energy"] = dataclasses.asdict(chip.power_model.energy)
        return fingerprint


def _slug(text: str) -> str:
    """Lower-case dash-separated identifier from a human-readable name."""
    out = []
    for char in text.lower():
        if char.isalnum():
            out.append(char)
        elif out and out[-1] != "-":
            out.append("-")
    return "".join(out).strip("-")


def summary_from_record(record: RunRecord) -> AcceleratorSummary:
    """Rebuild the Table V :class:`AcceleratorSummary` a baseline record carries."""
    data = dict(record.extra["summary"])
    if data.get("onchip_memory_bytes") is not None:
        data["onchip_memory_bytes"] = int(data["onchip_memory_bytes"])
    data["parallelism"] = int(data["parallelism"])
    data["batch"] = int(data["batch"])
    return AcceleratorSummary(**data)


# --------------------------------------------------------------------- #
# default registrations
# --------------------------------------------------------------------- #
def _make_analytical(**kwargs) -> AnalyticalEngine:
    return AnalyticalEngine(**kwargs)


def _make_analytical_detailed(**kwargs) -> AnalyticalEngine:
    kwargs.setdefault("mode", "detailed")
    return AnalyticalEngine(**kwargs)


def _make_analytical_batch(**kwargs) -> AnalyticalBatchEngine:
    return AnalyticalBatchEngine(**kwargs)


def _make_analytical_batch_detailed(**kwargs) -> AnalyticalBatchEngine:
    kwargs.setdefault("mode", "detailed")
    return AnalyticalBatchEngine(**kwargs)


def _make_analytical_mapped(**kwargs) -> MappedAnalyticalEngine:
    return MappedAnalyticalEngine(**kwargs)


def _make_cycle(**kwargs) -> CycleEngine:
    return CycleEngine(**kwargs)


def _make_functional(**kwargs) -> FunctionalEngine:
    return FunctionalEngine(**kwargs)


def _make_baseline_chain_nn(calibrate_power_to: Optional[Network] = None,
                            **kwargs) -> BaselineEngine:
    model = ChainNNModel(calibrate_power_to=calibrate_power_to)
    return BaselineEngine(model, name="baseline-chain-nn", **kwargs)


def _make_baseline_eyeriss(**kwargs) -> BaselineEngine:
    return BaselineEngine(Spatial2DAccelerator.scaled_to_28nm(),
                          name="baseline-eyeriss", **kwargs)


def _make_baseline_dadiannao(**kwargs) -> BaselineEngine:
    return BaselineEngine(MemoryCentricAccelerator(),
                          name="baseline-dadiannao", **kwargs)


#: engines registered on import, keyed by registry name
DEFAULT_ENGINES = {
    "analytical": _make_analytical,
    "analytical-detailed": _make_analytical_detailed,
    "analytical-batch": _make_analytical_batch,
    "analytical-batch-detailed": _make_analytical_batch_detailed,
    "analytical-mapped": _make_analytical_mapped,
    "cycle": _make_cycle,
    "functional": _make_functional,
    "baseline-chain-nn": _make_baseline_chain_nn,
    "baseline-eyeriss": _make_baseline_eyeriss,
    "baseline-dadiannao": _make_baseline_dadiannao,
}

#: engines taking ``algorithm=`` (``run --algorithm``, ``/v1/run``): the
#: functional simulator executes the Winograd transform domain and the mapped
#: engine searches it; the closed-form analytical engines model direct only
ALGORITHM_ENGINES = ("functional", "analytical-mapped")

for _name, _factory in DEFAULT_ENGINES.items():
    register_engine(_name, _factory)
