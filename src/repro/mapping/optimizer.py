"""Schedule optimisation over per-layer mapspaces, with verification.

:class:`ScheduleOptimizer` searches every layer's
:class:`~repro.mapping.mapspace.LayerMapSpace` exhaustively
(:class:`~repro.mapping.strategies.ExhaustiveStrategy`), scoring the pruned
space columnar through :class:`repro.analysis.batch.MappingBatchEvaluator`
on the objective's one per-layer proxy column (a partial selection keeps
the best few rows), then scoring that shortlist plus the baseline on every
metric column, and assembles an :class:`OptimizedSchedule` for one of four
objectives:

* ``latency``    — first-image latency (image-pipelined network view);
* ``throughput`` — batch makespan (the paper's fps metric);
* ``energy``     — joules per batch;
* ``edp``        — energy x batch-makespan product.

The assembly starts from the Table II baseline and only adopts a searched
candidate when it strictly improves the *network* objective, so the
optimised schedule is **never worse than the baseline** by construction —
even for the non-additive EDP objective, where per-layer proxy scores alone
would not guarantee it.

Whole searches are memoised in :class:`repro.engine.cache.RunCache` (keyed
by configuration, workload, batch, objective, shortlist, unit energies and
algorithm mode), and :meth:`ScheduleOptimizer.verify` drives every searched
mapping through the :class:`~repro.sim.functional.FunctionalChainSimulator`:
the candidate's ofmaps on fixed-point tensors must match the im2col golden
reference exactly and be bit-identical to the baseline-stripe simulation.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.batch import MAPPING_RESULT_COLUMNS, MappingBatchEvaluator
from repro.cnn.generator import WorkloadGenerator
from repro.cnn.network import Network
from repro.core.config import ChainConfig
from repro.energy.components import EnergyParams
from repro.engine.base import RunRecord
from repro.engine.cache import (
    CACHE_SCHEMA,
    RunCache,
    canonical_json,
    config_fingerprint,
    workload_fingerprint,
)
from repro.errors import ConfigurationError
from repro.analysis.winograd import winograd_tile_grid
from repro.cnn.reference import conv2d_im2col, pad_input
from repro.mapping.mapspace import (
    ALGORITHM_MODES,
    LayerMapSpace,
    MappingCandidate,
    MapSpace,
    candidate_arrays,
)
from repro.mapping.strategies import ExhaustiveStrategy
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sim.functional import FunctionalChainSimulator
from repro.sim.winograd import conv2d_winograd, winograd_ofmap_block

_M_LAYERS_SEARCHED = obs_metrics.counter("mapping.layers_searched")
_M_CANDIDATES_SEARCHED = obs_metrics.counter("mapping.candidates_searched")
_M_SCHEDULE_CACHE_HITS = obs_metrics.counter("mapping.schedule_cache_hits")

#: objective name -> per-layer proxy column of MAPPING_RESULT_COLUMNS
OBJECTIVES: Dict[str, str] = {
    "latency": "first_image_latency_s",
    "throughput": "time_per_batch_s",
    "energy": "energy_per_batch_j",
    "edp": "edp_js",
}


def network_objective(objective: str,
                      layer_metrics: List[Dict[str, float]]) -> float:
    """Network-level objective value from per-layer metric rows.

    Latency, batch time and energy are sums over layers; EDP is the product
    of the network sums (not the sum of per-layer products), which is why
    schedule assembly re-checks this value instead of trusting per-layer
    proxies.
    """
    if objective not in OBJECTIVES:
        raise ConfigurationError(
            f"unknown objective {objective!r}; available: {', '.join(OBJECTIVES)}"
        )
    if objective == "latency":
        return sum(m["first_image_latency_s"] for m in layer_metrics)
    time_s = sum(m["time_per_batch_s"] for m in layer_metrics)
    if objective == "throughput":
        return time_s
    energy_j = sum(m["energy_per_batch_j"] for m in layer_metrics)
    if objective == "energy":
        return energy_j
    return energy_j * time_s


def search_layer_entry(layer, config: ChainConfig, objective: str,
                       batch: int, energy: EnergyParams, shortlist: int,
                       algorithm: str = "direct") -> Dict[str, Any]:
    """Search one layer's mapspace and score its shortlist pool.

    This is the per-layer body of :meth:`ScheduleOptimizer.optimize`.
    ``algorithm`` is the space's algorithm-axis mode
    (``direct`` | ``winograd`` | ``auto``).  The whole space is scored on
    the objective's proxy column alone; the pool (at most ``shortlist``
    candidates plus the baseline) gets the full metric vector.
    """
    with obs_trace.span("map.search_layer", layer=layer.name,
                        objective=objective) as layer_span:
        space = LayerMapSpace(layer, config, algorithm=algorithm)
        evaluator = MappingBatchEvaluator(layer, config=config, batch=batch,
                                          energy=energy)
        proxy = OBJECTIVES[objective]

        def scorer(columns):
            return evaluator.evaluate(*columns.arrays(), columns=(proxy,))[proxy]

        result = ExhaustiveStrategy().search(space, scorer, shortlist=shortlist)
        layer_span.set(evaluations=result.evaluations)
        baseline = space.baseline()
        pool = list(result.candidates)
        if baseline not in pool:
            pool.append(baseline)
        columns = evaluator.evaluate(*candidate_arrays(pool))
    rows = [
        {name: float(columns[name][index]) for name in MAPPING_RESULT_COLUMNS}
        for index in range(len(pool))
    ]
    return {
        "layer_name": layer.name,
        "evaluations": result.evaluations,
        "pool": pool,
        "rows": rows,
        "baseline": baseline,
    }


@dataclass(frozen=True)
class LayerSchedule:
    """One layer's chosen mapping and its evaluated metrics."""

    layer_name: str
    candidate: MappingCandidate
    metrics: Dict[str, float]

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-dict form for cache records and ``--json`` output."""
        return {
            "layer": self.layer_name,
            "candidate": self.candidate.to_json_dict(),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "LayerSchedule":
        """Rebuild from :meth:`to_json_dict` output."""
        return cls(
            layer_name=str(data["layer"]),
            candidate=MappingCandidate.from_json_dict(data["candidate"]),
            metrics={str(k): float(v) for k, v in data["metrics"].items()},
        )


@dataclass(frozen=True)
class OptimizedSchedule:
    """A searched network schedule, with its baseline for comparison."""

    network_name: str
    objective: str
    batch: int
    frequency_hz: float
    layers: List[LayerSchedule]
    baseline: List[LayerSchedule]
    evaluations: int = 0
    cached: bool = False

    # ------------------------------------------------------------------ #
    # objective arithmetic
    # ------------------------------------------------------------------ #
    def objective_value(self) -> float:
        """Network objective of the searched schedule (lower is better)."""
        return network_objective(self.objective, [s.metrics for s in self.layers])

    def baseline_objective_value(self) -> float:
        """Network objective of the Table II baseline schedule."""
        return network_objective(self.objective, [s.metrics for s in self.baseline])

    def improvement_fraction(self) -> float:
        """Relative gain over the baseline (0.0 when the baseline is optimal)."""
        base = self.baseline_objective_value()
        return (base - self.objective_value()) / base if base else 0.0

    def total_time_per_batch_s(self) -> float:
        """Batch makespan of the searched schedule."""
        return sum(s.metrics["time_per_batch_s"] for s in self.layers)

    def total_energy_per_batch_j(self) -> float:
        """Energy per batch of the searched schedule."""
        return sum(s.metrics["energy_per_batch_j"] for s in self.layers)

    def first_image_latency_s(self) -> float:
        """First-image latency of the searched schedule."""
        return sum(s.metrics["first_image_latency_s"] for s in self.layers)

    def frames_per_second(self) -> float:
        """Throughput implied by the searched schedule."""
        time_s = self.total_time_per_batch_s()
        return self.batch / time_s if time_s else 0.0

    # ------------------------------------------------------------------ #
    # consumers
    # ------------------------------------------------------------------ #
    def stripe_heights(self) -> Dict[str, int]:
        """Layer-name -> searched stripe height (the functional-sim knob)."""
        return {s.layer_name: s.candidate.stripe_height for s in self.layers}

    def algorithms(self) -> Dict[str, str]:
        """Layer-name -> searched execution algorithm (direct | winograd)."""
        return {s.layer_name: s.candidate.algorithm for s in self.layers}

    def layer_schedule(self, layer_name: str) -> LayerSchedule:
        """Look up one layer's searched schedule."""
        for entry in self.layers:
            if entry.layer_name == layer_name:
                return entry
        raise ConfigurationError(
            f"{self.network_name}: no scheduled layer named {layer_name!r}"
        )

    def describe(self) -> str:
        """Human-readable per-layer schedule with the objective summary."""
        lines = [f"{self.network_name}: objective={self.objective} "
                 f"strategy=exhaustive batch={self.batch} "
                 f"({self.evaluations} candidates evaluated"
                 + (", cached)" if self.cached else ")")]
        for searched, base in zip(self.layers, self.baseline):
            marker = " " if searched.candidate == base.candidate else "*"
            lines.append(f"  {marker} {searched.layer_name:<10} "
                         f"{searched.candidate.describe():<28} "
                         f"refills={searched.metrics['kmemory_refills']:.0f} "
                         f"passes={searched.metrics['passes']:.0f}")
        base_value = self.baseline_objective_value()
        lines.append(
            f"  {self.objective}: searched {self.objective_value():.6g} "
            f"vs baseline {base_value:.6g} "
            f"({self.improvement_fraction() * 100:.2f} % better)"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-dict form for cache records and ``--json`` output."""
        return {
            "network": self.network_name,
            "objective": self.objective,
            "strategy": "exhaustive",  # the only search; a stable --json key
            "batch": self.batch,
            "frequency_hz": self.frequency_hz,
            "evaluations": self.evaluations,
            "layers": [s.to_json_dict() for s in self.layers],
            "baseline": [s.to_json_dict() for s in self.baseline],
            "objective_value": self.objective_value(),
            "baseline_objective_value": self.baseline_objective_value(),
            "improvement_fraction": self.improvement_fraction(),
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any],
                       cached: bool = False) -> "OptimizedSchedule":
        """Rebuild from :meth:`to_json_dict` output."""
        return cls(
            network_name=str(data["network"]),
            objective=str(data["objective"]),
            batch=int(data["batch"]),
            frequency_hz=float(data["frequency_hz"]),
            layers=[LayerSchedule.from_json_dict(s) for s in data["layers"]],
            baseline=[LayerSchedule.from_json_dict(s) for s in data["baseline"]],
            evaluations=int(data.get("evaluations", 0)),
            cached=cached,
        )


@dataclass(frozen=True)
class LayerVerification:
    """Functional verification of one searched layer mapping.

    For direct mappings ``bit_identical`` compares against the baseline-
    stripe simulation; for Winograd mappings it compares the whole-ofmap
    transform-domain result against an ofmap-channel block partition.
    """

    layer_name: str
    candidate: MappingCandidate
    max_abs_error: float          # vs the im2col golden reference
    bit_identical: bool           # vs the baseline-stripe simulation
    windows_kept: int
    seconds: float
    covers: Tuple[str, ...] = ()  # geometry-identical layers this result covers

    def describe(self) -> str:
        """One verification line."""
        status = "ok" if self.bit_identical else "BIT-MISMATCH"
        extra = f" (also {', '.join(self.covers)})" if self.covers else ""
        return (f"{self.layer_name:<10} {self.candidate.describe():<28} "
                f"max|err|={self.max_abs_error:.2e} "
                f"windows={self.windows_kept:<10} {status}{extra}")


@dataclass
class MappingVerification:
    """Whole-schedule functional verification outcome."""

    network_name: str
    seed: int
    layers: List[LayerVerification] = field(default_factory=list)

    @property
    def max_abs_error(self) -> float:
        """Worst golden-reference deviation over all verified mappings."""
        return max((entry.max_abs_error for entry in self.layers), default=0.0)

    @property
    def passed(self) -> bool:
        """True when every mapping equals its golden and the baseline bit for bit."""
        return all(
            entry.bit_identical and entry.max_abs_error == 0.0
            for entry in self.layers
        )

    def describe(self) -> str:
        """Multi-line verification report."""
        lines = [entry.describe() for entry in self.layers]
        verdict = "PASSED" if self.passed else "FAILED"
        lines.append(
            f"mapping verification {verdict}: {len(self.layers)} distinct "
            f"mappings, max|err|={self.max_abs_error:.2e} "
            f"({'exact' if self.max_abs_error == 0.0 else 'inexact'})"
        )
        return "\n".join(lines)


class ScheduleOptimizer:
    """Searches per-layer mapspaces and assembles network schedules."""

    def __init__(
        self,
        config: Optional[ChainConfig] = None,
        objective: str = "throughput",
        batch: int = 16,
        energy: Optional[EnergyParams] = None,
        cache: Optional[RunCache] = None,
        shortlist: int = 4,
        algorithm: str = "direct",
    ) -> None:
        if objective not in OBJECTIVES:
            raise ConfigurationError(
                f"unknown objective {objective!r}; available: {', '.join(OBJECTIVES)}"
            )
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        if shortlist < 1:
            raise ConfigurationError(f"shortlist must be >= 1, got {shortlist}")
        if algorithm not in ALGORITHM_MODES:
            raise ConfigurationError(
                f"unknown algorithm {algorithm!r}; available: "
                f"{', '.join(ALGORITHM_MODES)}"
            )
        self.config = config or ChainConfig()
        self.objective = objective
        #: algorithm-axis mode every layer space is built with ("direct"
        #: reproduces the pre-axis search space and its cache keys bit for
        #: bit; "auto" lets eligible layers pick Winograd when it wins)
        self.algorithm = algorithm
        self.batch = int(batch)
        self.energy = energy or EnergyParams()
        self.cache = cache
        self.shortlist = shortlist

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #
    def optimize(self, network: Network) -> OptimizedSchedule:
        """Search every layer and assemble the never-worse network schedule."""
        if self.cache is not None:
            key = self.cache_key(network)
            schedule = self.cache.get(key, decode=lambda record: (
                OptimizedSchedule.from_json_dict(record.extra["schedule"],
                                                 cached=True)))
            if schedule is not None:
                _M_SCHEDULE_CACHE_HITS.inc()
                return schedule
        with obs_trace.span("map.optimize", network=network.name,
                            objective=self.objective):
            schedule = self._optimize_uncached(network)
        if self.cache is not None:
            self.cache.put(key, RunRecord(
                engine="mapping-search",
                network=network.name,
                batch=self.batch,
                config_summary=self.config.describe(),
                metrics={
                    "objective_value": schedule.objective_value(),
                    "baseline_objective_value": schedule.baseline_objective_value(),
                    "improvement_fraction": schedule.improvement_fraction(),
                },
                extra={"schedule": schedule.to_json_dict()},
            ))
        return schedule

    def _optimize_uncached(self, network: Network) -> OptimizedSchedule:
        # raises early on unmappable networks / illegal algorithm modes
        MapSpace(network, self.config, algorithm=self.algorithm)
        shortlists: List[List[MappingCandidate]] = []
        metric_cache: List[Dict[MappingCandidate, Dict[str, float]]] = []
        baseline_rows: List[LayerSchedule] = []
        evaluations = 0
        for layer in network.conv_layers:
            entry = search_layer_entry(layer, self.config, self.objective,
                                       self.batch, self.energy, self.shortlist,
                                       algorithm=self.algorithm)
            _M_LAYERS_SEARCHED.inc()
            _M_CANDIDATES_SEARCHED.inc(entry["evaluations"])
            evaluations += entry["evaluations"]
            pool = entry["pool"]
            metric_cache.append(dict(zip(pool, entry["rows"])))
            shortlists.append(pool)
            baseline_rows.append(LayerSchedule(
                layer_name=entry["layer_name"],
                candidate=entry["baseline"],
                metrics=metric_cache[-1][entry["baseline"]],
            ))

        # assembly: start from the baseline, adopt a shortlisted candidate
        # only when it strictly improves the *network* objective — monotone
        # descent from the baseline, hence never worse than it
        chosen = [row.candidate for row in baseline_rows]
        chosen_metrics = [row.metrics for row in baseline_rows]
        for _ in range(2):  # additive objectives converge in one sweep; EDP in two
            improved = False
            for index, pool in enumerate(shortlists):
                current = network_objective(self.objective, chosen_metrics)
                best_candidate = chosen[index]
                best_value = current
                for candidate in pool:
                    trial = list(chosen_metrics)
                    trial[index] = metric_cache[index][candidate]
                    value = network_objective(self.objective, trial)
                    if value < best_value:
                        best_value = value
                        best_candidate = candidate
                if best_candidate != chosen[index]:
                    chosen[index] = best_candidate
                    chosen_metrics[index] = metric_cache[index][best_candidate]
                    improved = True
            if not improved:
                break

        layers = [
            LayerSchedule(layer_name=row.layer_name, candidate=candidate,
                          metrics=metrics)
            for row, candidate, metrics in zip(baseline_rows, chosen, chosen_metrics)
        ]
        return OptimizedSchedule(
            network_name=network.name,
            objective=self.objective,
            batch=self.batch,
            frequency_hz=self.config.frequency_hz,
            layers=layers,
            baseline=baseline_rows,
            evaluations=evaluations,
        )

    # ------------------------------------------------------------------ #
    # memoisation
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> Dict[str, Any]:
        """Search-configuration identity (enters cache keys and records).

        The algorithm axis enters the fingerprint only when enabled, so
        the default direct-only mode keeps its pre-axis cache keys — and a
        cached direct search is never served to (or poisoned by) a run with
        the Winograd axis on.
        """
        fingerprint: Dict[str, Any] = {
            "objective": self.objective,
            "batch": self.batch,
            "shortlist": self.shortlist,
            "energy": asdict(self.energy),
        }
        if self.algorithm != "direct":
            fingerprint["algorithm"] = self.algorithm
        return fingerprint

    def cache_key(self, network: Network) -> str:
        """Deterministic RunCache key of one whole-network search."""
        from repro import __version__

        payload = {
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "kind": "mapping-search",
            "config": config_fingerprint(self.config),
            "workload": workload_fingerprint(network),
            "search": self.fingerprint(),
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # verification
    # ------------------------------------------------------------------ #
    def verify(self, network: Network, schedule: OptimizedSchedule,
               seed: int = 2017,
               deduplicate: bool = True) -> MappingVerification:
        """Functionally verify every searched mapping of ``schedule``.

        Each distinct (layer geometry, stripe height) pair drives the
        :class:`FunctionalChainSimulator` on seeded tensors drawn on the
        chip's ``word_bits`` fixed-point grid (the simulator's input domain,
        where every sum is exact); the ofmaps must equal the im2col golden
        reference exactly and be **bit-identical** to the baseline
        full-stripe simulation.
        A searched stripe height equal to the baseline's runs the identical
        stripe plan, so the bit-identity re-simulation only happens for
        genuinely re-striped layers.

        Winograd mappings run :func:`repro.sim.winograd.conv2d_winograd`
        instead, and the bit-identity check partitions the ofmap channels
        into two blocks.
        """
        outcome = MappingVerification(network_name=network.name, seed=seed)
        parent = WorkloadGenerator(seed=seed)
        simulator = FunctionalChainSimulator(self.config)
        verified: Dict[Tuple, int] = {}
        covers: Dict[int, List[str]] = {}
        for layer in network.conv_layers:
            entry = schedule.layer_schedule(layer.name)
            height = entry.candidate.stripe_height
            geometry = tuple(sorted(
                (name, value) for name, value in asdict(layer).items()
                if name != "name"
            ))
            key = (geometry, height, entry.candidate.algorithm)
            if deduplicate and key in verified:
                covers[verified[key]].append(layer.name)
                continue
            ifmaps, weights = parent.spawn(layer.name).layer_pair(
                layer, bits=self.config.word_bits)
            started = time.perf_counter()
            if entry.candidate.is_winograd:
                reference = conv2d_im2col(layer, ifmaps, weights)
                ofmaps = conv2d_winograd(layer, ifmaps, weights)
                error = float(np.max(np.abs(ofmaps - reference)))
                padded = pad_input(ifmaps, layer.padding)
                split = np.zeros_like(ofmaps)
                half = max(1, layer.out_channels // 2)
                winograd_ofmap_block(layer, padded, weights, 0, half, split)
                winograd_ofmap_block(layer, padded, weights, half,
                                     layer.out_channels, split)
                identical = bool(np.array_equal(ofmaps, split))
                tiles_h, tiles_w = winograd_tile_grid(layer)
                verified[key] = len(outcome.layers)
                covers[verified[key]] = []
                outcome.layers.append(LayerVerification(
                    layer_name=layer.name,
                    candidate=entry.candidate,
                    max_abs_error=error,
                    bit_identical=identical,
                    windows_kept=tiles_h * tiles_w * layer.out_channels,
                    seconds=time.perf_counter() - started,
                ))
                continue
            run = simulator.run_layer(layer, ifmaps, weights, stripe_height=height)
            error = run.max_abs_error_vs_reference(ifmaps, weights)
            if height == layer.kernel_size:
                identical = True
            else:
                base = simulator.run_layer(layer, ifmaps, weights)
                identical = bool(np.array_equal(run.ofmaps, base.ofmaps))
            verified[key] = len(outcome.layers)
            covers[verified[key]] = []
            outcome.layers.append(LayerVerification(
                layer_name=layer.name,
                candidate=entry.candidate,
                max_abs_error=error,
                bit_identical=identical,
                windows_kept=run.stats.windows_kept,
                seconds=time.perf_counter() - started,
            ))
        # attach the geometry-identical layers each verification covers
        outcome.layers = [
            LayerVerification(
                layer_name=entry.layer_name,
                candidate=entry.candidate,
                max_abs_error=entry.max_abs_error,
                bit_identical=entry.bit_identical,
                windows_kept=entry.windows_kept,
                seconds=entry.seconds,
                covers=tuple(covers.get(index, ())),
            )
            for index, entry in enumerate(outcome.layers)
        ]
        return outcome
