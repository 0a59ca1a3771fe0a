"""The ``Engine`` interface: one way to evaluate any model on any workload.

Sweeps, the Table V comparison, the experiment runner, the CLI, the server
and the benchmarks evaluate every fidelity — the analytical model (one
design point of the columnar
:class:`~repro.analysis.batch.BatchDesignEvaluator`), the cycle-accurate
and functional simulators and the baselines — through a single protocol:

    ``engine.evaluate(network, config, batch) -> RunRecord``

where the :class:`RunRecord` is a flat, JSON-serialisable summary that the
sweep executor can cache on disk; engines with a columnar grid path also
implement :meth:`Engine.evaluate_batch`.  Concrete engines live in
:mod:`repro.engine.adapters` and are instantiated by name through
:mod:`repro.engine.registry`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from repro.cnn.network import Network
from repro.core.config import ChainConfig
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.batch import BatchSweepResult, DesignGrid


@dataclass(frozen=True)
class RunRecord:
    """One engine evaluation of one workload at one design point.

    Attributes
    ----------
    engine:
        Registry name of the engine that produced the record.
    network:
        Name of the evaluated network.
    batch:
        Batch size the metrics are reported for.
    config_summary:
        Human-readable description of the evaluated configuration (empty for
        engines that ignore the chain configuration, e.g. baselines).
    metrics:
        Flat ``name -> float`` mapping of headline numbers.  Common keys:
        ``fps``, ``achieved_gops``, ``peak_gops``, ``power_w``,
        ``gops_per_watt``, ``total_time_per_batch_s``.
    extra:
        JSON-serialisable engine-specific payload (per-layer tables, the full
        accelerator summary of a baseline, reference-check errors, ...).
    cache_key:
        Content hash under which the record is (or would be) cached.
    cached:
        True when the record was served from the on-disk cache rather than
        evaluated.
    """

    engine: str
    network: str
    batch: int
    config_summary: str
    metrics: Dict[str, float]
    extra: Dict[str, Any] = field(default_factory=dict)
    cache_key: Optional[str] = None
    cached: bool = False

    def metric(self, name: str, default: Optional[float] = None) -> float:
        """Look up one metric, raising a helpful error when it is absent."""
        if name in self.metrics:
            return self.metrics[name]
        if default is not None:
            return default
        raise ConfigurationError(
            f"engine {self.engine!r} produced no metric {name!r} "
            f"(available: {sorted(self.metrics)})"
        )

    # ------------------------------------------------------------------ #
    # serialisation (used by the on-disk cache)
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-dict form suitable for ``json.dump``."""
        return {
            "engine": self.engine,
            "network": self.network,
            "batch": self.batch,
            "config_summary": self.config_summary,
            "metrics": dict(self.metrics),
            "extra": self.extra,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`to_json_dict` output.

        ``metrics`` is required (``KeyError`` without it): a cached point
        record that lost them must be a miss, not a row of zeros.
        """
        return cls(
            engine=data["engine"],
            network=data["network"],
            batch=int(data["batch"]),
            config_summary=data.get("config_summary", ""),
            metrics={str(k): float(v) for k, v in data["metrics"].items()},
            extra=data.get("extra", {}),
        )

    def with_cache_info(self, cache_key: str, cached: bool) -> "RunRecord":
        """Copy of this record annotated with its cache provenance."""
        return replace(self, cache_key=cache_key, cached=cached)


class Engine(abc.ABC):
    """Anything that can evaluate a network on a configuration.

    Implementations must be deterministic: the same (engine fingerprint,
    config, workload, batch) quadruple must produce the same record, which is
    what makes the on-disk memoisation of
    :class:`~repro.engine.executor.SweepExecutor` sound.
    """

    #: registry name (set by the adapter; used in records and cache keys)
    name: str = "engine"

    #: True when :meth:`evaluate_batch` is a genuine columnar fast path
    #: rather than the per-point fallback loop below
    supports_batch: bool = False

    @abc.abstractmethod
    def evaluate(self, network: Network, config: Optional[ChainConfig] = None,
                 batch: int = 1) -> RunRecord:
        """Evaluate ``network`` at ``config`` (engine default when ``None``)."""

    def evaluate_batch(self, network: Network, grid: "DesignGrid",
                       base: Optional[ChainConfig] = None) -> "BatchSweepResult":
        """Evaluate a whole design grid; returns struct-of-arrays columns.

        The default implementation is the per-point fallback: every grid
        point is materialised as a :class:`ChainConfig` and pushed through
        :meth:`evaluate`, with config-only metrics (gate count, worst-case
        utilization) backfilled for engines that do not model them.  Engines
        with a real columnar path override this and set
        :attr:`supports_batch` (see
        :class:`repro.engine.adapters.AnalyticalBatchEngine`).
        """
        from repro.analysis.batch import (
            RESULT_COLUMNS,
            BatchSweepResult,
            worst_case_utilization_array,
        )
        from repro.energy.area import AreaModel

        columns = {name: np.zeros(grid.n_points) for name in RESULT_COLUMNS}
        gates_cache: Dict[int, float] = {}
        engine_models_utilization = True
        for index in range(grid.n_points):
            config = grid.config_at(index, base)
            record = self.evaluate(network, config, batch=int(grid.batch[index]))
            columns["peak_gops"][index] = record.metric("peak_gops",
                                                        default=config.peak_gops)
            columns["fps"][index] = record.metric("fps", default=0.0)
            columns["total_time_per_batch_s"][index] = record.metric(
                "total_time_per_batch_s", default=0.0)
            columns["achieved_gops"][index] = record.metric("achieved_gops", default=0.0)
            columns["power_w"][index] = record.metric("power_w", default=0.0)
            columns["gops_per_watt"][index] = record.metric("gops_per_watt", default=0.0)
            total_gates = record.metrics.get("total_gates")
            if total_gates is None:
                pes = config.num_pes
                if pes not in gates_cache:
                    gates_cache[pes] = AreaModel(config).report().total_gates
                total_gates = gates_cache[pes]
            columns["total_gates"][index] = total_gates
            worst = record.metrics.get("worst_case_utilization")
            if worst is None:
                engine_models_utilization = False
            else:
                columns["worst_case_utilization"][index] = worst
        if not engine_models_utilization:
            columns["worst_case_utilization"] = worst_case_utilization_array(grid.num_pes)
        return BatchSweepResult(grid=grid, **columns)

    def fingerprint(self) -> Dict[str, Any]:
        """Engine identity entering the cache key.

        Adapters extend this with every parameter that can change the result
        (fidelity mode, algorithm, tensor seed, ...).
        """
        return {"name": self.name}
