"""Design-space exploration sweeps.

The paper argues the 1D chain "involves fewer overheads when scaled up to a
higher parallelism or clock frequency"; these sweeps quantify that claim with
the library's models: chain length, clock frequency, kMemory depth and kernel
mix can all be varied and the resulting throughput / utilization / power /
area trends collected in one table per sweep.

Since the unified engine layer landed, every design point is evaluated
through :class:`~repro.engine.executor.SweepExecutor`: pick any registered
engine (``analytical``, ``analytical-detailed``, ``cycle``, ``functional``,
...) and optionally attach an on-disk :class:`~repro.engine.cache.RunCache`
— the sweep table is identical cached or fresh.

Dense grids (10^4+ points) go through :meth:`DesignSpaceExplorer.sweep_grid`
instead: the ``analytical-batch`` engine evaluates the whole grid as columnar
NumPy expressions (see :mod:`repro.analysis.batch`), orders of magnitude
faster than the per-point path and numerically identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.batch import BatchSweepResult, DesignGrid
from repro.cnn.network import Network
from repro.cnn.zoo import alexnet
from repro.core.config import ChainConfig
from repro.energy.area import AreaModel
from repro.engine.adapters import worst_case_utilization
from repro.engine.base import RunRecord
from repro.engine.cache import RunCache
from repro.engine.executor import SweepExecutor


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated design point."""

    label: str
    config: ChainConfig
    peak_gops: float
    fps: float
    power_w: float
    gops_per_watt: float
    worst_case_utilization: float
    total_gates: float

    def as_row(self) -> Dict[str, float | str]:
        """Row for the sweep report."""
        return {
            "PEs": self.config.num_pes,
            "Freq (MHz)": self.config.frequency_hz / 1e6,
            "Peak GOPS": self.peak_gops,
            "AlexNet fps": self.fps,
            "Power (W)": self.power_w,
            "GOPS/W": self.gops_per_watt,
            "worst-case util.": self.worst_case_utilization,
            "Gates (k)": self.total_gates / 1e3,
        }


class DesignSpaceExplorer:
    """Evaluates Chain-NN variants over a workload through one engine.

    ``engine`` is any registered engine name, and ``cache`` memoises
    results on disk so repeated sweeps (and sweeps sharing points) skip
    re-evaluation.
    """

    def __init__(self, network: Optional[Network] = None, batch: int = 128,
                 engine: str = "analytical", engine_kwargs: Optional[Dict] = None,
                 cache: Optional[RunCache] = None) -> None:
        self.network = network or alexnet()
        self.batch = batch
        self.engine_name = engine
        self.executor = SweepExecutor(
            engine=engine,
            network=self.network,
            batch=batch,
            engine_kwargs=engine_kwargs,
            cache=cache,
        )

    # ------------------------------------------------------------------ #
    # point evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, config: ChainConfig, label: Optional[str] = None) -> SweepPoint:
        """Evaluate one configuration."""
        return self._to_point(self.executor.evaluate(config), config, label)

    def evaluate_many(self, configs: Sequence[ChainConfig],
                      labels: Optional[Sequence[Optional[str]]] = None
                      ) -> List[SweepPoint]:
        """Evaluate many configurations."""
        if labels is not None and len(labels) != len(configs):
            raise ValueError(
                f"got {len(labels)} labels for {len(configs)} configurations"
            )
        records = self.executor.run(configs)
        labels = labels or [None] * len(configs)
        return [
            self._to_point(record, config, label)
            for record, config, label in zip(records, configs, labels)
        ]

    def _to_point(self, record: RunRecord, config: ChainConfig,
                  label: Optional[str] = None) -> SweepPoint:
        """Build the sweep row from a run record, backfilling config-only
        metrics (area, worst-case utilization) for engines that do not model
        them."""
        metrics = record.metrics
        total_gates = metrics.get("total_gates")
        if total_gates is None:
            total_gates = AreaModel(config).report().total_gates
        worst = metrics.get("worst_case_utilization")
        if worst is None:
            worst = worst_case_utilization(config)
        return SweepPoint(
            label=label or f"{config.num_pes} PEs @ {config.frequency_hz / 1e6:.0f} MHz",
            config=config,
            peak_gops=metrics.get("peak_gops", config.peak_gops),
            fps=metrics.get("fps", 0.0),
            power_w=metrics.get("power_w", 0.0),
            gops_per_watt=metrics.get("gops_per_watt", 0.0),
            worst_case_utilization=worst,
            total_gates=total_gates,
        )

    # ------------------------------------------------------------------ #
    # sweeps
    # ------------------------------------------------------------------ #
    def sweep_chain_length(self, pe_counts: Sequence[int] = (144, 288, 432, 576, 720, 864, 1152),
                           base: Optional[ChainConfig] = None) -> List[SweepPoint]:
        """Vary the number of PEs at fixed frequency."""
        base = base or ChainConfig()
        return self.evaluate_many([base.with_pes(count) for count in pe_counts])

    def sweep_frequency(self, frequencies_mhz: Sequence[float] = (200, 350, 500, 700, 850, 1000),
                        base: Optional[ChainConfig] = None) -> List[SweepPoint]:
        """Vary the clock frequency at fixed chain length."""
        base = base or ChainConfig()
        return self.evaluate_many([base.with_frequency(f * 1e6) for f in frequencies_mhz])

    def sweep_batch_size(self, batches: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
                         base: Optional[ChainConfig] = None) -> Dict[int, float]:
        """Frame rate versus batch size (kernel loading amortisation, Sec. V.B)."""
        config = base or ChainConfig()
        records = self.executor.run_batches(config, batches)
        return {batch: record.metrics.get("fps", 0.0)
                for batch, record in zip(batches, records)}

    # ------------------------------------------------------------------ #
    # dense grids (columnar fast path)
    # ------------------------------------------------------------------ #
    def evaluate_grid(self, grid: DesignGrid, base: Optional[ChainConfig] = None,
                      chunk_size: Optional[int] = None) -> BatchSweepResult:
        """Evaluate a dense design grid through the engine's columnar path.

        Engines without ``evaluate_batch`` support fall back to per-point
        evaluation inside the same interface, so the result shape does not
        depend on the engine choice.
        """
        return self.executor.run_grid(grid, base=base, chunk_size=chunk_size)

    def sweep_grid(self, spec: str, base: Optional[ChainConfig] = None,
                   chunk_size: Optional[int] = None) -> BatchSweepResult:
        """Evaluate a grid described by a spec string.

        ``spec`` uses the CLI grid syntax, e.g.
        ``"pe=128:1152:32,freq=200:1000:50"`` (PE count x frequency in MHz,
        optionally ``batch=...`` and ``bits=...`` axes; omitted axes default
        to the base configuration and the explorer's batch size).
        """
        base = base or ChainConfig()
        grid = DesignGrid.parse(spec, base=base, default_batch=self.batch)
        return self.evaluate_grid(grid, base=base, chunk_size=chunk_size)

    def utilization_by_chain_length(self, low: int = 128, high: int = 1152, step: int = 32
                                    ) -> Dict[int, float]:
        """Worst-case spatial utilization across the mainstream kernel sizes."""
        results = {}
        for num_pes in range(low, high + 1, step):
            utilization = worst_case_utilization(ChainConfig(num_pes=num_pes))
            if utilization > 0.0:
                results[num_pes] = utilization
        return results
