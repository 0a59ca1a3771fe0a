"""Cached evaluation of design-point sweeps.

:class:`SweepExecutor` turns a list of :class:`~repro.core.config.ChainConfig`
design points into :class:`~repro.engine.base.RunRecord` results through one
engine.  Every evaluation is keyed by a content hash (see
:mod:`repro.engine.cache`); cached points are served from disk without
touching the engine, so re-running a sweep after adding one point only
evaluates the new point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cnn.network import Network
from repro.core.config import ChainConfig
from repro.engine.base import Engine, RunRecord
from repro.engine.cache import RunCache, grid_key_for, run_key_for
from repro.engine.registry import create_engine
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

_M_POINTS = obs_metrics.counter("sweep.points")
_M_POINTS_CACHED = obs_metrics.counter("sweep.points_cached")
_M_POINTS_EVALUATED = obs_metrics.counter("sweep.points_evaluated")
_M_GRID_POINTS = obs_metrics.counter("sweep.grid_points")
_M_GRID_CHUNKS = obs_metrics.counter("sweep.grid_chunks")
_M_GRID_CHUNKS_CACHED = obs_metrics.counter("sweep.grid_chunks_cached")

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.batch import BatchSweepResult, DesignGrid

#: the metrics every engine reports: a cached point record that lacks one is
#: a miss, quarantined and re-evaluated, not a row of zeros
POINT_METRICS = ("fps", "peak_gops", "total_time_per_batch_s")

#: grid points per columnar chunk: 8192 points x ~14 float64 working columns
#: is under 1 MB, so a chunk's whole working set stays cache-resident while
#: still amortising the per-chunk constant-folding overhead
GRID_CHUNK_POINTS = 8192


def _point_record(record: RunRecord) -> RunRecord:
    """``record``, or ``KeyError`` when it lacks one of :data:`POINT_METRICS`."""
    missing = [name for name in POINT_METRICS if name not in record.metrics]
    if missing:
        raise KeyError(f"point record lacks {', '.join(missing)}")
    return record


class SweepExecutor:
    """Evaluates many design points through one engine, cached."""

    def __init__(
        self,
        engine: str | Engine = "analytical",
        network: Optional[Network] = None,
        batch: int = 128,
        engine_kwargs: Optional[Dict] = None,
        cache: Optional[RunCache] = None,
    ) -> None:
        if isinstance(engine, Engine):
            self.engine_name = engine.name
            self._engine: Optional[Engine] = engine
            self.engine_kwargs: Dict = {}
        else:
            self.engine_name = engine
            self.engine_kwargs = dict(engine_kwargs or {})
            self._engine = None
        self.network = network
        self.batch = batch
        self.cache = cache

    # ------------------------------------------------------------------ #
    # engine access
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> Engine:
        """The executor's in-process engine instance (lazily created)."""
        if self._engine is None:
            self._engine = create_engine(self.engine_name, **self.engine_kwargs)
        return self._engine

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, config: Optional[ChainConfig],
                 network: Optional[Network] = None,
                 batch: Optional[int] = None) -> RunRecord:
        """Evaluate a single point (through the cache when one is attached)."""
        return self.run([config], network=network, batch=batch)[0]

    def run(
        self,
        configs: Sequence[Optional[ChainConfig]],
        network: Optional[Network] = None,
        batch: Optional[int] = None,
    ) -> List[RunRecord]:
        """Evaluate ``configs`` in order; the result list is aligned with them."""
        batch = self.batch if batch is None else batch
        return self.run_points([(config, batch) for config in configs],
                               network=network)

    def run_batches(
        self,
        config: Optional[ChainConfig],
        batches: Sequence[int],
        network: Optional[Network] = None,
    ) -> List[RunRecord]:
        """Evaluate one configuration at many batch sizes (the Sec. V.B axis)."""
        return self.run_points([(config, batch) for batch in batches],
                               network=network)

    def run_points(
        self,
        points: Sequence[Tuple[Optional[ChainConfig], int]],
        network: Optional[Network] = None,
    ) -> List[RunRecord]:
        """Evaluate arbitrary (config, batch) points, cached.

        A cached record without one of :data:`POINT_METRICS` is a miss: it
        is quarantined, re-evaluated and overwritten.
        """
        network = network or self.network
        if network is None:
            raise ValueError("SweepExecutor needs a network (constructor or run())")

        with obs_trace.span("sweep.run_points", engine=self.engine_name,
                            network=network.name, points=len(points)) as sweep_span:
            key_of = run_key_for(self.engine, network)
            keys = [key_of(config, batch) for config, batch in points]
            records: List[Optional[RunRecord]] = [None] * len(points)
            pending: List[int] = []
            for index, key in enumerate(keys):
                cached = (self.cache.get(key, decode=_point_record)
                          if self.cache is not None else None)
                if cached is not None:
                    records[index] = cached
                else:
                    pending.append(index)
            _M_POINTS.inc(len(points))
            _M_POINTS_CACHED.inc(len(points) - len(pending))
            _M_POINTS_EVALUATED.inc(len(pending))
            sweep_span.set(cached=len(points) - len(pending))

            for index in pending:
                config, batch = points[index]
                record = self.engine.evaluate(network, config, batch)
                record = record.with_cache_info(cache_key=keys[index],
                                                cached=False)
                if self.cache is not None:
                    self.cache.put(keys[index], record)
                records[index] = record
        return [record for record in records if record is not None]

    def run_grid(
        self,
        grid: "DesignGrid",
        network: Optional[Network] = None,
        base: Optional[ChainConfig] = None,
        chunk_size: Optional[int] = None,
    ) -> "BatchSweepResult":
        """Evaluate a design grid through the engine's columnar fast path.

        The grid is split into cache-aware chunks (:data:`GRID_CHUNK_POINTS`
        by default) and each chunk goes through ``engine.evaluate_batch`` —
        the struct-of-arrays fast path for engines that support it, the
        per-point fallback loop otherwise.  With a cache attached, chunks are
        memoised whole (one record per chunk rather than one per point, which
        is what makes 10^5-point grids cacheable at all); re-running a sweep
        after editing one axis only re-evaluates the chunks that changed.
        A chunk record whose payload does not decode is a miss: it is
        quarantined, re-evaluated and overwritten.
        """
        from repro.analysis.batch import BatchSweepResult

        network = network or self.network
        if network is None:
            raise ValueError("SweepExecutor needs a network (constructor or run_grid())")
        chunk_size = GRID_CHUNK_POINTS if chunk_size is None else chunk_size
        key_of = (grid_key_for(self.engine, network, base)
                  if self.cache is not None else None)

        def decode(record: RunRecord) -> "BatchSweepResult":
            return BatchSweepResult.from_json_dict(record.extra["batch_result"])

        results: List["BatchSweepResult"] = []
        for chunk in grid.chunks(chunk_size):
            _M_GRID_CHUNKS.inc()
            _M_GRID_POINTS.inc(chunk.n_points)
            if self.cache is not None:
                key = key_of(chunk)
                cached = self.cache.get(key, decode=decode)
                if cached is not None:
                    _M_GRID_CHUNKS_CACHED.inc()
                    results.append(cached)
                    continue
            with obs_trace.span("sweep.grid_chunk", engine=self.engine_name,
                                network=network.name, points=chunk.n_points):
                result = self.engine.evaluate_batch(network, chunk, base=base)
            if self.cache is not None:
                record = RunRecord(
                    engine=self.engine.name,
                    network=network.name,
                    batch=0,
                    config_summary=f"grid chunk ({chunk.n_points} points)",
                    metrics={"points": float(chunk.n_points)},
                    extra={"batch_result": result.to_json_dict()},
                )
                self.cache.put(key, record)
            results.append(result)
        if len(results) == 1:
            return results[0]
        return BatchSweepResult.concatenate(results)
