"""Unified execution-engine layer.

One ``Engine`` interface over every evaluator of the library — the analytical
models (``paper`` and ``detailed`` fidelity), the cycle-accurate simulator,
the functional simulator and the Table V baselines, one engine name per code
path — plus a registry to instantiate engines by name, a deterministic
on-disk result cache and a cached sweep executor.

>>> from repro.engine import available_engines, create_engine
>>> "analytical" in available_engines() and "cycle" in available_engines()
True
"""

from repro.engine.adapters import (
    ALGORITHM_ENGINES,
    DEFAULT_ENGINES,
    AnalyticalBatchEngine,
    AnalyticalEngine,
    BaselineEngine,
    CycleEngine,
    FunctionalEngine,
    MappedAnalyticalEngine,
    summary_from_record,
)
from repro.engine.base import Engine, RunRecord
from repro.engine.cache import (
    CACHE_DIR_ENV,
    CACHE_MAX_MB_ENV,
    RunCache,
    default_cache_dir,
    grid_key,
    run_key,
    workload_fingerprint,
)
from repro.engine.cache_index import INDEX_ENV, CacheIndex, index_enabled
from repro.engine.executor import GRID_CHUNK_POINTS, SweepExecutor
from repro.engine.registry import (
    available_engines,
    create_engine,
    engine_registered,
    register_engine,
    unregister_engine,
)

__all__ = [
    "ALGORITHM_ENGINES",
    "AnalyticalBatchEngine",
    "AnalyticalEngine",
    "BaselineEngine",
    "CACHE_DIR_ENV",
    "CACHE_MAX_MB_ENV",
    "CacheIndex",
    "CycleEngine",
    "INDEX_ENV",
    "index_enabled",
    "DEFAULT_ENGINES",
    "Engine",
    "FunctionalEngine",
    "GRID_CHUNK_POINTS",
    "MappedAnalyticalEngine",
    "RunCache",
    "RunRecord",
    "SweepExecutor",
    "grid_key",
    "available_engines",
    "create_engine",
    "default_cache_dir",
    "engine_registered",
    "register_engine",
    "run_key",
    "summary_from_record",
    "unregister_engine",
    "workload_fingerprint",
]
