"""Mapping-search subsystem: mapspace enumeration + schedule optimisation.

The paper maps every layer with one fixed decomposition (Table II:
``floor(P/K^2)`` primitives, channel pairs round-robined into passes, full
``K``-row stripes, kernels streamed in kMemory-sized chunks).  This package
searches the *space* of legal mappings around that point:

* :mod:`repro.mapping.mapspace` — :class:`MappingCandidate`,
  :class:`LayerMapSpace` and :class:`MapSpace`: legal per-layer candidates
  (primitive partition, stripe height, kernel-streaming chunk, batch
  interleave, algorithm) with analytic pruning bounds, enumerated as
  :class:`CandidateColumns`;
* :mod:`repro.mapping.strategies` — :class:`ExhaustiveStrategy`, the one
  search: score the whole pruned space, keep a best-first shortlist;
* :mod:`repro.mapping.optimizer` — :class:`ScheduleOptimizer` producing an
  :class:`OptimizedSchedule` (consumed by the ``analytical-mapped`` engine
  and ``repro map``), plus functional verification of searched mappings
  against the im2col golden reference.

Candidates are scored columnar through
:class:`repro.analysis.batch.MappingBatchEvaluator` (one call per layer
scores its whole pruned space) and whole searches are memoised in
:class:`repro.engine.cache.RunCache`.
"""

from repro.mapping.mapspace import (
    INTERLEAVES,
    CandidateColumns,
    LayerMapSpace,
    MappingCandidate,
    MapSpace,
)
from repro.mapping.optimizer import (
    OBJECTIVES,
    LayerSchedule,
    MappingVerification,
    OptimizedSchedule,
    ScheduleOptimizer,
)
from repro.mapping.strategies import ExhaustiveStrategy, SearchResult

__all__ = [
    "INTERLEAVES",
    "CandidateColumns",
    "LayerMapSpace",
    "MapSpace",
    "MappingCandidate",
    "OBJECTIVES",
    "LayerSchedule",
    "MappingVerification",
    "OptimizedSchedule",
    "ScheduleOptimizer",
    "ExhaustiveStrategy",
    "SearchResult",
]
