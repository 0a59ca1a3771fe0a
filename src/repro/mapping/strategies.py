"""The mapping search: score a layer's whole pruned space, keep the best.

The analytic pruning bounds of :class:`~repro.mapping.mapspace.LayerMapSpace`
keep every zoo layer's space below 10^5 candidates on the paper's chain
(below 5 x 10^5 even at 10M PEs), so the search is exhaustive and therefore
optimal over the pruned space:
:meth:`LayerMapSpace.enumerate` builds the space as columns, one ``scorer``
call (the optimiser builds it on the columnar
:class:`repro.analysis.batch.MappingBatchEvaluator`; lower is better) scores
every row, and :func:`best_rows` picks the best-first shortlist with ties
broken in enumeration order — a partial selection that never sorts the
whole space.  Only the shortlisted rows become :class:`MappingCandidate`
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.errors import ConfigurationError
from repro.mapping.mapspace import (  # noqa: F401 (candidate_arrays: see below)
    CandidateColumns,
    LayerMapSpace,
    MappingCandidate,
    candidate_arrays,
)

#: most rows one layer search builds; checked before enumerating
MAX_CANDIDATES = 2_000_000

Scorer = Callable[[CandidateColumns], np.ndarray]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one per-layer search."""

    candidates: List[MappingCandidate]  # best first
    scores: List[float]                 # objective values, aligned
    evaluations: int                    # candidates scored


def best_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Rows of the ``k`` lowest scores, best first, ties in row order.

    The same rows in the same order as ``np.argsort(scores,
    kind="stable")[:k]``: ``np.partition`` finds the k-th lowest score,
    and only the rows at or below it are stable-sorted.  A NaN k-th score
    keeps every row, which the sort then orders as argsort does.
    """
    if 0 < k < len(scores):
        kth = np.partition(scores, k - 1)[k - 1]
        rows = np.flatnonzero(~(scores > kth))
        return rows[np.argsort(scores[rows], kind="stable")[:k]]
    return np.argsort(scores, kind="stable")[:k]


# ExhaustiveStrategy and candidate_arrays stay names of this module because
# perfbench/spans.py patches both here.
class ExhaustiveStrategy:
    """Score the whole pruned space in one columnar call."""

    def search(self, space: LayerMapSpace, scorer: Scorer,
               shortlist: int = 4) -> SearchResult:
        """Best-first shortlist of at most ``shortlist`` candidates."""
        size = space.pruned_size()
        if size > MAX_CANDIDATES:
            raise ConfigurationError(
                f"{space.layer.name}: pruned mapspace has {size} candidates, "
                f"above the search limit {MAX_CANDIDATES}"
            )
        columns = space.enumerate()
        scores = scorer(columns)
        best = best_rows(scores, shortlist)
        return SearchResult(
            candidates=[columns.candidate(int(row)) for row in best],
            scores=[float(scores[row]) for row in best],
            evaluations=len(columns),
        )
