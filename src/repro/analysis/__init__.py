"""Result generation: reports, the Table V comparison and sweeps."""

from repro.analysis.batch import (
    BatchDesignEvaluator,
    BatchSweepResult,
    DesignGrid,
)
from repro.analysis.comparison import ComparisonResult, StateOfTheArtComparison
from repro.analysis.pareto import pareto_indices, pareto_mask, top_k_indices
from repro.analysis.report import (
    format_cell,
    render_bar_chart,
    render_comparison,
    render_dict_table,
    render_table,
)
from repro.analysis.sweep import DesignSpaceExplorer, SweepPoint

__all__ = [
    "BatchDesignEvaluator",
    "BatchSweepResult",
    "ComparisonResult",
    "DesignGrid",
    "StateOfTheArtComparison",
    "DesignSpaceExplorer",
    "SweepPoint",
    "format_cell",
    "pareto_indices",
    "pareto_mask",
    "render_table",
    "render_dict_table",
    "render_bar_chart",
    "render_comparison",
    "top_k_indices",
]
