"""JSON response payloads shared by the CLI and the evaluation server.

The service promises byte-identical responses to the equivalent
``repro <command> --json`` invocation.  Rather than asserting that with
tests alone, the payload construction itself is shared: the CLI handlers
and the server routes both call these builders, so the two surfaces
cannot drift.  Everything here is synchronous and asyncio-free.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional, Tuple

from repro.analysis.batch import HIGHER_IS_BETTER, BatchDesignEvaluator

__all__ = [
    "GRID_ENGINE_UPGRADES",
    "dumps",
    "grid_payload",
    "map_payload",
    "reduce_grid_result",
    "run_payload",
    "traffic_table",
    "upgrade_grid_engine",
    "verify_payload",
]

#: a point engine's records are one-point views of the columnar evaluator,
#: so dense grids dispatch to its whole-grid engine in either fidelity mode
GRID_ENGINE_UPGRADES = {
    "analytical": "analytical-batch",
    "analytical-detailed": "analytical-batch-detailed",
}


def upgrade_grid_engine(name: str) -> str:
    """Engine actually used for a dense-grid sweep."""
    return GRID_ENGINE_UPGRADES.get(name, name)


def dumps(payload: Dict[str, Any]) -> str:
    """The one JSON serialisation both surfaces print/transmit."""
    return json.dumps(payload, indent=2, sort_keys=True)


def reduce_grid_result(result, objectives: Tuple[str, ...], metric: str,
                       top: Optional[int], pareto: bool):
    """Frontier/top-K reduction of a grid sweep → ``(pareto, top)`` results.

    Higher-is-better columns are negated for the frontier and ranked
    descending for top-K, so "best" always means best; with no reducer
    requested, the best points by the default metric are reported.
    """
    maximized = tuple(name for name in objectives if name in HIGHER_IS_BETTER)
    pareto_result = (result.pareto(objectives=objectives, maximize=maximized)
                     if pareto else None)
    rank_descending = metric in HIGHER_IS_BETTER
    top_result = (result.top_k(metric, top, maximize=rank_descending)
                  if top else None)
    if pareto_result is None and top_result is None:
        top_result = result.top_k(metric, min(10, result.n_points),
                                  maximize=rank_descending)
    return pareto_result, top_result


def grid_payload(grid_spec: str, engine: str, network: str, result,
                 pareto, top, objectives: Tuple[str, ...],
                 metric: str) -> Dict[str, Any]:
    """``sweep --grid --json`` response body."""
    payload: Dict[str, Any] = {
        "grid": grid_spec,
        "engine": engine,
        "network": network,
        "n_points": result.n_points,
    }
    if pareto is not None:
        payload["pareto"] = {"objectives": list(objectives),
                             "points": pareto.rows()}
    if top is not None:
        payload["top"] = {"metric": metric, "points": top.rows()}
    return payload


def traffic_table(network, config, batch: int) -> Dict[str, Dict[str, float]]:
    """``run --traffic``: Table IV (MB per layer plus the total) at the run's
    design point.  It is config-derived, so it accompanies any engine."""
    return BatchDesignEvaluator(network, base=config).breakdown(batch).traffic_mb()


def run_payload(record, traffic=None) -> Dict[str, Any]:
    """``run --json`` response body (``traffic`` from :func:`traffic_table`)."""
    payload = record.to_json_dict()
    if traffic is not None:
        payload["traffic_mb"] = traffic
    return payload


def map_payload(schedule, algorithm_mode: str,
                verification=None) -> Dict[str, Any]:
    """``map --json`` response body."""
    payload = schedule.to_json_dict()
    payload["algorithm_mode"] = algorithm_mode
    # flattened per-layer choice table: what the search actually picked,
    # in a shape that is directly inspectable and diffable in CI (the
    # nested layers/baseline records carry the full metric vectors)
    payload["chosen"] = {
        entry.layer_name: {
            "algorithm": entry.candidate.algorithm,
            "primitives": entry.candidate.primitives,
            "stripe_height": entry.candidate.stripe_height,
            "chunk": entry.candidate.chunk,
            "interleave": entry.candidate.interleave,
        }
        for entry in schedule.layers
    }
    if verification is not None:
        payload["verification"] = {
            "passed": verification.passed,
            "max_abs_error": verification.max_abs_error,
            "tolerance": verification.tolerance,
            "layers": [
                {
                    "layer": entry.layer_name,
                    "algorithm": entry.candidate.algorithm,
                    "max_abs_error": entry.max_abs_error,
                    "bit_identical": entry.bit_identical,
                    "covers": list(entry.covers),
                }
                for entry in verification.layers
            ],
        }
    return payload


def verify_payload(result) -> Dict[str, Any]:
    """``verify`` response body (the CLI prints the text report; the
    service also ships the structured stage table)."""
    return {
        "network": result.network,
        "backend": result.backend,
        "seed": result.seed,
        "passed": result.passed,
        "max_abs_error": result.max_abs_error,
        "tolerance": result.tolerance,
        "chain_cycles_estimate": result.chain_cycles_estimate,
        "stats": dataclasses.asdict(result.stats),
        "stages": [stage_event(stage) for stage in result.stages],
        "report": result.describe(),
    }


def stage_event(stage) -> Dict[str, Any]:
    """One verification stage as a progress-stream event body."""
    return {
        "stage": stage.name,
        "kind": stage.kind,
        "out_shape": list(stage.out_shape),
        "max_abs_error": stage.max_abs_error,
        "windows_kept": stage.windows_kept,
        "algorithm": stage.algorithm,
    }
