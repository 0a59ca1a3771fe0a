"""Benchmark: one columnar grid evaluation vs point-by-point evaluation.

On a >= 10k-point grid the struct-of-arrays path of ``analytical-batch``
must deliver at least 100x the points/s of evaluating the same points one
at a time through the ``analytical`` engine (whose records are one-point
breakdowns of the same evaluator, so the two agree bit for bit; the
exactness against an independent per-layer oracle is asserted in
``tests/test_batch_sweep.py``, here a spot check guards the benchmark
itself).  The record's ``scalar_*`` fields name that point-by-point path.
Measured numbers land in ``BENCH_sweep.json`` at the repo root so future
PRs can track the sweep-throughput trajectory.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _record import record_benchmark
from repro.analysis.batch import BatchDesignEvaluator, DesignGrid
from repro.core.config import ChainConfig
from repro.engine import create_engine

#: 129 PE counts x 81 frequencies = 10449 design points (>= the 10k bar)
GRID_SPEC = "pe=128:1152:8,freq=200:1000:10,batch=128"

#: points evaluated one at a time to extrapolate the per-point path's
#: points/s (all 10k would take seconds)
SCALAR_SAMPLE_POINTS = 64


@pytest.fixture(scope="module")
def grid():
    return DesignGrid.parse(GRID_SPEC, base=ChainConfig())


@pytest.fixture(scope="module")
def evaluator(alexnet_network):
    return BatchDesignEvaluator(alexnet_network, base=ChainConfig())


def test_columnar_sweep_100x_faster_than_scalar(benchmark, grid, evaluator,
                                                alexnet_network):
    assert grid.n_points >= 10_000

    # warm the per-precision tile constants so the timed run is steady state
    evaluator.evaluate_grid(grid.take(np.arange(16)))
    start = time.perf_counter()
    result = evaluator.evaluate_grid(grid)
    batch_seconds = time.perf_counter() - start
    batch_pps = grid.n_points / batch_seconds

    scalar_engine = create_engine("analytical")
    sample = np.linspace(0, grid.n_points - 1, SCALAR_SAMPLE_POINTS).astype(int)
    start = time.perf_counter()
    records = [
        scalar_engine.evaluate(alexnet_network, grid.config_at(int(index)),
                               batch=int(grid.batch[index]))
        for index in sample
    ]
    scalar_seconds = time.perf_counter() - start
    scalar_pps = len(sample) / scalar_seconds

    # spot-check identity on the sampled points
    for index, record in zip(sample, records):
        assert result.fps[index] == record.metric("fps")
        assert result.power_w[index] == record.metric("power_w")

    speedup = batch_pps / scalar_pps
    record_benchmark("sweep", {
        "grid": GRID_SPEC,
        "n_points": grid.n_points,
        "batch_points_per_s": batch_pps,
        "batch_ns_per_point": 1e9 / batch_pps,
        "scalar_points_per_s": scalar_pps,
        "scalar_sample_points": int(len(sample)),
        "speedup_vs_scalar": speedup,
    })

    # measured ~2000x locally; 100x is the acceptance bar, relaxed only for
    # the CI functional smoke pass on noisy shared runners
    floor = 25.0 if benchmark.disabled else 100.0
    assert speedup >= floor, (
        f"columnar path only {speedup:.0f}x the scalar path "
        f"({batch_pps:,.0f} vs {scalar_pps:,.0f} points/s)"
    )

    benchmark.pedantic(evaluator.evaluate_grid, args=(grid,), rounds=3, iterations=1)


def test_pareto_reduction_on_dense_grid(benchmark, grid, evaluator):
    """The frontier reducer keeps up with dense grids and is never empty."""
    result = evaluator.evaluate_grid(grid)
    frontier = benchmark.pedantic(result.pareto, rounds=3, iterations=1)
    assert 0 < frontier.n_points < result.n_points
    # every frontier point beats every other frontier point somewhere
    assert float(frontier.total_gates.min()) <= float(result.total_gates.min())
