"""Benchmark: evaluation-service throughput under request coalescing.

The acceptance bar for the evaluation service: **coalescing pays >=5x** —
a 10k-point mixed-client workload (32 concurrent clients, request sizes
1..64 points) must deliver at least 5x the points/s of the same server fed
sequential single-point requests (floor asserted in timing mode, recorded
honestly in the smoke pass).  A sweep is dispatched as soon as no batch of
its key is in flight, so the sequential leg pays no coalescing delay; the
concurrent leg wins by merging the requests that arrive during each
evaluation into the next batch.

Records ``BENCH_serve.json`` (points/s both legs, speedup, batch shape,
queue-wait p50/p99 from the coalescer's raw samples) at the repo root; the
"Evaluation service throughput" section of EXPERIMENTS.md is regenerated
from that file.

Both legs run server and clients in one process on one event loop — the
same interpreter the engines run in — so the comparison isolates
coalescing, not network stacks.  The smoke pass scales the workload down
but exercises every path.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Sequence, Tuple

from _record import record_benchmark
from repro.obs.metrics import REGISTRY
from repro.serve.client import request_json
from repro.serve.server import EvalServer

#: concurrent clients in the coalesced leg (matches the CI smoke step)
CLIENTS = 32

#: mixed request sizes the clients cycle through (points per request)
REQUEST_SIZES = (1, 2, 4, 8, 16, 32, 64)

#: total design points per leg: timing mode / smoke pass
POINTS, SMOKE_POINTS = 10_000, 1_500

#: sequential single-point requests to time (points/s extrapolates)
SEQUENTIAL_REQUESTS, SMOKE_SEQUENTIAL = 300, 40


def _grid_spec(j: int, k: int) -> str:
    """A ``k``-point AlexNet-legal PE grid, varied by request index."""
    start = 128 + (j % 128) * 8  # >=121 PEs: AlexNet's largest kernel
    return f"pe={start}:{start + (k - 1) * 8}:8"


def _mixed_sizes(total_points: int) -> List[int]:
    sizes: List[int] = []
    while sum(sizes) < total_points:
        sizes.append(REQUEST_SIZES[len(sizes) % len(REQUEST_SIZES)])
    sizes[-1] -= sum(sizes) - total_points
    return [k for k in sizes if k > 0]


async def _sweep(port: int, spec: str) -> None:
    status, _ = await request_json("127.0.0.1", port, "/v1/sweep",
                                   {"grid": spec, "top": 1})
    assert status == 200, f"sweep {spec} failed with {status}"


def _percentile(samples: Sequence[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


async def _serve_legs(total_points: int,
                      sequential_requests: int) -> Dict[str, float]:
    server = await EvalServer(port=0).start()
    try:
        await _sweep(server.port, _grid_spec(0, 2))  # warm the engine/context

        started = time.perf_counter()
        for j in range(sequential_requests):
            await _sweep(server.port, _grid_spec(j, 1))
        sequential_s = time.perf_counter() - started

        sizes = _mixed_sizes(total_points)
        requests = [(j, k) for j, k in enumerate(sizes)]
        shards = [requests[c::CLIENTS] for c in range(CLIENTS)]
        before = REGISTRY.flat()
        wait_skip = len(server.coalescer.queue_waits)

        async def client(shard: List[Tuple[int, int]]) -> None:
            for j, k in shard:
                await _sweep(server.port, _grid_spec(j, k))

        started = time.perf_counter()
        await asyncio.gather(*(client(shard) for shard in shards if shard))
        coalesced_s = time.perf_counter() - started

        after = REGISTRY.flat()
        batches = after["serve.coalesced_batches"] \
            - before.get("serve.coalesced_batches", 0)
        waits = list(server.coalescer.queue_waits)[wait_skip:]
    finally:
        await server.stop()

    sequential_pps = sequential_requests / sequential_s
    coalesced_pps = total_points / coalesced_s
    return {
        "points": total_points,
        "requests": len(sizes),
        "clients": CLIENTS,
        "sequential_requests": sequential_requests,
        "sequential_points_per_s": sequential_pps,
        "coalesced_points_per_s": coalesced_pps,
        "coalesce_speedup": coalesced_pps / sequential_pps,
        "coalesced_batches": batches,
        "mean_points_per_batch": total_points / max(batches, 1),
        "queue_wait_p50_ms": _percentile(waits, 0.50) * 1e3,
        "queue_wait_p99_ms": _percentile(waits, 0.99) * 1e3,
    }


def test_serve_coalescing_throughput(benchmark):
    smoke = benchmark.disabled
    serve_stats = benchmark.pedantic(
        lambda: asyncio.run(_serve_legs(
            SMOKE_POINTS if smoke else POINTS,
            SMOKE_SEQUENTIAL if smoke else SEQUENTIAL_REQUESTS)),
        rounds=1, iterations=1)

    record_benchmark("serve", serve_stats)

    assert serve_stats["coalesced_batches"] > 0, "nothing coalesced"
    # the floor only binds in timing mode: the smoke pass runs a scaled
    # workload on shared runners where scheduler noise dominates
    if not smoke:
        assert serve_stats["coalesce_speedup"] >= 5.0, (
            f"coalesced leg delivers {serve_stats['coalesced_points_per_s']:.0f}"
            f" points/s, only {serve_stats['coalesce_speedup']:.1f}x the "
            f"sequential {serve_stats['sequential_points_per_s']:.0f} (floor 5x)")
