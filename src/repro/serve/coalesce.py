"""Request coalescing: merge compatible sweeps into one columnar call.

The batch evaluator's throughput comes from array width — scoring one
point costs nearly as much as scoring thousands.  The coalescer exploits
that without holding anyone back: a sweep whose coalesce key (engine
fingerprint, network workload, base config and cache schema) has no
batch in flight is dispatched at once, and requests that arrive while a
batch of their key is being evaluated wait in that key's bucket.  The
moment the batch lands, the bucket's requests are concatenated into a
single :class:`~repro.analysis.batch.DesignGrid`, scored by **one**
``evaluate_batch`` call, and sliced back per request.  An idle server
therefore adds no queueing delay, and a busy one batches exactly the
requests that had to wait anyway (continuous batching).

Because the batch evaluator is purely elementwise per design point,
concatenate → evaluate → slice is float-bit-identical to evaluating each
request's grid alone; the scatter step uses
:meth:`~repro.analysis.batch.BatchSweepResult.take` so even column
dtypes survive untouched.
"""

from __future__ import annotations

import asyncio
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import (Awaitable, Callable, Deque, Dict, Hashable, List,
                    Sequence, Tuple)

import numpy as np

from repro.analysis.batch import BatchSweepResult, DesignGrid
from repro.obs import metrics as obs_metrics

__all__ = ["Coalescer", "merge_grids", "scatter_result"]

#: flush a bucket even while its key is busy once it holds this many
#: points / requests
DEFAULT_MAX_POINTS = 262_144
DEFAULT_MAX_REQUESTS = 256

_M_BATCHES = obs_metrics.counter("serve.coalesced_batches")
_M_COALESCED = obs_metrics.counter("serve.coalesced_requests")
_M_BATCH_REQUESTS = obs_metrics.histogram("serve.batch_requests")
_M_BATCH_POINTS = obs_metrics.histogram("serve.batch_points")
_M_QUEUE_WAIT = obs_metrics.histogram("serve.queue_wait_s")


def merge_grids(grids: Sequence[DesignGrid]) -> Tuple[DesignGrid,
                                                      List[Tuple[int, int]]]:
    """Concatenate grids into one; returns ``(merged, [(start, stop)])``."""
    spans: List[Tuple[int, int]] = []
    offset = 0
    for grid in grids:
        spans.append((offset, offset + grid.n_points))
        offset += grid.n_points
    if len(grids) == 1:
        return grids[0], spans
    merged = DesignGrid(
        num_pes=np.concatenate([grid.num_pes for grid in grids]),
        frequency_hz=np.concatenate([grid.frequency_hz for grid in grids]),
        batch=np.concatenate([grid.batch for grid in grids]),
        word_bits=np.concatenate([grid.word_bits for grid in grids]),
    )
    return merged, spans


def scatter_result(result: BatchSweepResult,
                   spans: Sequence[Tuple[int, int]]) -> List[BatchSweepResult]:
    """Slice a merged result back into per-request results, in span order."""
    return [result.take(np.arange(start, stop)) for start, stop in spans]


@dataclass
class _Pending:
    """One awaiting request inside a batch bucket."""

    grid: DesignGrid
    future: "asyncio.Future[BatchSweepResult]"
    enqueued: float


@dataclass
class Coalescer:
    """Dispatch-when-idle batcher over an async ``evaluate`` callable.

    ``evaluate(key, merged_grid)`` scores one merged grid (the server
    runs it in a worker thread so the event loop stays responsive).
    ``submit`` parks each request on a future in its key's bucket.  The
    bucket flushes at once when no batch of that key is in flight, and
    otherwise the moment the in-flight batch lands, whether it succeeded
    or failed; a bucket that reaches ``max_points`` or ``max_requests``
    flushes at once regardless.  Requests with different keys never
    share a batch and never wait for each other.
    """

    evaluate: Callable[[Hashable, DesignGrid], Awaitable[BatchSweepResult]]
    max_points: int = DEFAULT_MAX_POINTS
    max_requests: int = DEFAULT_MAX_REQUESTS
    #: raw queue-wait samples for p50/p99 (the metrics histogram keeps
    #: only count/total/min/max)
    queue_waits: Deque[float] = field(default_factory=lambda: deque(maxlen=8192))

    def __post_init__(self) -> None:
        self._pending: Dict[Hashable, List[_Pending]] = {}
        #: batches of each key being evaluated right now
        self._in_flight: Counter = Counter()
        self._tasks: set = set()

    async def submit(self, key: Hashable, grid: DesignGrid) -> BatchSweepResult:
        """Queue one request's grid; resolves with its slice of the batch."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[BatchSweepResult]" = loop.create_future()
        bucket = self._pending.setdefault(key, [])
        bucket.append(_Pending(grid, future, loop.time()))
        if (not self._in_flight[key] or len(bucket) >= self.max_requests
                or sum(pending.grid.n_points for pending in bucket)
                >= self.max_points):
            self._flush_now(key)
        return await future

    def _flush_now(self, key: Hashable) -> None:
        """Detach ``key``'s bucket and score it in a background task."""
        batch = self._pending.pop(key, None)
        if not batch:
            return
        self._in_flight[key] += 1
        task = asyncio.get_running_loop().create_task(self._flush(key, batch))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _flush(self, key: Hashable, batch: List[_Pending]) -> None:
        """Score one batch, answer its requests, then release its key."""
        now = asyncio.get_running_loop().time()
        for pending in batch:
            wait = now - pending.enqueued
            _M_QUEUE_WAIT.observe(wait)
            self.queue_waits.append(wait)
        try:
            merged, spans = merge_grids([pending.grid for pending in batch])
            _M_BATCHES.inc()
            _M_COALESCED.inc(len(batch))
            _M_BATCH_REQUESTS.observe(len(batch))
            _M_BATCH_POINTS.observe(merged.n_points)
            pieces = scatter_result(await self.evaluate(key, merged), spans)
        except Exception as error:  # noqa: BLE001 - fan the failure out
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(error)
        else:
            for pending, piece in zip(batch, pieces):
                if not pending.future.done():
                    pending.future.set_result(piece)
        finally:
            self._in_flight[key] -= 1
            if not self._in_flight[key]:
                del self._in_flight[key]
                self._flush_now(key)

    async def drain(self) -> None:
        """Flush every queued bucket now and wait for in-flight batches."""
        for key in list(self._pending):
            self._flush_now(key)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
