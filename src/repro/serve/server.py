"""The evaluation service: asyncio HTTP/JSON server over the engine stack.

One process, three execution lanes:

* the **event loop** parses requests and owns the coalescer — it never
  computes;
* a single **evaluation thread** scores coalesced grids and ``run``
  records (columnar batch calls release the GIL into numpy, so the loop
  stays responsive while keeping heavy math strictly serialised —
  serialisation is what makes coalescing pay: a sweep is dispatched as
  soon as no batch of its key is in flight, and the sweeps that arrive
  during an evaluation join the next batch instead of contending for
  cores);
* a single **long-op thread** runs mapping searches and functional
  verifies one at a time, streaming progress back as chunked JSON-line
  events, so a long search never blocks the sweep lane.

Responses are built by :mod:`repro.serve.payloads` — the same builders
the CLI prints through — so every response body is byte-identical to
the equivalent ``repro <cmd> --json`` run.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro import __version__
from repro.analysis.batch import DesignGrid
from repro.cnn.network import Network
from repro.cnn.zoo import NETWORKS, get_network, tiny_test_network
from repro.core.config import ChainConfig
from repro.engine import ALGORITHM_ENGINES, available_engines, create_engine
from repro.engine.base import Engine
from repro.engine.cache import RunCache
from repro.errors import INPUT_ERRORS
from repro.mapping import OBJECTIVES, ScheduleOptimizer
from repro.mapping.mapspace import ALGORITHM_MODES
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import REGISTRY
from repro.serve import payloads
from repro.serve.coalesce import Coalescer
from repro.serve.protocol import (
    DEFAULT_PORT,
    HttpRequest,
    MapParams,
    ProtocolError,
    RunParams,
    SweepParams,
    VerifyParams,
    chunk,
    coalesce_key,
    config_of,
    end_chunks,
    http_response,
    parse_params,
    read_http_request,
    start_chunked,
)
from repro.sim.network import FunctionalNetworkRunner

__all__ = ["EvalServer"]

#: sweep contexts a server keeps, least recently used evicted first; an
#: evicted context costs ~0.5 ms to rebuild (VGG-16), and the bound caps
#: what clients sending ever-new base configs can make the server hold
MAX_SWEEP_CONTEXTS = 64

_M_REQUESTS = obs_metrics.counter("serve.requests")
_M_ERRORS = obs_metrics.counter("serve.errors")
_M_POINTS = obs_metrics.counter("serve.points")
_G_CONNECTIONS = obs_metrics.gauge("serve.connections")

#: engines a sweep may dispatch through (baselines are fixed
#: architectures and cannot be swept — same rule as the CLI parser)
def _sweepable_engines() -> Tuple[str, ...]:
    return tuple(name for name in available_engines()
                 if not name.startswith("baseline-"))


@dataclass(frozen=True)
class _SweepContext:
    """What a sweep evaluates through; also its coalescer key.

    Equality and hashing use ``key`` alone, so contexts with equal coalesce
    keys share batches.
    """

    key: str
    engine: Engine = field(compare=False)
    network: Network = field(compare=False)
    base: ChainConfig = field(compare=False)


class EvalServer:
    """Long-running evaluation service (see module docstring).

    ``cache`` is an optional shared :class:`~repro.engine.cache.RunCache`
    used by the mapping-search lane (sweeps evaluate through the columnar
    path directly — purity is what makes scatter bit-identity a theorem
    rather than a test).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 *, cache: Optional[RunCache] = None) -> None:
        self.host = host
        self.port = port
        self.cache = cache
        self.coalescer = Coalescer(self._evaluate_merged)
        #: sweep contexts by (engine, network, base config), built on the
        #: first sweep that needs one; at most MAX_SWEEP_CONTEXTS, least
        #: recently used evicted first
        self._contexts: OrderedDict[Tuple[str, str, ChainConfig],
                                    _SweepContext] = OrderedDict()
        self._eval_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-eval")
        self._long_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-longop")
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self.started_at = time.monotonic()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "EvalServer":
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        # port 0 resolves to the kernel-assigned port
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                # bounded: on 3.11 wait_closed() can hang forever when
                # serve_forever() was cancelled (fixed in 3.12.1); the
                # sockets are already closed either way
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:
                pass
            self._server = None
        await self.coalescer.drain()
        for writer in list(self._writers):
            writer.close()
        self._eval_pool.shutdown(wait=True)
        self._long_pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        _G_CONNECTIONS.set(len(self._writers))
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except ProtocolError as error:
                    await self._send_error(writer, error.status, str(error))
                    break
                except asyncio.IncompleteReadError:
                    break
                if request is None:
                    break
                _M_REQUESTS.inc()
                try:
                    await self._dispatch(request, writer)
                except ProtocolError as error:
                    await self._send_error(writer, error.status, str(error))
                except INPUT_ERRORS + (KeyError,) as error:
                    await self._send_error(writer, 400, _message(error))
                except Exception as error:  # noqa: BLE001 - request boundary
                    await self._send_error(writer, 500, _message(error))
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            _G_CONNECTIONS.set(len(self._writers))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send_error(self, writer: asyncio.StreamWriter, status: int,
                          message: str) -> None:
        _M_ERRORS.inc()
        body = payloads.dumps({"error": message}).encode("utf-8")
        writer.write(http_response(status, body))
        await writer.drain()

    async def _send_json(self, writer: asyncio.StreamWriter,
                         payload: Dict[str, Any], status: int = 200) -> None:
        writer.write(http_response(status, payloads.dumps(payload).encode("utf-8")))
        await writer.drain()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: HttpRequest,
                        writer: asyncio.StreamWriter) -> None:
        method, path = request.method, request.path
        if method == "GET" and path == "/v1/health":
            await self._send_json(writer, self._health())
        elif method == "GET" and path == "/v1/metrics":
            await self._send_json(writer, {"metrics": REGISTRY.flat()})
        elif method == "POST" and path == "/v1/run":
            await self._handle_run(request, writer)
        elif method == "POST" and path == "/v1/sweep":
            await self._handle_sweep(request, writer)
        elif method == "POST" and path == "/v1/map":
            await self._handle_map(request, writer)
        elif method == "POST" and path == "/v1/verify":
            await self._handle_verify(request, writer)
        else:
            raise ProtocolError(f"no route for {method} {path}", status=404)

    def _health(self) -> Dict[str, Any]:
        flat = REGISTRY.flat()
        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": time.monotonic() - self.started_at,
            "requests": flat.get("serve.requests", 0),
            "coalesced_batches": flat.get("serve.coalesced_batches", 0),
        }

    # ------------------------------------------------------------------ #
    # run lane
    # ------------------------------------------------------------------ #
    async def _handle_run(self, request: HttpRequest,
                          writer: asyncio.StreamWriter) -> None:
        params = parse_params(RunParams, request.json())
        engine_kwargs = _validate_run(params)
        network = _zoo_network(params.network)
        config = config_of(params)

        def work() -> Dict[str, Any]:
            engine = create_engine(params.engine, **engine_kwargs)
            record = engine.evaluate(network, config, batch=params.batch)
            traffic = (payloads.traffic_table(network, config, params.batch)
                       if params.traffic else None)
            return payloads.run_payload(record, traffic)

        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(self._eval_pool, work)
        await self._send_json(writer, payload)

    # ------------------------------------------------------------------ #
    # sweep lane (coalesced)
    # ------------------------------------------------------------------ #
    async def _handle_sweep(self, request: HttpRequest,
                            writer: asyncio.StreamWriter) -> None:
        params = parse_params(SweepParams, request.json())
        if params.engine not in _sweepable_engines():
            raise ProtocolError(
                f"unknown or unsweepable engine {params.engine!r}")
        engine_name = payloads.upgrade_grid_engine(params.engine)
        # built before the lookup: ChainConfig validates pes and frequency
        base = config_of(params)
        context_id = (engine_name, params.network, base)
        context = self._contexts.get(context_id)
        if context is None:
            network = _zoo_network(params.network)
            context = self._contexts[context_id] = _SweepContext(
                coalesce_key(engine_name, network, base),
                create_engine(engine_name), network, base)
            if len(self._contexts) > MAX_SWEEP_CONTEXTS:
                self._contexts.popitem(last=False)
        else:
            self._contexts.move_to_end(context_id)
        # parsed exactly as DesignSpaceExplorer.sweep_grid parses it
        grid = DesignGrid.parse(params.grid, base=context.base,
                                default_batch=params.batch)
        result = await self.coalescer.submit(context, grid)
        _M_POINTS.inc(result.n_points)
        pareto, top = payloads.reduce_grid_result(
            result, params.objectives, params.metric, params.top, params.pareto)
        payload = payloads.grid_payload(
            params.grid, engine_name, params.network, result, pareto, top,
            params.objectives, params.metric)
        await self._send_json(writer, payload)

    async def _evaluate_merged(self, context: _SweepContext,
                               merged: DesignGrid):
        """Score one coalesced grid on the evaluation thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._eval_pool,
            lambda: context.engine.evaluate_batch(
                context.network, merged, base=context.base))

    # ------------------------------------------------------------------ #
    # long-op lane (map / verify), chunked progress streaming
    # ------------------------------------------------------------------ #
    async def _handle_map(self, request: HttpRequest,
                          writer: asyncio.StreamWriter) -> None:
        params = parse_params(MapParams, request.json())
        _validate_map(params)
        network = _zoo_network(params.network)

        def work(emit: Callable[[Dict[str, Any]], None]) -> Tuple[Dict[str, Any], int]:
            optimizer = ScheduleOptimizer(
                config=config_of(params),
                objective=params.objective,
                batch=params.batch,
                cache=self.cache,
                algorithm=params.algorithm,
            )
            schedule = optimizer.optimize(network)
            emit({"event": "searched", "layers": len(schedule.layers)})
            verification = (optimizer.verify(network, schedule, seed=params.seed)
                            if params.verify else None)
            payload = payloads.map_payload(schedule, params.algorithm,
                                           verification)
            status = 0 if verification is None or verification.passed else 1
            return payload, status

        await self._stream_long_op(writer, work, label="map")

    async def _handle_verify(self, request: HttpRequest,
                             writer: asyncio.StreamWriter) -> None:
        params = parse_params(VerifyParams, request.json())
        _validate_verify(params)
        network = (tiny_test_network() if params.network == "tiny"
                   else _zoo_network(params.network))

        def work(emit: Callable[[Dict[str, Any]], None]) -> Tuple[Dict[str, Any], int]:
            runner = FunctionalNetworkRunner(
                config_of(params), seed=params.seed, algorithm=params.algorithm,
            )
            result = runner.run(network, progress=lambda stage: emit(
                {"event": "stage", **payloads.stage_event(stage)}))
            return payloads.verify_payload(result), 0 if result.passed else 1

        await self._stream_long_op(writer, work, label="verify")

    async def _stream_long_op(self, writer: asyncio.StreamWriter, work,
                              label: str) -> None:
        """Run ``work`` on the long-op thread, streaming progress chunks.

        ``work(emit)`` may call ``emit(event_dict)`` from its thread; the
        events are forwarded to the client as JSON-line chunks, with
        heartbeats while the search is silent, and a final
        ``{"event": "result", "status": ..., "payload": ...}``.
        """
        loop = asyncio.get_running_loop()
        events: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()

        def emit(event: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(events.put_nowait, event)

        writer.write(start_chunked())
        await writer.drain()
        started = loop.time()
        future = loop.run_in_executor(self._long_pool, work, emit)
        try:
            while True:
                drained = False
                while not events.empty():
                    writer.write(chunk(events.get_nowait()))
                    drained = True
                if drained:
                    await writer.drain()
                if future.done():
                    break
                done, _ = await asyncio.wait({future}, timeout=1.0)
                if not done and events.empty():
                    writer.write(chunk({"event": "working", "op": label,
                                        "elapsed_s": round(loop.time() - started, 1)}))
                    await writer.drain()
            try:
                payload, status = future.result()
            except ProtocolError as error:
                _M_ERRORS.inc()
                writer.write(chunk({"event": "error", "status": error.status,
                                    "error": str(error)}))
            except Exception as error:  # noqa: BLE001 - request boundary
                _M_ERRORS.inc()
                writer.write(chunk({"event": "error", "status": 500,
                                    "error": _message(error)}))
            else:
                writer.write(chunk({"event": "result", "status": status,
                                    "payload": payload}))
            writer.write(end_chunks())
            await writer.drain()
        except (ConnectionError, ConnectionResetError):
            # client went away mid-stream; let the computation finish (it
            # shares the lane with other requests) and drop the output
            await asyncio.wait({future})


# --------------------------------------------------------------------- #
# request validation (same rules and wording as the CLI's exit-2 paths)
# --------------------------------------------------------------------- #
def _message(error: BaseException) -> str:
    text = str(error) or type(error).__name__
    return f"{type(error).__name__}: {text}" if not str(error) else text


def _zoo_network(name: str):
    if name not in NETWORKS:
        raise ProtocolError(
            f"unknown network {name!r}; choose from {', '.join(sorted(NETWORKS))}")
    return get_network(name)


def _validate_run(params: RunParams) -> Dict[str, Any]:
    if params.engine not in available_engines():
        raise ProtocolError(f"unknown engine {params.engine!r}")
    engine_kwargs: Dict[str, Any] = {}
    if params.engine == "analytical":
        engine_kwargs = {"mode": params.mode or "paper"}
    elif params.mode is not None:
        expected = "detailed" if params.engine == "analytical-detailed" else None
        if params.mode != expected:
            raise ProtocolError(
                f"mode {params.mode} conflicts with engine {params.engine}")
    if params.algorithm != "direct":
        if params.engine not in ALGORITHM_ENGINES:
            raise ProtocolError(
                f"algorithm {params.algorithm} applies to engines "
                f"{{{','.join(ALGORITHM_ENGINES)}}}, not {params.engine}")
        engine_kwargs["algorithm"] = params.algorithm
    return engine_kwargs


def _validate_map(params: MapParams) -> None:
    if params.objective not in OBJECTIVES:
        raise ProtocolError(f"unknown objective {params.objective!r}")
    if params.algorithm not in ALGORITHM_MODES:
        raise ProtocolError(f"unknown algorithm mode {params.algorithm!r}")


def _validate_verify(params: VerifyParams) -> None:
    if params.algorithm not in ALGORITHM_MODES:
        raise ProtocolError(f"unknown algorithm mode {params.algorithm!r}")
