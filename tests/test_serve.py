"""Evaluation service: coalescing, bit-identity, streaming, protocol.

The service's core promise is that turning the stack into a server
changes *where* evaluation happens but not *what* comes back: every
response must be byte-identical to the matching ``repro <cmd> --json``
invocation, including when many clients overlap inside one coalescing
window.  Part of the CI equivalence gate (fail-if-skipped).
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
from contextlib import redirect_stdout

import numpy as np
import pytest

import repro.cli as cli
from repro.analysis.batch import RESULT_COLUMNS, DesignGrid
from repro.cnn.zoo import tiny_test_network
from repro.core.config import ChainConfig
from repro.engine import create_engine
from repro.obs.metrics import REGISTRY
from repro.serve.client import ServeClient, ServeError, request_json
from repro.serve.coalesce import Coalescer, merge_grids, scatter_result
from repro.serve.protocol import (
    ProtocolError,
    RunParams,
    SweepParams,
    coalesce_key,
    http_response,
    parse_params,
)
from repro.serve.server import EvalServer

BASE = ChainConfig()


def _grid(spec: str, batch: int = 16) -> DesignGrid:
    return DesignGrid.parse(spec, base=BASE, default_batch=batch)


def _cli_out(argv) -> str:
    """Stdout of one in-process CLI invocation (must exit 0)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = cli.main(argv)
    assert status == 0, f"cli {argv} exited {status}"
    return buffer.getvalue()


# --------------------------------------------------------------------- #
# merge / scatter: the bit-identity core
# --------------------------------------------------------------------- #
class TestMergeScatter:
    def test_spans_partition_the_merged_grid(self):
        grids = [_grid("pe=128:512:64,freq=700:700:1"),
                 _grid("pe=576:576:1,freq=200:400:100"),
                 _grid("pe=64:64:1,freq=700:700:1")]
        merged, spans = merge_grids(grids)
        assert merged.n_points == sum(grid.n_points for grid in grids)
        assert spans[0] == (0, grids[0].n_points)
        assert all(start == prev_stop for (_, prev_stop), (start, _)
                   in zip(spans, spans[1:]))
        for grid, (start, stop) in zip(grids, spans):
            assert np.array_equal(merged.num_pes[start:stop], grid.num_pes)
            assert np.array_equal(merged.batch[start:stop], grid.batch)

    def test_merged_evaluation_is_bit_identical_per_request(self):
        """concatenate → evaluate → slice == evaluate each grid alone."""
        engine = create_engine("analytical-batch")
        network = tiny_test_network()
        grids = [_grid("pe=96:576:96,freq=300:700:200"),
                 _grid("pe=576:576:1,freq=700:700:1", batch=4),
                 _grid("pe=128:256:64,freq=500:500:1,bits=8:16:8")]
        merged, spans = merge_grids(grids)
        pieces = scatter_result(
            engine.evaluate_batch(network, merged, base=BASE), spans)
        for grid, piece in zip(grids, pieces):
            alone = engine.evaluate_batch(network, grid, base=BASE)
            for column in RESULT_COLUMNS:
                assert np.array_equal(getattr(piece, column),
                                      getattr(alone, column)), column

    def test_single_grid_merge_is_passthrough(self):
        grid = _grid("pe=128:256:64,freq=700:700:1")
        merged, spans = merge_grids([grid])
        assert merged is grid and spans == [(0, grid.n_points)]


# --------------------------------------------------------------------- #
# coalescer: window flush, partitioning, scatter order, failure fan-out
# --------------------------------------------------------------------- #
class TestCoalescer:
    def _coalescer(self, calls, **kwargs):
        async def evaluate(key, merged):
            calls.append((key, merged.n_points))
            engine = create_engine("analytical-batch")
            return engine.evaluate_batch(tiny_test_network(), merged, base=BASE)
        return Coalescer(evaluate, **kwargs)

    def test_window_flush_merges_compatible_requests(self):
        calls = []

        async def main():
            coalescer = self._coalescer(calls, window_s=0.05)
            results = await asyncio.gather(
                coalescer.submit("k", _grid("pe=96:96:1,freq=700:700:1")),
                coalescer.submit("k", _grid("pe=192:192:1,freq=700:700:1")),
                coalescer.submit("k", _grid("pe=288:480:96,freq=700:700:1")),
            )
            return results

        results = asyncio.run(main())
        assert calls == [("k", 5)]  # one batch scored all three requests
        assert [r.n_points for r in results] == [1, 1, 3]

    def test_incompatible_keys_never_share_a_batch(self):
        calls = []

        async def main():
            coalescer = self._coalescer(calls, window_s=0.02)
            await asyncio.gather(
                coalescer.submit("a", _grid("pe=96:96:1,freq=700:700:1")),
                coalescer.submit("b", _grid("pe=96:96:1,freq=700:700:1")),
                coalescer.submit("a", _grid("pe=192:192:1,freq=700:700:1")),
            )

        asyncio.run(main())
        assert sorted(calls) == [("a", 2), ("b", 1)]

    def test_scatter_order_matches_submission_order(self):
        """Interleaved submissions each get their own grid's scores back."""
        pes = [96, 576, 192, 384, 288]

        async def main():
            coalescer = self._coalescer([], window_s=0.05)
            results = await asyncio.gather(*[
                coalescer.submit("k", _grid(f"pe={p}:{p}:1,freq=700:700:1"))
                for p in pes
            ])
            return results

        engine = create_engine("analytical-batch")
        for p, result in zip(pes, asyncio.run(main())):
            alone = engine.evaluate_batch(
                tiny_test_network(),
                _grid(f"pe={p}:{p}:1,freq=700:700:1"), base=BASE)
            assert np.array_equal(result.fps, alone.fps)

    def test_size_bound_flushes_before_the_window(self):
        calls = []

        async def main():
            # a 10 s window would time the test out if the request bound
            # (2) did not flush immediately
            coalescer = self._coalescer(calls, window_s=10.0, max_requests=2)
            await asyncio.wait_for(asyncio.gather(
                coalescer.submit("k", _grid("pe=96:96:1,freq=700:700:1")),
                coalescer.submit("k", _grid("pe=192:192:1,freq=700:700:1")),
            ), timeout=5.0)

        asyncio.run(main())
        assert calls == [("k", 2)]

    def test_evaluation_failure_fans_out_to_every_waiter(self):
        async def evaluate(key, merged):
            raise ValueError("boom")

        async def main():
            coalescer = Coalescer(evaluate, window_s=0.01)
            futures = await asyncio.gather(
                coalescer.submit("k", _grid("pe=96:96:1,freq=700:700:1")),
                coalescer.submit("k", _grid("pe=192:192:1,freq=700:700:1")),
                return_exceptions=True,
            )
            return futures

        outcomes = asyncio.run(main())
        assert all(isinstance(outcome, ValueError) for outcome in outcomes)


# --------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_defaults_mirror_the_cli(self):
        params = parse_params(RunParams, {"network": "alexnet"})
        assert (params.batch, params.engine, params.pes,
                params.frequency_mhz) == (4, "analytical", 576, 700.0)
        sweep = parse_params(SweepParams, {})
        assert (sweep.batch, sweep.metric) == (16, "gops_per_watt")

    def test_unknown_parameter_is_rejected(self):
        with pytest.raises(ProtocolError, match="grdi"):
            parse_params(SweepParams, {"grdi": "pe=1:1:1"})

    def test_coalesce_key_separates_engines_networks_and_bases(self):
        network = tiny_test_network()
        key = coalesce_key("analytical-batch", network, BASE)
        assert key == coalesce_key("analytical-batch", network, ChainConfig())
        assert key != coalesce_key("analytical-batch-detailed", network, BASE)
        assert key != coalesce_key("analytical-batch", network,
                                   ChainConfig(num_pes=64))

    def test_client_body_ends_at_content_length(self):
        """The client must not wait for EOF: a pool worker forked while a
        connection is open keeps the server's socket alive after close()."""
        async def main():
            release = asyncio.Event()

            async def handler(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(http_response(200, b'{"ok": true}'))
                await writer.drain()
                await release.wait()  # the connection stays open
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await asyncio.wait_for(
                    request_json("127.0.0.1", port, "/v1/health",
                                 method="GET"), timeout=10.0)
            finally:
                release.set()
                server.close()
                await server.wait_closed()

        assert asyncio.run(main()) == (200, b'{"ok": true}')


# --------------------------------------------------------------------- #
# server round-trips (event-loop clients)
# --------------------------------------------------------------------- #
def _serve(coro_factory, **server_kwargs):
    """Start a fresh server, run ``coro_factory(server)``, stop it."""
    async def main():
        server = await EvalServer(port=0, **server_kwargs).start()
        try:
            return await coro_factory(server)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestServerBitIdentity:
    def test_concurrent_clients_match_serial_cli(self, monkeypatch):
        """Overlapping sweep/run requests == their standalone CLI bytes."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        requests = [
            ("/v1/sweep", {"grid": "pe=128:512:64,freq=300:700:100"},
             ["sweep", "--grid", "pe=128:512:64,freq=300:700:100", "--json"]),
            ("/v1/sweep", {"grid": "pe=128:512:64,freq=300:700:100",
                           "pareto": True},
             ["sweep", "--grid", "pe=128:512:64,freq=300:700:100", "--json",
              "--pareto"]),
            ("/v1/sweep", {"grid": "pe=576:576:1,freq=700:700:1", "top": 1},
             ["sweep", "--grid", "pe=576:576:1,freq=700:700:1", "--json",
              "--top", "1"]),
            ("/v1/sweep", {"grid": "pe=256:512:128,freq=700:700:1", "batch": 4,
                           "metric": "fps"},
             ["sweep", "--grid", "pe=256:512:128,freq=700:700:1", "--json",
              "--batch", "4", "--metric", "fps"]),
            ("/v1/sweep", {"grid": "pe=128:512:64,freq=300:700:100",
                           "engine": "analytical-detailed"},
             ["sweep", "--grid", "pe=128:512:64,freq=300:700:100", "--json",
              "--engine", "analytical-detailed"]),
            ("/v1/run", {"network": "alexnet"}, ["run", "alexnet", "--json"]),
            ("/v1/run", {"network": "vgg16", "batch": 8, "mode": "detailed"},
             ["run", "vgg16", "--json", "--batch", "8", "--mode", "detailed"]),
            ("/v1/run", {"network": "alexnet", "traffic": True},
             ["run", "alexnet", "--json", "--traffic"]),
        ]
        before = REGISTRY.flat().get("serve.coalesced_batches", 0)

        async def clients(server):
            return await asyncio.gather(*[
                request_json(server.host, server.port, path, body)
                for path, body, _ in requests
            ])

        responses = _serve(clients, window_ms=20.0)
        for (path, body, argv), (status, raw) in zip(requests, responses):
            assert status == 200, (path, raw)
            assert raw.decode() + "\n" == _cli_out(argv), (path, body)
        # the three compatible alexnet/batch-16/default-base sweeps above
        # must have shared at least one coalesced batch
        assert REGISTRY.flat()["serve.coalesced_batches"] > before

    def test_map_stream_result_matches_cli(self, monkeypatch):
        """A streamed map result and an overlapping sweep == CLI bytes."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        serial_map = _cli_out(["map", "--network", "alexnet", "--json"])
        serial_sweep = _cli_out(
            ["sweep", "--grid", "pe=128:512:128,freq=700:700:1", "--json"])

        async def clients(server):
            return await asyncio.gather(
                request_json(server.host, server.port, "/v1/map",
                             {"network": "alexnet"}),
                request_json(server.host, server.port, "/v1/sweep",
                             {"grid": "pe=128:512:128,freq=700:700:1"}),
            )

        (map_status, map_raw), (sweep_status, sweep_raw) = _serve(clients)
        assert map_status == 200 and sweep_status == 200
        result = json.loads(map_raw.decode().splitlines()[-1])
        assert result["event"] == "result" and result["status"] == 0
        assert json.dumps(result["payload"], indent=2, sort_keys=True) + "\n" \
            == serial_map
        assert sweep_raw.decode() + "\n" == serial_sweep

    def test_verify_streams_stage_progress_then_result(self):
        async def client(server):
            return await request_json(server.host, server.port, "/v1/verify",
                                      {"network": "tiny", "seed": 11})

        status, raw = _serve(client)
        assert status == 200
        events = [json.loads(line) for line in raw.decode().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[-1] == "result" and "stage" in kinds[:-1]
        stage_names = [event["stage"] for event in events
                       if event["event"] == "stage"]
        payload = events[-1]["payload"]
        assert payload["passed"] is True and events[-1]["status"] == 0
        assert [s["stage"] for s in payload["stages"]] == stage_names

    def test_protocol_and_validation_errors(self):
        async def clients(server):
            return await asyncio.gather(
                request_json(server.host, server.port, "/v1/sweep",
                             {"grdi": "pe=1:1:1"}),
                request_json(server.host, server.port, "/v1/missing", {}),
                request_json(server.host, server.port, "/v1/run",
                             {"network": "not-a-network"}),
                request_json(server.host, server.port, "/v1/run",
                             {"network": "alexnet", "workers": 2}),
                request_json(server.host, server.port, "/v1/map",
                             {"samples": 5}),
                # exhaustive is the only search, so the key is gone
                request_json(server.host, server.port, "/v1/map",
                             {"strategy": "exhaustive"}),
                # every request runs serially, so the key is gone
                request_json(server.host, server.port, "/v1/map",
                             {"workers": 2}),
                request_json(server.host, server.port, "/v1/verify",
                             {"workers": 2}),
                # a chain too short for conv1's 11x11 kernel is a bad input,
                # whether the model (ConfigurationError) or a simulator's
                # mapper (MappingError) notices
                request_json(server.host, server.port, "/v1/run",
                             {"network": "alexnet", "pes": 100}),
                request_json(server.host, server.port, "/v1/run",
                             {"network": "alexnet", "pes": 100,
                              "engine": "cycle"}),
            )

        responses = _serve(clients)
        assert [status for status, _ in responses] == [400, 404, 400, 400,
                                                       400, 400, 400, 400,
                                                       400, 400]
        assert b"workers" in responses[3][1]
        assert b"strategy" in responses[5][1]
        for _, raw in responses[6:8]:
            assert b"unknown parameter(s) workers" in raw
        for _, raw in responses[8:]:
            assert b"121 PEs" in raw

    def test_health_and_metrics_endpoints(self):
        async def clients(server):
            health = await request_json(server.host, server.port,
                                        "/v1/health", None, method="GET")
            await request_json(server.host, server.port, "/v1/sweep",
                               {"grid": "pe=576:576:1,freq=700:700:1"})
            metrics = await request_json(server.host, server.port,
                                         "/v1/metrics", None, method="GET")
            return health, metrics

        (h_status, h_raw), (m_status, m_raw) = _serve(clients)
        assert h_status == 200 and m_status == 200
        health = json.loads(h_raw)
        assert health["status"] == "ok" and "version" in health
        metrics = json.loads(m_raw)["metrics"]
        assert metrics["serve.coalesced_batches"] >= 1


# --------------------------------------------------------------------- #
# blocking client + `repro request` (server on a background thread)
# --------------------------------------------------------------------- #
class _ServerThread:
    """A live server on its own event-loop thread, for blocking clients."""

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._task = None
        self._loop = None
        self.server = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main():
            self._task = asyncio.current_task()
            self._loop = asyncio.get_running_loop()
            self.server = await EvalServer(port=0, **self._kwargs).start()
            self._ready.set()
            try:
                await self.server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await self.server.stop()

        asyncio.run(main())

    def __enter__(self) -> EvalServer:
        self._thread.start()
        assert self._ready.wait(30), "server failed to start"
        return self.server

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._task.cancel)
        self._thread.join(30)


class TestBlockingClientAndRequestCLI:
    def test_serve_client_round_trips(self):
        with _ServerThread(window_ms=2.0) as server:
            with ServeClient(server.host, server.port) as client:
                assert client.health()["status"] == "ok"
                payload = client.sweep(grid="pe=256:512:256,freq=700:700:1")
                assert payload["n_points"] == 2
                events = []
                result, status = client.verify(on_event=events.append,
                                               network="tiny")
                assert status == 0 and result["passed"] is True
                with pytest.raises(ServeError):
                    client.run(network="not-a-network")
                assert client.metrics()["serve.requests"] >= 3

    def test_repro_request_bytes_match_repro_sweep(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        expected = _cli_out(
            ["sweep", "--grid", "pe=128:384:128,freq=500:700:100", "--json"])
        with _ServerThread() as server:
            got = _cli_out(
                ["request", "sweep",
                 '{"grid": "pe=128:384:128,freq=500:700:100"}',
                 "--port", str(server.port)])
            health = _cli_out(["request", "health", "--port", str(server.port)])
        assert got == expected
        assert json.loads(health)["status"] == "ok"

    def test_repro_request_against_no_server_fails_cleanly(self, capsys):
        # a port from the dynamic range with nothing bound on it
        status = cli.main(["request", "health", "--port", "1"])
        assert status == 1
        assert "cannot reach" in capsys.readouterr().err
