"""Evaluation service: coalescing, bit-identity, streaming, protocol.

The service's core promise is that turning the stack into a server
changes *where* evaluation happens but not *what* comes back: every
response must be byte-identical to the matching ``repro <cmd> --json``
invocation, including when overlapping clients' sweeps are coalesced
into one batch.  Part of the CI equivalence gate (fail-if-skipped).
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.cli as cli
from repro.analysis.batch import RESULT_COLUMNS, DesignGrid
from repro.cnn.zoo import tiny_test_network
from repro.core.config import ChainConfig
from repro.engine import create_engine
from repro.obs.metrics import REGISTRY
from repro.serve.client import ServeClient, ServeError, request_json
from repro.serve.coalesce import Coalescer, merge_grids, scatter_result
from repro.serve.protocol import (
    MapParams,
    ProtocolError,
    RunParams,
    SweepParams,
    VerifyParams,
    coalesce_key,
    http_response,
    parse_params,
)
import repro.serve.server as server_module
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
# coalescer: dispatch when idle, partitioning, scatter order, failures
# --------------------------------------------------------------------- #
def _score(merged):
    engine = create_engine("analytical-batch")
    return engine.evaluate_batch(tiny_test_network(), merged, base=BASE)


def _alone_fps(spec: str):
    return _score(_grid(spec)).fps


class _GatedEvaluate:
    """Fake ``evaluate``: records each call and holds it until ``open()``;
    once open, calls pass straight through.  The call numbered
    ``fail_call`` (0-based) raises instead of scoring."""

    def __init__(self, fail_call=None) -> None:
        self.calls = []
        self._gate = asyncio.Event()
        self._fail_call = fail_call

    def open(self) -> None:
        self._gate.set()

    async def __call__(self, key, merged):
        number = len(self.calls)
        self.calls.append((key, merged.n_points))
        await self._gate.wait()
        if number == self._fail_call:
            raise ValueError("boom")
        return _score(merged)


async def _park(coalescer, key, specs):
    """Submit ``specs`` as tasks and let the event loop settle.

    Two loop turns, no wall-clock wait (``asyncio.sleep(0)`` only
    yields): in the first, every task appends its request to its bucket
    and, where the coalescer flushes, schedules the batch; in the
    second, that batch calls ``evaluate``.
    """
    tasks = [asyncio.ensure_future(coalescer.submit(key, _grid(spec)))
             for spec in specs]
    await asyncio.sleep(0)
    await asyncio.sleep(0)
    return tasks


async def _outcomes(tasks):
    """Each task's result or exception, in order.

    The timeout only turns a request the coalescer never answers into a
    failure instead of a hung suite; a passing run never reaches it.
    """
    _, unanswered = await asyncio.wait(tasks, timeout=10.0)
    count = len(unanswered)
    assert count == 0, f"{count} of {len(tasks)} requests never answered"
    return [task.exception() or task.result() for task in tasks]


ONE = "pe=96:96:1,freq=700:700:1"
QUEUED = ("pe=576:576:1,freq=700:700:1", "pe=192:192:1,freq=700:700:1",
          "pe=288:480:96,freq=700:700:1", "pe=384:384:1,freq=700:700:1")


class TestCoalescer:
    def test_idle_key_dispatches_its_first_request_alone(self):
        async def main():
            evaluate = _GatedEvaluate()
            coalescer = Coalescer(evaluate)
            (first,) = await _park(coalescer, "k", [ONE])
            # no batch of "k" was in flight, so it did not wait for company
            assert evaluate.calls == [("k", 1)] and not first.done()
            evaluate.open()
            return evaluate.calls, await _outcomes([first])

        calls, (result,) = asyncio.run(main())
        assert calls == [("k", 1)]
        assert np.array_equal(result.fps, _alone_fps(ONE))

    def test_requests_queued_behind_a_batch_form_one_next_batch(self):
        """Everything submitted during an evaluation is the next batch,
        scattered back in submission order."""
        async def main():
            evaluate = _GatedEvaluate()
            coalescer = Coalescer(evaluate)
            (first,) = await _park(coalescer, "k", [ONE])
            queued = await _park(coalescer, "k", QUEUED)
            assert evaluate.calls == [("k", 1)]  # all four are held
            evaluate.open()
            return evaluate.calls, await _outcomes([first, *queued])

        calls, results = asyncio.run(main())
        assert calls == [("k", 1), ("k", 6)]  # 1 + 1 + 1 + 3 + 1 points
        for spec, result in zip((ONE,) + QUEUED, results):
            assert np.array_equal(result.fps, _alone_fps(spec)), spec

    def test_incompatible_keys_never_share_a_batch(self):
        """A request of another key is not held behind a busy key's batch."""
        async def main():
            evaluate = _GatedEvaluate()
            coalescer = Coalescer(evaluate)
            held = await _park(coalescer, "a", [ONE])
            held += await _park(coalescer, "a", QUEUED[:2])
            other = await _park(coalescer, "b", [ONE])
            # "b" reached evaluate while "a"'s first batch is still open
            assert evaluate.calls == [("a", 1), ("b", 1)]
            evaluate.open()
            await _outcomes(held + other)
            return evaluate.calls

        assert asyncio.run(main()) == [("a", 1), ("b", 1), ("a", 2)]

    def test_scatter_order_matches_submission_order(self):
        """Interleaved submissions each get their own grid's scores back."""
        pes = [96, 576, 192, 384, 288]

        async def evaluate(key, merged):
            return _score(merged)

        async def main():
            coalescer = Coalescer(evaluate)
            return await _outcomes([
                asyncio.ensure_future(coalescer.submit(
                    "k", _grid(f"pe={p}:{p}:1,freq=700:700:1")))
                for p in pes
            ])

        for p, result in zip(pes, asyncio.run(main())):
            assert np.array_equal(result.fps,
                                  _alone_fps(f"pe={p}:{p}:1,freq=700:700:1"))

    def test_size_bound_flushes_a_full_bucket_behind_a_batch(self):
        async def main():
            evaluate = _GatedEvaluate()
            coalescer = Coalescer(evaluate, max_requests=2)
            tasks = await _park(coalescer, "k", [ONE])
            tasks += await _park(coalescer, "k", QUEUED[:3])
            # the bucket reached 2 requests and flushed without waiting for
            # the open batch; the third request waits for a batch to land
            assert evaluate.calls == [("k", 1), ("k", 2)]
            evaluate.open()
            await _outcomes(tasks)
            return evaluate.calls

        assert asyncio.run(main()) == [("k", 1), ("k", 2), ("k", 3)]

    def test_failed_batch_answers_its_waiters_and_releases_the_queue(self):
        """The failing batch's requests get its error; the requests queued
        behind it are still evaluated and answered."""
        async def main():
            evaluate = _GatedEvaluate(fail_call=0)
            coalescer = Coalescer(evaluate)
            (first,) = await _park(coalescer, "k", [ONE])
            queued = await _park(coalescer, "k", QUEUED)
            evaluate.open()
            return evaluate.calls, await _outcomes([first, *queued])

        calls, outcomes = asyncio.run(main())
        assert calls == [("k", 1), ("k", 6)]
        assert isinstance(outcomes[0], ValueError)
        for spec, result in zip(QUEUED, outcomes[1:]):
            assert np.array_equal(result.fps, _alone_fps(spec)), spec

    def test_evaluation_failure_fans_out_to_every_waiter(self):
        """One error answers every request of the batch that raised."""
        async def main():
            evaluate = _GatedEvaluate(fail_call=1)
            coalescer = Coalescer(evaluate)
            (first,) = await _park(coalescer, "k", [ONE])
            queued = await _park(coalescer, "k", QUEUED)
            evaluate.open()
            return evaluate.calls, await _outcomes([first, *queued])

        calls, outcomes = asyncio.run(main())
        # the four queued requests shared the second batch, which raised
        assert calls == [("k", 1), ("k", 6)]
        assert np.array_equal(outcomes[0].fps, _alone_fps(ONE))
        errors = outcomes[1:]
        assert len(errors) == 4
        assert all(isinstance(error, ValueError) for error in errors)
        assert len({id(error) for error in errors}) == 1

    def test_drain_answers_every_queued_request(self):
        async def main():
            evaluate = _GatedEvaluate()
            coalescer = Coalescer(evaluate)
            tasks = await _park(coalescer, "k", [ONE])
            tasks += await _park(coalescer, "k", QUEUED)
            draining = asyncio.ensure_future(coalescer.drain())
            evaluate.open()
            await draining
            assert all(task.done() for task in tasks)
            return [task.result() for task in tasks]

        for spec, result in zip((ONE,) + QUEUED, asyncio.run(main())):
            assert np.array_equal(result.fps, _alone_fps(spec)), spec


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

    @pytest.mark.parametrize("cls, body, message", [
        (SweepParams, {"network": ["alexnet"]},
         "network must be a string, got an array"),
        (SweepParams, {"frequency_mhz": "700"},
         "frequency_mhz must be a number, got a string"),
        (SweepParams, {"frequency_mhz": True},
         "frequency_mhz must be a number, got a boolean"),
        (SweepParams, {"top": "3"}, "top must be an integer or null, got a string"),
        (SweepParams, {"top": 3.0}, "top must be an integer or null, got a number"),
        (SweepParams, {"grid": 5}, "grid must be a string, got a number"),
        (SweepParams, {"pareto": 1}, "pareto must be a boolean, got a number"),
        (SweepParams, {"objectives": "fps"},
         "objectives must be a list of strings, got a string"),
        (SweepParams, {"objectives": ["fps", 1]},
         "objectives must be a list of strings, got an array"),
        (RunParams, {"batch": "4"}, "batch must be an integer, got a string"),
        (RunParams, {"batch": True}, "batch must be an integer, got a boolean"),
        (RunParams, {"traffic": "yes"}, "traffic must be a boolean, got a string"),
        (RunParams, {"mode": 1}, "mode must be a string or null, got a number"),
        (RunParams, {"pes": {"n": 576}}, "pes must be an integer, got an object"),
        (MapParams, {"seed": None}, "seed must be an integer, got null"),
        (VerifyParams, {"algorithm": False},
         "algorithm must be a string, got a boolean"),
    ])
    def test_every_field_is_type_checked(self, cls, body, message):
        with pytest.raises(ProtocolError) as raised:
            parse_params(cls, body)
        assert str(raised.value) == message
        assert raised.value.status == 400

    def test_only_int_widens_to_float(self):
        params = parse_params(SweepParams, {"frequency_mhz": 500, "top": None,
                                            "objectives": ["fps"]})
        assert params.frequency_mhz == 500.0
        assert type(params.frequency_mhz) is float
        assert (params.top, params.objectives) == (None, ("fps",))
        run = parse_params(RunParams, {"mode": None, "traffic": False,
                                       "batch": 2})
        assert (run.mode, run.traffic, run.batch) == (None, False, 2)

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

        responses = _serve(clients)
        for (path, body, argv), (status, raw) in zip(requests, responses):
            assert status == 200, (path, raw)
            assert raw.decode() + "\n" == _cli_out(argv), (path, body)
        # every sweep went through the coalescer; whether the compatible
        # alexnet/batch-16/default-base sweeps shared a batch depends on
        # arrival order, so TestCoalescer pins that rule instead
        assert REGISTRY.flat()["serve.coalesced_batches"] > before

    def test_sweeps_build_one_context_per_engine_network_and_base(
            self, monkeypatch):
        built = []
        create = server_module.create_engine
        monkeypatch.setattr(server_module, "create_engine",
                            lambda name: built.append(name) or create(name))
        bodies = [{"grid": "pe=128:256:128"},
                  {"grid": "pe=384:512:128", "top": 1},
                  {"grid": "pe=128:256:128", "pes": 288},
                  {"grid": "pe=128:256:128", "engine": "analytical-detailed"},
                  {"grid": "pe=384:512:128", "pes": 288}]

        async def clients(server):
            return [await request_json(server.host, server.port, "/v1/sweep",
                                       body) for body in bodies]

        assert [status for status, _ in _serve(clients)] == [200] * 5
        assert built == ["analytical-batch", "analytical-batch",
                         "analytical-batch-detailed"]

    def test_cached_context_still_validates_the_base(self):
        # 576.0 == 576 and True == 1 as dict keys, so a context looked up
        # before ChainConfig checks pes would serve these with a 200
        bodies = [{"grid": "pe=128:256:128"},
                  {"grid": "pe=128:256:128", "pes": 1},
                  {"grid": "pe=128:256:128", "pes": 576.0},
                  {"grid": "pe=128:256:128", "pes": True},
                  {"grid": "pe=128:256:128", "pes": [576]}]

        async def clients(server):
            return [await request_json(server.host, server.port, "/v1/sweep",
                                       body) for body in bodies]

        responses = _serve(clients)
        assert [status for status, _ in responses] == [200, 200, 400, 400, 400]
        assert [json.loads(raw)["error"] for _, raw in responses[2:]] == [
            f"pes must be an integer, got {kind}"
            for kind in ("a number", "a boolean", "an array")]

    def test_wrongly_typed_fields_answer_400(self):
        requests = [("/v1/sweep", {"network": ["alexnet"]}),
                    ("/v1/run", {"network": ["alexnet"]}),
                    ("/v1/sweep", {"frequency_mhz": "700"}),
                    ("/v1/sweep", {"top": "3"}),
                    ("/v1/sweep", {"grid": 5}),
                    ("/v1/run", {"batch": "4"}),
                    ("/v1/run", {"traffic": "yes"}),
                    ("/v1/map", {"verify": "no"}),
                    ("/v1/verify", {"seed": 1.5})]

        async def clients(server):
            return [await request_json(server.host, server.port, path, body)
                    for path, body in requests]

        responses = _serve(clients)
        assert [status for status, _ in responses] == [400] * len(requests)
        for (_, body), (_, raw) in zip(requests, responses):
            (name,) = body
            assert json.loads(raw)["error"].startswith(f"{name} must be ")

    def test_sweep_contexts_are_bounded_and_responses_unchanged(self):
        """Least recently used contexts go; a rebuilt one answers the same
        bytes."""
        bound = server_module.MAX_SWEEP_CONTEXTS
        bodies = [{"grid": "pe=128:256:128", "network": "lenet5", "pes": pes}
                  for pes in range(100, 100 + bound + 8)]

        async def clients(server):
            first = [await request_json(server.host, server.port, "/v1/sweep",
                                        body) for body in bodies]
            sizes = [len(server._contexts)]
            # the first eight were evicted; the last one is the newest
            again = [await request_json(server.host, server.port, "/v1/sweep",
                                        body) for body in bodies[:8] + bodies[-1:]]
            sizes.append(len(server._contexts))
            newest = next(reversed(server._contexts))
            return first, again, sizes, newest

        first, again, sizes, newest = _serve(clients)
        assert sizes == [bound, bound]
        assert newest[2].num_pes == bodies[-1]["pes"]
        assert all(status == 200 for status, _ in first + again)
        assert again == first[:8] + first[-1:]
        assert first[0][1].decode() + "\n" == _cli_out(
            ["--pes", "100", "sweep", "--grid", "pe=128:256:128",
             "--network", "lenet5", "--json"])

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
                # one functional simulator path, so no backend selection
                request_json(server.host, server.port, "/v1/verify",
                             {"backend": "both"}),
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
                                                       400, 400, 400]
        assert b"workers" in responses[3][1]
        assert b"strategy" in responses[5][1]
        for _, raw in responses[6:8]:
            assert b"unknown parameter(s) workers" in raw
        assert b"unknown parameter(s) backend" in responses[8][1]
        for _, raw in responses[9:]:
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
        with _ServerThread() as server:
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


# --------------------------------------------------------------------- #
# `repro serve` as a process: stop signals
# --------------------------------------------------------------------- #
class TestServeProcess:
    def test_sigterm_stops_a_server_that_ignores_sigint(self):
        # a background job of a non-interactive shell starts with SIGINT
        # ignored, and the child inherits that disposition
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            process = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
                 "--no-cache"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env)
        finally:
            signal.signal(signal.SIGINT, previous)
        try:
            ready, _, _ = select.select([process.stdout], [], [], 30)
            assert ready, "repro serve printed no banner within 30 s"
            banner = process.stdout.readline()
            port = int(re.search(r"listening on http://[^:]+:(\d+)",
                                 banner).group(1))
            with ServeClient("127.0.0.1", port) as client:
                assert client.health()["status"] == "ok"
            process.send_signal(signal.SIGTERM)
            _, err = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        assert re.search(r"^\[serve\] 1 requests, ", err, re.MULTILINE), err

    def test_second_sigterm_while_stopping_still_exits_cleanly(
            self, monkeypatch, capsys):
        # the first SIGTERM cancels serving; a second one that lands while
        # the server drains cancels again and, like a second Ctrl-C, cuts
        # the stop short with the summary still printed and exit 0
        stops = []

        class _SlowStop:
            def __init__(self, host, port, cache=None):
                self.host, self.port = host, port

            async def start(self):
                return self

            async def serve_forever(self):
                signal.raise_signal(signal.SIGTERM)
                await asyncio.Event().wait()

            async def stop(self):
                stops.append(True)
                signal.raise_signal(signal.SIGTERM)
                await asyncio.Event().wait()  # only a second cancel ends it

        monkeypatch.setattr(server_module, "EvalServer", _SlowStop)
        assert cli.main(["serve", "--port", "0", "--no-cache"]) == 0
        assert stops == [True]
        assert re.search(r"^\[serve\] \d+ requests, ", capsys.readouterr().err,
                         re.MULTILINE)
