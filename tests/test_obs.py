"""Observability suite: span tracing, the metrics registry, exporters,
tracing bit-identity and the CLI ``--trace`` / ``--metrics`` /
stats-footer surfaces."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main as cli_main
from repro.cnn.zoo import tiny_test_network
from repro.core.config import ChainConfig
from repro.engine.executor import SweepExecutor
from repro.mapping import ScheduleOptimizer
from repro.obs import trace as obs_trace
from repro.obs.export import (
    export_trace,
    load_trace,
    summarize_trace,
    render_summary,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry, render_metrics
from repro.obs.trace import TraceRecorder


@pytest.fixture(autouse=True)
def obs_clean():
    """Every test starts untraced and leaves no residue."""
    obs_trace.disable()
    yield
    obs_trace.disable()
    REGISTRY.reset()


class FakeClock:
    """Injectable monotonic clock for deterministic timestamps."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
class TestSpans:
    def test_nested_spans_record_exact_timestamps(self):
        clock = FakeClock()
        rec = TraceRecorder(label="test", clock=clock)
        with rec.span("outer", foo=1) as outer:
            clock.advance(0.001)
            with rec.span("inner"):
                clock.advance(0.002)
            outer.set(bar=2)
            clock.advance(0.001)
        inner, outer_event = rec.events  # inner closes (and records) first
        assert inner["name"] == "inner"
        assert inner["ts"] == 1_000 and inner["dur"] == 2_000
        assert outer_event["name"] == "outer"
        assert outer_event["ts"] == 0 and outer_event["dur"] == 4_000
        assert outer_event["args"] == {"foo": 1, "bar": 2}
        assert rec.depth == 0

    def test_exception_closes_span_and_tags_error(self):
        rec = TraceRecorder(clock=FakeClock())
        with pytest.raises(ValueError):
            with rec.span("boom"):
                raise ValueError("injected")
        event = rec.events[-1]
        assert event["args"]["error"] == "ValueError"
        assert "dur" in event  # closed despite the exception

    def test_module_level_span_uses_injected_clock(self):
        clock = FakeClock()
        rec = obs_trace.enable(clock=clock)
        with obs_trace.span("a"):
            clock.advance(0.5)
        obs_trace.instant("tick", n=3)
        assert rec.events[0]["dur"] == 500_000
        assert rec.events[1] == {
            "ph": "i", "name": "tick", "ts": 500_000,
            "pid": rec.pid, "tid": 0, "args": {"n": 3},
        }

    def test_disabled_path_is_a_shared_noop(self):
        assert not obs_trace.enabled()
        first = obs_trace.span("x", attr=1)
        second = obs_trace.span("y")
        assert first is second  # the one shared null span: no allocation
        with first as span:
            span.set(anything=True)
        obs_trace.instant("ignored")
        assert obs_trace.get_recorder() is None

    def test_enable_is_idempotent(self):
        rec = obs_trace.enable()
        assert obs_trace.enable() is rec
        obs_trace.disable()
        assert obs_trace.get_recorder() is None

    def test_traced_decorator(self):
        @obs_trace.traced("my.fn")
        def doubled(x):
            return 2 * x

        @obs_trace.traced()
        def named(x):
            return x

        assert doubled(3) == 6  # disabled: plain call, nothing recorded
        rec = obs_trace.enable(clock=FakeClock())
        assert doubled(4) == 8
        assert named(5) == 5
        assert [e["name"] for e in rec.events] == \
            ["my.fn", "TestSpans.test_traced_decorator.<locals>.named"]


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_instruments_memoise_and_snapshot(self):
        reg = MetricsRegistry()
        count = reg.counter("a")
        assert reg.counter("a") is count
        count.inc()
        count.inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(2.0)
        reg.histogram("h").observe(4.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"] == {
            "count": 2, "total": 6.0, "min": 2.0, "max": 4.0, "mean": 3.0}

    def test_reset_zeroes_in_place(self):
        reg = MetricsRegistry()
        count = reg.counter("x")
        hist = reg.histogram("h")
        count.inc(7)
        hist.observe(3.0)
        reg.reset()
        # import-time-bound instruments must stay live across reset
        assert reg.counter("x") is count and count.value == 0
        assert hist.count == 0 and hist.min == float("inf")
        count.inc()
        assert reg.flat() == {"x": 1}

    def test_flat_and_render(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits").inc(3)
        reg.histogram("cache.lock_wait_s").observe(0.5)
        flat = reg.flat()
        assert flat["cache.hits"] == 3
        assert flat["cache.lock_wait_s.count"] == 1
        text = render_metrics(flat)
        assert "cache.hits" in text and "3" in text
        assert render_metrics(flat, prefixes=("nope.",)) == ""


# --------------------------------------------------------------------- #
# exporters and trace files
# --------------------------------------------------------------------- #
def _sample_recorder() -> TraceRecorder:
    clock = FakeClock()
    rec = TraceRecorder(label="main", clock=clock)
    with rec.span("outer"):
        clock.advance(0.001)
        with rec.span("inner", k=3):
            clock.advance(0.001)
        clock.advance(0.001)
    rec.instant("tick", {"n": 1})
    return rec


class TestExport:
    def test_chrome_round_trip_and_validation(self, tmp_path):
        rec = _sample_recorder()
        path = tmp_path / "t.json"
        write_chrome_trace(str(path), rec.events, rec.process_labels(),
                           metrics={"counters": {"a": 1}})
        info = validate_chrome_trace(str(path))
        assert info == {"spans": 2, "instants": 1, "processes": 1, "tracks": 1}
        events, meta = load_trace(str(path))
        assert meta["labels"][rec.pid] == "main"
        assert meta["metrics"] == {"counters": {"a": 1}}
        assert sorted(e["name"] for e in events) == ["inner", "outer", "tick"]

    def test_jsonl_round_trip(self, tmp_path):
        rec = _sample_recorder()
        path = tmp_path / "t.jsonl"
        write_jsonl(str(path), rec.events, metrics={"counters": {"a": 1}})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["type"] for line in lines] == \
            ["span", "span", "instant", "metrics"]
        events, meta = load_trace(str(path))
        assert len(events) == 3
        assert meta["metrics"] == {"counters": {"a": 1}}

    def test_validation_rejects_overlap_and_empty(self, tmp_path):
        bad = tmp_path / "bad.json"
        write_chrome_trace(str(bad), [
            {"ph": "X", "name": "a", "ts": 0, "dur": 10, "pid": 1, "tid": 0},
            {"ph": "X", "name": "b", "ts": 5, "dur": 10, "pid": 1, "tid": 0},
        ])
        with pytest.raises(ValueError, match="overlaps"):
            validate_chrome_trace(str(bad))
        empty = tmp_path / "empty.json"
        empty.write_text('{"traceEvents": []}')
        with pytest.raises(ValueError, match="no traceEvents"):
            validate_chrome_trace(str(empty))

    def test_sibling_spans_pass_validation(self, tmp_path):
        path = tmp_path / "ok.json"
        write_chrome_trace(str(path), [
            {"ph": "X", "name": "p", "ts": 0, "dur": 30, "pid": 1, "tid": 0},
            {"ph": "X", "name": "a", "ts": 0, "dur": 10, "pid": 1, "tid": 0},
            {"ph": "X", "name": "b", "ts": 10, "dur": 10, "pid": 1, "tid": 0},
        ])
        assert validate_chrome_trace(str(path))["spans"] == 3

    def test_export_trace_requires_a_recorder(self, tmp_path):
        with pytest.raises(RuntimeError, match="not enabled"):
            export_trace(str(tmp_path / "x.json"))

    def test_summarize(self, tmp_path):
        rec = _sample_recorder()
        path = tmp_path / "t.json"
        write_chrome_trace(str(path), rec.events, rec.process_labels())
        summary = summarize_trace(str(path))
        assert summary["spans"] == 2 and summary["instants"] == 1
        assert summary["by_name"]["inner"]["count"] == 1
        text = render_summary(summary)
        assert "inner" in text and "main" in text


# --------------------------------------------------------------------- #
# bit-identity: tracing must observe, never perturb
# --------------------------------------------------------------------- #
class TestBitIdentity:
    def test_sweep_identical_with_tracing_on(self):
        network = tiny_test_network()
        configs = [ChainConfig(num_pes=pes) for pes in (96, 192, 288)]
        baseline = SweepExecutor(engine="analytical",
                                 network=network).run(configs)
        obs_trace.enable()
        traced = SweepExecutor(engine="analytical",
                               network=network).run(configs)
        assert [r.metrics for r in traced] == [r.metrics for r in baseline]
        assert obs_trace.get_recorder().events  # it did record

    def test_mapping_search_identical_with_tracing_on(self):
        network = tiny_test_network()
        baseline = ScheduleOptimizer(objective="latency",
                                     batch=4).optimize(network)
        obs_trace.enable()
        traced = ScheduleOptimizer(objective="latency",
                                   batch=4).optimize(network)
        assert traced.to_json_dict() == baseline.to_json_dict()


# --------------------------------------------------------------------- #
# CLI surfaces: --trace / --metrics / stats footer / trace summarize
# --------------------------------------------------------------------- #
class TestCli:
    def test_sweep_trace_metrics_and_footer(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        status = cli_main(["--trace", str(path), "--metrics",
                           "sweep", "pes", "--network", "alexnet"])
        assert status == 0
        err = capsys.readouterr().err
        assert "[obs] sweep:" in err and "points" in err  # the footer
        assert "Perfetto" in err
        assert "sweep.points" in err  # the --metrics dump
        info = validate_chrome_trace(str(path))
        assert info["spans"] >= 2  # cli.sweep + sweep.run_points at least

        status = cli_main(["trace", "summarize", str(path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "cli.sweep" in out

    def test_footer_without_trace_flag(self, capsys):
        status = cli_main(["map", "--network", "alexnet"])
        assert status == 0
        err = capsys.readouterr().err
        assert "[obs] map:" in err and "candidates" in err
        assert "cache off" in err

    def test_footer_counts_this_command_alone(self, tmp_path, capsys,
                                              monkeypatch):
        """The registry counts the whole process; two in-process commands
        each print their own counts, not the running totals."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        footer = re.compile(r"\[obs\] (\w+): (\d+) (\w+) in [0-9.]+s.*, "
                            r"(cache off|cache (\d+)/(\d+) hits)")
        for network in ("lenet5", "cifar10"):
            assert cli_main(["map", "--network", network, "--objective",
                             "latency", "--algorithm", "auto", "--json"]) == 0
            captured = capsys.readouterr()
            evaluations = json.loads(captured.out)["evaluations"]
            match = footer.search(captured.err)
            assert match.group(1, 2, 3, 4) == ("map", str(evaluations),
                                               "candidates", "cache off")

        argv = ["sweep", "pes", "--network", "lenet5",
                "--cache-dir", str(tmp_path / "cache")]
        counts = []
        for _ in range(2):
            assert cli_main(argv) == 0
            match = footer.search(capsys.readouterr().err)
            counts.append((int(match.group(2)), int(match.group(5)),
                           int(match.group(6))))
        (points, cold_hits, cold_lookups), warm = counts
        assert points > 0 and cold_hits == 0 and cold_lookups > 0
        assert warm == (points, cold_lookups, cold_lookups)

    def test_cached_map_footer_counts_no_candidates(self, tmp_path, capsys):
        """A schedule served from the cache scored nothing."""
        argv = ["map", "--network", "lenet5", "--objective", "latency",
                "--cache-dir", str(tmp_path / "cache"), "--json"]
        footers = []
        for _ in range(2):
            assert cli_main(argv) == 0
            footers.append(capsys.readouterr().err)
        assert re.search(r"\[obs\] map: [1-9][0-9]* candidates in .*, "
                         r"cache 0/1 hits", footers[0])
        assert re.search(r"\[obs\] map: 0 candidates in [0-9.]+s, "
                         r"cache 1/1 hits", footers[1])

    def test_jsonl_trace_export(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        status = cli_main(["--trace", str(path),
                           "map", "--network", "alexnet"])
        assert status == 0
        capsys.readouterr()
        events, meta = load_trace(str(path))
        assert any(e["name"] == "cli.map" for e in events)
        assert any(e["name"] == "map.optimize" for e in events)
        assert meta["metrics"]["counters"]["mapping.candidates_searched"] > 0

    def test_summarize_missing_file_is_an_error(self, tmp_path, capsys):
        status = cli_main(["trace", "summarize", str(tmp_path / "nope.json")])
        assert status == 2
        assert "error" in capsys.readouterr().err
