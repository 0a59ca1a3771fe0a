"""Tests for the unified execution-engine layer (registry, cache, executor)."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.analysis.batch import DesignGrid
from repro.cnn.zoo import alexnet, lenet5, tiny_test_network, vgg16
from repro.core.config import ChainConfig
from repro.core.performance import PerformanceModel
from repro.engine import (
    DEFAULT_ENGINES,
    GRID_CHUNK_POINTS,
    AnalyticalEngine,
    Engine,
    RunCache,
    RunRecord,
    SweepExecutor,
    available_engines,
    create_engine,
    engine_registered,
    grid_key,
    register_engine,
    run_key,
    summary_from_record,
    unregister_engine,
)
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def network():
    return lenet5()


@pytest.fixture(scope="module")
def tiny_network():
    return tiny_test_network()


class TestRegistry:
    def test_default_engines_registered(self):
        names = available_engines()
        for expected in ("analytical", "analytical-detailed", "cycle",
                         "functional", "baseline-chain-nn",
                         "baseline-eyeriss", "baseline-dadiannao"):
            assert expected in names
        # one engine name per code path: the oracle paths are not engines
        assert len(DEFAULT_ENGINES) == 10 and set(DEFAULT_ENGINES) <= set(names)
        assert "cycle-scalar" not in names and "functional-vectorized" not in names

    def test_create_engine_returns_engine(self):
        engine = create_engine("analytical")
        assert isinstance(engine, Engine)
        assert engine.name == "analytical"

    def test_unknown_engine_raises_with_suggestions(self):
        with pytest.raises(ConfigurationError, match="analytical"):
            create_engine("does-not-exist")

    def test_register_and_unregister(self):
        register_engine("test-temp", lambda **kw: AnalyticalEngine(**kw))
        try:
            assert engine_registered("test-temp")
            assert isinstance(create_engine("test-temp"), AnalyticalEngine)
            with pytest.raises(ConfigurationError, match="already registered"):
                register_engine("test-temp", lambda **kw: AnalyticalEngine(**kw))
        finally:
            unregister_engine("test-temp")
        assert not engine_registered("test-temp")

    def test_engine_kwargs_forwarded(self):
        engine = create_engine("analytical", mode="detailed")
        assert engine.name == "analytical-detailed"


class TestAdapters:
    def test_analytical_matches_performance_model(self, network):
        config = ChainConfig()
        record = create_engine("analytical").evaluate(network, config, batch=8)
        layers = [PerformanceModel(config).layer_performance(layer, 8)
                  for layer in network.conv_layers]
        total_s = sum(layer.total_time_per_batch_s for layer in layers)
        assert record.metric("fps") == pytest.approx(8 / total_s)
        assert record.metric("peak_gops") == pytest.approx(config.peak_gops)
        assert set(record.extra["layer_times_ms"]) == {"conv1", "conv2"}

    def test_mode_defines_fingerprint(self):
        engine = AnalyticalEngine(mode="detailed")
        assert engine.name == "analytical-detailed"
        assert engine.fingerprint()["mode"] == "detailed"
        assert engine.fingerprint() != AnalyticalEngine(mode="paper").fingerprint()
        with pytest.raises(ConfigurationError, match="mode"):
            AnalyticalEngine(mode="nope")

    def test_analytical_detailed_is_slower_than_paper(self, network):
        paper = create_engine("analytical").evaluate(network, None, 8)
        detailed = create_engine("analytical-detailed").evaluate(network, None, 8)
        assert detailed.metric("fps") < paper.metric("fps")

    def test_cycle_engine_verifies_reference(self, tiny_network):
        record = create_engine("cycle").evaluate(tiny_network, None, batch=2)
        assert record.metric("max_abs_error") == pytest.approx(0.0, abs=1e-9)
        assert record.metric("simulated_macs") > 0
        assert set(record.extra["layers"]) == {"convA", "convB"}

    def test_functional_engine(self, tiny_network):
        record = create_engine("functional").evaluate(tiny_network, None, 1)
        assert record.metric("max_abs_error") == pytest.approx(0.0, abs=1e-9)
        assert record.metric("windows_kept") > 0

    def test_simulator_fingerprints_name_only_what_changes_results(self):
        assert create_engine("cycle").fingerprint() == {
            "name": "cycle", "seed": 2017, "total_bits": 16}
        functional = create_engine("functional")
        assert functional.fingerprint() == {"name": "functional", "seed": 2017}
        auto = create_engine("functional", algorithm="auto").fingerprint()
        assert auto["algorithm"] == "auto"
        assert auto != functional.fingerprint()

    def test_baseline_round_trips_summary(self, network):
        record = create_engine("baseline-eyeriss").evaluate(network, None, 4)
        summary = summary_from_record(record)
        assert summary.name == "2D spatial (Eyeriss-like)"
        assert summary.energy_efficiency_gops_w == pytest.approx(
            record.metric("gops_per_watt"))

    def test_record_json_round_trip(self, network):
        record = create_engine("analytical").evaluate(network, None, 4)
        clone = RunRecord.from_json_dict(
            json.loads(json.dumps(record.to_json_dict())))
        assert clone.metrics == record.metrics
        assert clone.engine == record.engine


class TestCache:
    def test_key_is_deterministic_and_discriminating(self, network, tiny_network):
        engine = create_engine("analytical")
        config = ChainConfig()
        key = run_key(engine, network, config, 4)
        assert key == run_key(engine, network, ChainConfig(), 4)
        assert key != run_key(engine, network, config.with_pes(288), 4)
        assert key != run_key(engine, network, config, 8)
        assert key != run_key(engine, tiny_network, config, 4)
        assert key != run_key(create_engine("analytical-detailed"), network, config, 4)

    def test_put_get_round_trip(self, network, tmp_path):
        cache = RunCache(tmp_path)
        engine = create_engine("analytical")
        record = engine.evaluate(network, None, 4)
        key = run_key(engine, network, None, 4)
        assert cache.get(key) is None
        cache.put(key, record)
        stored = cache.get(key)
        assert stored is not None
        assert stored.cached and stored.cache_key == key
        assert stored.metrics == record.metrics
        assert len(cache) == 1
        assert cache.clear() == 1

    def test_corrupt_entry_is_quarantined(self, network, tmp_path, monkeypatch):
        """Corrupt records are misses, moved aside, and warned about once."""
        import warnings

        import repro.engine.cache as cache_module

        monkeypatch.setattr(cache_module, "_warned_corrupt", False)
        cache = RunCache(tmp_path)
        engine = create_engine("analytical")
        key = run_key(engine, network, None, 4)
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text("not json")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            assert cache.get(key) is None
        # the slot is free again and the bytes survive for inspection
        assert not cache.path_for(key).exists()
        quarantined = cache.path_for(key).with_name(f"{key}.json.corrupt")
        assert quarantined.read_text() == "not json"
        # structurally-wrong JSON is quarantined too, silently this time
        other = run_key(engine, network, None, 8)
        cache.path_for(other).write_text(
            '{"engine": "analytical", "network": "x", "batch": 4,'
            ' "metrics": {"fps": null}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(other) is None
        assert cache.misses == 2 and cache.quarantined == 2
        assert cache.stats()["corrupt"] == 2

    def test_missing_entry_is_a_plain_miss(self, network, tmp_path):
        """Absent files miss without quarantine machinery kicking in."""
        cache = RunCache(tmp_path)
        key = run_key(create_engine("analytical"), network, None, 4)
        assert cache.get(key) is None
        assert cache.misses == 1 and cache.quarantined == 0

    def test_stats_and_clear_cover_crash_debris(self, network, tmp_path):
        """Orphaned *.tmp spool files are counted, and clear() reaps them."""
        cache = RunCache(tmp_path)
        engine = create_engine("analytical")
        record = engine.evaluate(network, None, 4)
        cache.put(run_key(engine, network, None, 4), record)
        (tmp_path / "spoolXYZ.tmp").write_text("torn write")
        (tmp_path / "deadbeef.json.corrupt").write_text("quarantined")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["tmp_orphans"] == 1
        assert stats["corrupt"] == 1
        # clear() reaps everything but reports only live records
        assert cache.clear() == 1
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob("*.corrupt")) == []
        assert cache.stats()["tmp_orphans"] == 0

    def test_lru_eviction_bounds_size(self, network, tmp_path):
        """A bounded cache evicts least-recently-USED records (hits protect)."""
        cache = RunCache(tmp_path)
        engine = create_engine("analytical")
        record = engine.evaluate(network, None, 4)
        keys = [run_key(engine, network, None, batch) for batch in (1, 2, 3)]
        cache.put(keys[0], record)
        size = cache.path_for(keys[0]).stat().st_size
        cache.put(keys[1], record)
        # age both records, then touch key 0 through a hit: key 1 becomes LRU
        old = time.time() - 3600
        for key in keys[:2]:
            os.utime(cache.path_for(key), (old, old))
        assert cache.get(keys[0]) is not None
        cache.max_bytes = int(2.5 * size)  # room for two records, not three
        cache.put(keys[2], record)
        assert cache.evictions == 1
        assert not cache.path_for(keys[1]).exists()
        assert cache.path_for(keys[0]).exists()
        assert cache.path_for(keys[2]).exists()

    def test_eviction_reaps_stale_tmp_orphans(self, network, tmp_path):
        """Bounded puts sweep crash orphans older than the in-flight window."""
        cache = RunCache(tmp_path, max_mb=100.0)
        stale = tmp_path / "stale.tmp"
        stale.write_text("orphan")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        fresh = tmp_path / "fresh.tmp"
        fresh.write_text("live writer")
        engine = create_engine("analytical")
        cache.put(run_key(engine, network, None, 4),
                  engine.evaluate(network, None, 4))
        assert not stale.exists()  # reaped: far older than any live spool
        assert fresh.exists()  # plausibly a concurrent writer mid-spool

    def test_max_mb_from_environment(self, tmp_path, monkeypatch):
        from repro.engine.cache import CACHE_MAX_MB_ENV

        monkeypatch.setenv(CACHE_MAX_MB_ENV, "2")
        assert RunCache(tmp_path).max_bytes == 2 * 1024 * 1024
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "not-a-number")
        assert RunCache(tmp_path).max_bytes is None
        monkeypatch.delenv(CACHE_MAX_MB_ENV)
        assert RunCache(tmp_path).max_bytes is None
        assert RunCache(tmp_path, max_mb=1.0).max_bytes == 1024 * 1024
        with pytest.raises(ValueError):
            RunCache(tmp_path, max_mb=-1.0)


class TestCacheInvalidation:
    """Stale results must never be served: every input enters the key."""

    def test_key_changes_with_engine_mode_and_version(self, network, monkeypatch):
        config = ChainConfig()
        paper_key = run_key(create_engine("analytical"), network, config, 4)
        detailed_key = run_key(create_engine("analytical-detailed"), network, config, 4)
        assert paper_key != detailed_key
        monkeypatch.setattr("repro.__version__", "0.0.0-test")
        assert run_key(create_engine("analytical"), network, config, 4) != paper_key

    def test_key_changes_with_engine_parameters(self, network):
        config = ChainConfig()
        default_seed = run_key(create_engine("cycle"), network, config, 1)
        other_seed = run_key(create_engine("cycle", seed=1), network, config, 1)
        assert default_seed != other_seed

    def test_key_changes_with_network_definition(self, network):
        from repro.cnn.network import Network

        engine = create_engine("analytical")
        config = ChainConfig()
        key = run_key(engine, network, config, 4)
        # same name, one layer geometry tweaked: the key must still change
        layers = list(network.conv_layers)
        layers[0] = layers[0].scaled(out_channels=layers[0].out_channels * 2)
        widened = Network(name=network.name, layers=layers)
        assert run_key(engine, widened, config, 4) != key

    def test_stale_schema_entry_is_ignored(self, network, tmp_path, monkeypatch):
        """A record cached under an older key schema must not be returned."""
        import repro.engine.cache as cache_module

        cache = RunCache(tmp_path)
        engine = create_engine("analytical")
        record = engine.evaluate(network, None, 4)
        stale_key = run_key(engine, network, None, 4)
        cache.put(stale_key, record)
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA", cache_module.CACHE_SCHEMA + 1)
        fresh_key = run_key(engine, network, None, 4)
        assert fresh_key != stale_key
        assert cache.get(fresh_key) is None  # stale entry ignored, not returned
        # and the executor re-evaluates rather than serving the stale record
        executor = SweepExecutor(engine="analytical", network=network, batch=4,
                                 cache=cache)
        fresh = executor.run([None])[0]
        assert not fresh.cached

    def test_stale_schema_grid_chunk_is_ignored(self, network, tmp_path, monkeypatch):
        """A grid chunk cached under the previous schema is never served."""
        import repro.engine.cache as cache_module

        grid = DesignGrid.from_axes(pe_counts=(144, 576))
        engine = create_engine("analytical-batch")
        fresh_key = grid_key(engine, network, None, grid)
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_SCHEMA", cache_module.CACHE_SCHEMA - 1)
            stale_key = grid_key(engine, network, None, grid)
            SweepExecutor(engine=engine, network=network,
                          cache=RunCache(tmp_path)).run_grid(grid)
        assert stale_key != fresh_key
        assert (tmp_path / f"{stale_key}.json").is_file()
        executor = SweepExecutor(engine=engine, network=network, cache=RunCache(tmp_path))
        executor.run_grid(grid)
        assert (executor.cache.hits, executor.cache.misses) == (0, 1)

    def test_keys_are_pinned(self, tmp_path):
        """Keys are byte-stable, so caches written by this version keep
        hitting: an AlexNet analytical point and the first 8,192-point chunk
        of a VGG-16 grid, through the executor and the key functions."""
        point_key = "599b34fc0a74fbf88278e12498840a51d2a91d4d29e979ef88e111c48a6d479f"
        chunk_key = "f4f758ae9b5cacad2001f49cdf2acbe5218be819ca9678919814e4a94bf5cfbc"
        config = ChainConfig()
        assert run_key(create_engine("analytical"), alexnet(), config, 128) == point_key
        grid = DesignGrid.parse("pe=128:1152:4,freq=200:1000:10", base=config,
                                default_batch=16)
        chunk = next(grid.chunks(GRID_CHUNK_POINTS))
        assert chunk.n_points == 8192
        assert grid_key(create_engine("analytical-batch"), vgg16(), config,
                        chunk) == chunk_key

        cache = RunCache(tmp_path)
        SweepExecutor(engine="analytical", network=alexnet(), batch=128,
                      cache=cache).run([config])
        SweepExecutor(engine="analytical-batch", network=vgg16(),
                      cache=cache).run_grid(grid, base=config)
        written = {path.stem for path in tmp_path.glob("*.json")}
        assert {point_key, chunk_key} <= written
        assert len(written) == 1 + 3  # the point and the grid's three chunks


class _CountingEngine(Engine):
    """Deterministic stub that counts how often it actually evaluates."""

    calls = 0
    name = "test-counting"

    def evaluate(self, network, config=None, batch=1):
        type(self).calls += 1
        pes = config.num_pes if config is not None else 0
        return RunRecord(
            engine=self.name, network=network.name, batch=batch,
            config_summary="stub",
            # the three metrics every engine reports (a cached point record
            # without them is a miss)
            metrics={"fps": float(pes + batch), "peak_gops": 1.0,
                     "total_time_per_batch_s": 1.0},
        )


class TestSweepExecutor:
    @pytest.fixture()
    def counting_engine(self):
        _CountingEngine.calls = 0
        register_engine("test-counting", lambda **kw: _CountingEngine())
        yield "test-counting"
        unregister_engine("test-counting")

    def test_cache_hit_skips_evaluation(self, network, tmp_path, counting_engine):
        executor = SweepExecutor(engine=counting_engine, network=network, batch=4,
                                 cache=RunCache(tmp_path))
        configs = [ChainConfig().with_pes(p) for p in (144, 288)]
        first = executor.run(configs)
        assert _CountingEngine.calls == 2
        second = executor.run(configs)
        assert _CountingEngine.calls == 2  # served entirely from disk
        assert [r.metrics for r in first] == [r.metrics for r in second]
        assert all(r.cached for r in second) and not any(r.cached for r in first)

    def test_cache_is_shared_across_executors(self, network, tmp_path, counting_engine):
        configs = [ChainConfig().with_pes(p) for p in (144, 288)]
        SweepExecutor(engine=counting_engine, network=network, batch=4,
                      cache=RunCache(tmp_path)).run(configs)
        fresh = SweepExecutor(engine=counting_engine, network=network, batch=4,
                              cache=RunCache(tmp_path))
        fresh.run(configs)
        assert _CountingEngine.calls == 2

    def test_cache_distinguishes_engine_default_config(self, network, tmp_path):
        """config=None evaluations must not collide across engine defaults."""
        default = SweepExecutor(engine="analytical", network=network, batch=4,
                                cache=RunCache(tmp_path))
        first = default.run([None])[0]
        smaller = SweepExecutor(engine="analytical", network=network, batch=4,
                                cache=RunCache(tmp_path),
                                engine_kwargs={"config": ChainConfig().with_pes(288)})
        second = smaller.run([None])[0]
        assert not second.cached
        assert second.metric("fps") != first.metric("fps")

    def test_results_aligned_with_input_order(self, network):
        executor = SweepExecutor(engine="analytical", network=network, batch=4)
        pe_counts = (1152, 144, 576)
        records = executor.run([ChainConfig().with_pes(p) for p in pe_counts])
        assert [f"{p} PEs" in r.config_summary for p, r in zip(pe_counts, records)] \
            == [True, True, True]
        batches = (8, 1, 4)
        records = executor.run_batches(ChainConfig(), batches)
        assert [r.batch for r in records] == list(batches)

    def test_prebuilt_engine_instance_supported(self, network):
        engine = create_engine("analytical")
        executor = SweepExecutor(engine=engine, network=network, batch=4)
        record = executor.evaluate(ChainConfig())
        assert record.metric("fps") > 0

    def test_missing_network_raises(self):
        executor = SweepExecutor(engine="analytical")
        with pytest.raises(ValueError, match="network"):
            executor.run([ChainConfig()])
