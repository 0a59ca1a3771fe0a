"""Sqlite cache index: CRUD, self-healing, migration, degradation, stress.

The index is an accelerator over the file-per-record RunCache layout —
never the source of truth.  These tests pin the contract: every write
path keeps index and directory consistent, a missing/corrupt/disabled
index costs speed but never correctness, ``migrate`` reconciles any
drift idempotently (including against concurrent writers), and the
WAL-mode database survives the 8-process fork+Barrier stress with zero
lost or corrupt records.  The same 8-process harness holds the record
files themselves to zero lost or torn records, with and without
concurrent LRU eviction, and checks that crash debris is reaped.  Part
of the CI equivalence gate.
"""

from __future__ import annotations

import multiprocessing
import sqlite3
import threading

import pytest

from repro.engine.base import RunRecord
from repro.engine.cache import RunCache, canonical_json
from repro.engine import cache_index
from repro.engine.cache_index import INDEX_ENV, INDEX_FILENAME, CacheIndex

STRESS_PROCESSES = 8
STRESS_SHARED_KEYS = 24
STRESS_PRIVATE_KEYS = 8


def _record(i: int = 0, engine: str = "idx-test") -> RunRecord:
    return RunRecord(engine=engine, network="tiny", batch=1,
                     config_summary=f"record {i}",
                     metrics={"fps": float(i)},
                     extra={"payload": "x" * 64})


# --------------------------------------------------------------------- #
# bare index CRUD
# --------------------------------------------------------------------- #
class TestCacheIndexUnit:
    def test_read_paths_never_materialise_the_database(self, tmp_path):
        index = CacheIndex(tmp_path)
        assert index.lookup("missing") is None
        assert index.totals() == (0, 0) or index.totals() is None
        assert not (tmp_path / INDEX_FILENAME).exists()

    def test_add_lookup_touch_remove(self, tmp_path):
        index = CacheIndex(tmp_path)
        index.add("k1", "k1.json", size=100, mtime=1.0, engine="analytical")
        row = index.lookup("k1")
        assert row == {"path": "k1.json", "size": 100, "mtime": 1.0,
                       "engine": "analytical"}
        assert index.touch("k1", mtime=2.0) is True
        assert index.lookup("k1")["mtime"] == 2.0
        assert index.touch("nope", mtime=2.0) is False
        index.remove("k1")
        assert index.lookup("k1") is None

    def test_upsert_keeps_engine_when_refreshed_without_one(self, tmp_path):
        index = CacheIndex(tmp_path)
        index.add("k", "k.json", 10, 1.0, engine="analytical")
        index.add("k", "k.json", 20, 2.0)  # migrate-style refresh, no engine
        assert index.lookup("k") == {"path": "k.json", "size": 20,
                                     "mtime": 2.0, "engine": "analytical"}

    def test_totals_keys_and_lru_order(self, tmp_path):
        index = CacheIndex(tmp_path)
        index.add("old", "old.json", 10, 1.0)
        index.add("new", "new.json", 30, 3.0)
        index.add("mid", "mid.json", 20, 2.0)
        assert index.totals() == (3, 60)
        assert sorted(index.keys()) == ["mid", "new", "old"]
        assert [key for key, *_ in index.lru()] == ["old", "mid", "new"]

    def test_corrupt_database_degrades_with_one_warning(self, tmp_path,
                                                        monkeypatch):
        (tmp_path / INDEX_FILENAME).write_bytes(b"this is not sqlite" * 64)
        monkeypatch.setattr(cache_index, "_warned_unavailable", False)
        index = CacheIndex(tmp_path)
        with pytest.warns(RuntimeWarning, match="cache migrate"):
            index.add("k", "k.json", 10, 1.0)
        assert index.available is False
        # subsequent operations are silent no-ops, not errors
        assert index.lookup("k") is None
        assert index.totals() is None
        assert list(index.lru()) == []


# --------------------------------------------------------------------- #
# RunCache integration
# --------------------------------------------------------------------- #
class TestRunCacheIntegration:
    def test_put_and_get_keep_the_index_in_sync(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.index is not None
        cache.put("k1", _record(1))
        row = cache.index.lookup("k1")
        assert row is not None and row["engine"] == "idx-test"
        before = row["mtime"]
        assert cache.get("k1").metrics["fps"] == 1.0
        assert cache.index.lookup("k1")["mtime"] >= before

    def test_get_self_heals_records_written_without_an_index(self, tmp_path):
        legacy = RunCache(tmp_path, use_index=False)
        legacy.put("legacy", _record(7))
        cache = RunCache(tmp_path)
        assert cache.index.lookup("legacy") is None
        assert cache.get("legacy") is not None  # hit via the file path
        assert cache.index.lookup("legacy") is not None  # now indexed

    def test_quick_stats_uses_the_index(self, tmp_path):
        cache = RunCache(tmp_path)
        for i in range(3):
            cache.put(f"k{i}", _record(i))
        quick = cache.quick_stats()
        assert quick["indexed"] is True and quick["entries"] == 3
        assert quick["bytes"] > 0
        unindexed = RunCache(tmp_path, use_index=False)
        assert unindexed.quick_stats()["indexed"] is False

    def test_stats_report_index_health(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("good", _record(1))
        # drift both ways: a row with no file, a file with no row
        cache.index.add("ghost", "ghost.json", 10, 1.0)
        RunCache(tmp_path, use_index=False).put("unseen", _record(2))
        health = cache.stats()["index"]
        assert health == {"enabled": True, "available": True, "entries": 2,
                          "stale": 1, "unindexed": 1}

    def test_migrate_reconciles_and_is_idempotent(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("kept", _record(1))
        cache.index.add("ghost", "ghost.json", 10, 1.0)
        RunCache(tmp_path, use_index=False).put("unseen", _record(2, engine="legacy"))
        first = cache.migrate()
        assert (first["added"], first["pruned"]) == (1, 1)
        assert first["entries"] == 2
        # the reconstructed row recovers the engine from the payload file
        assert cache.index.lookup("unseen")["engine"] == "legacy"
        second = cache.migrate()
        assert (second["added"], second["refreshed"], second["pruned"]) \
            == (0, 0, 0)
        health = cache.stats()["index"]
        assert health["stale"] == 0 and health["unindexed"] == 0

    def test_migrate_with_index_disabled_reports_disabled(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setenv(INDEX_ENV, "0")
        cache = RunCache(tmp_path)
        assert cache.index is None
        assert cache.migrate()["enabled"] is False
        assert cache.stats()["index"] == {"enabled": False, "available": False}

    def test_bounded_eviction_keeps_index_and_disk_consistent(self, tmp_path):
        cache = RunCache(tmp_path, max_mb=0.002)  # ~2 KB: forces eviction
        for i in range(12):
            cache.put(f"k{i:02d}", _record(i))
        on_disk = {path.stem for path in tmp_path.glob("*.json")}
        assert 0 < len(on_disk) < 12  # evictions happened, cache not empty
        assert set(cache.index.keys()) == on_disk
        entries, total = cache.index.totals()
        assert entries == len(on_disk)

    def test_clear_empties_the_index_too(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("k", _record())
        assert cache.clear() == 1
        assert cache.index.totals() == (0, 0)

    def test_quarantine_removes_the_index_row(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("bad", _record())
        cache.path_for("bad").write_text("{not json", encoding="utf-8")
        # the stale index row still points at the file; the corrupt read
        # quarantines the payload and drops the row
        assert cache.get("bad") is None
        assert cache.quarantined == 1
        assert cache.index.lookup("bad") is None

    def test_migrate_is_safe_against_concurrent_writers(self, tmp_path):
        """'Live-server-safe': migrate loops while another handle writes."""
        cache = RunCache(tmp_path)
        writer = RunCache(tmp_path)
        stop = threading.Event()
        errors = []

        def hammer():
            i = 0
            try:
                while not stop.is_set():
                    writer.put(f"live{i % 40:02d}", _record(i))
                    i += 1
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for _ in range(5):
                outcome = cache.migrate()
                assert outcome["available"] is True
        finally:
            stop.set()
            thread.join(30)
        assert not errors
        # once writes stop, one more migrate leaves index == disk
        final = cache.migrate()
        assert final["pruned"] == 0
        assert set(cache.index.keys()) == \
            {path.stem for path in tmp_path.glob("*.json")}


# --------------------------------------------------------------------- #
# 8-process fork+Barrier stress
# --------------------------------------------------------------------- #
def _index_stress_worker(root: str, worker_id: int, barrier) -> None:
    cache = RunCache(root)
    assert cache.index is not None
    barrier.wait(timeout=60)  # maximise overlap across the 8 processes
    for i in range(STRESS_SHARED_KEYS):
        cache.put(f"shared{i:04d}", _record(i, engine="stress"))
        cache.get(f"shared{(i * 7) % STRESS_SHARED_KEYS:04d}")
    for i in range(STRESS_PRIVATE_KEYS):
        cache.put(f"private{worker_id}_{i:04d}", _record(i, engine="stress"))
    assert cache.quarantined == 0, "reader saw a torn record"
    assert cache.index.available, "index degraded under contention"


class TestConcurrentIndexStress:
    def test_eight_processes_share_one_index_without_loss(self, tmp_path):
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        barrier = ctx.Barrier(STRESS_PROCESSES)
        processes = [
            ctx.Process(target=_index_stress_worker,
                        args=(str(tmp_path), worker_id, barrier))
            for worker_id in range(STRESS_PROCESSES)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(120)
        assert all(p.exitcode == 0 for p in processes), \
            [p.exitcode for p in processes]

        expected = ({f"shared{i:04d}" for i in range(STRESS_SHARED_KEYS)}
                    | {f"private{w}_{i:04d}"
                       for w in range(STRESS_PROCESSES)
                       for i in range(STRESS_PRIVATE_KEYS)})
        on_disk = {path.stem for path in tmp_path.glob("*.json")}
        assert on_disk == expected  # zero lost records

        cache = RunCache(tmp_path)
        # zero lost index rows: every record is indexed and hit-able, and
        # the database itself passes sqlite's own integrity check
        assert set(cache.index.keys()) == expected
        for key in sorted(expected):
            assert cache.index.lookup(key)["path"] == f"{key}.json"
            record = cache.get(key)
            assert record is not None and record.engine == "stress"
        conn = sqlite3.connect(str(tmp_path / INDEX_FILENAME))
        try:
            assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        finally:
            conn.close()
        # and the reconciler agrees there is nothing to reconcile
        outcome = cache.migrate()
        assert (outcome["added"], outcome["pruned"]) == (0, 0)


# --------------------------------------------------------------------- #
# 8-process concurrent cache stress: record files, LRU eviction, debris
# --------------------------------------------------------------------- #
def _stress_record(worker_id: int, i: int) -> RunRecord:
    return RunRecord(engine="stress", network="tiny", batch=1,
                     config_summary=f"worker {worker_id}",
                     metrics={"fps": float(i), "worker": float(worker_id)},
                     extra={"payload": "x" * 64})


def _cache_stress_worker(root: str, worker_id: int, max_mb, barrier) -> None:
    """Hammer one shared cache root: contended writes, reads, re-writes."""
    cache = RunCache(root, max_mb=max_mb)
    barrier.wait(timeout=60)  # maximise overlap across the 8 processes
    for i in range(STRESS_SHARED_KEYS):
        cache.put(f"shared{i:04d}", _stress_record(worker_id, i))
        cache.get(f"shared{(i * 7) % STRESS_SHARED_KEYS:04d}")
    for i in range(STRESS_PRIVATE_KEYS):
        cache.put(f"private{worker_id}_{i:04d}", _stress_record(worker_id, i))
    # a record must never come back corrupt (a quarantine here would mean a
    # torn write escaped into a reader)
    assert cache.quarantined == 0, "reader saw a torn record"


def _run_stress(tmp_path, max_mb):
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    barrier = ctx.Barrier(STRESS_PROCESSES)
    processes = [
        ctx.Process(target=_cache_stress_worker,
                    args=(str(tmp_path), worker_id, max_mb, barrier))
        for worker_id in range(STRESS_PROCESSES)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(120)
    assert all(p.exitcode == 0 for p in processes), \
        [p.exitcode for p in processes]


class TestConcurrentCacheStress:
    def test_eight_processes_share_one_root_without_loss(self, tmp_path):
        """Unbounded: every record lands whole; nothing lost, torn or orphaned."""
        _run_stress(tmp_path, max_mb=None)
        cache = RunCache(tmp_path)
        expected = ({f"shared{i:04d}" for i in range(STRESS_SHARED_KEYS)}
                    | {f"private{w}_{i:04d}"
                       for w in range(STRESS_PROCESSES)
                       for i in range(STRESS_PRIVATE_KEYS)})
        on_disk = {path.stem for path in tmp_path.glob("*.json")}
        assert on_disk == expected  # zero lost records
        for key in expected:  # zero corrupt/partially-written records
            record = cache.get(key)
            assert record is not None, f"{key} failed to decode"
            assert record.engine == "stress"
        assert cache.quarantined == 0
        assert cache.stats()["corrupt"] == 0
        stats = cache.stats()
        assert stats["entries"] == len(expected)

    def test_eight_processes_with_concurrent_lru_eviction(self, tmp_path):
        """Bounded: all 8 processes evict concurrently; survivors stay whole."""
        # sized with the encoder RunCache.put writes records with
        record_bytes = len(canonical_json(_stress_record(0, 0).to_json_dict()))
        # room for roughly a third of the records: eviction runs constantly
        bound_mb = (record_bytes * STRESS_SHARED_KEYS * 3) / (1024.0 * 1024.0)
        _run_stress(tmp_path, max_mb=bound_mb)
        cache = RunCache(tmp_path)
        survivors = sorted(path.stem for path in tmp_path.glob("*.json"))
        assert survivors, "eviction must not empty the cache"
        for key in survivors:  # every survivor parses whole
            assert cache.get(key) is not None, f"{key} failed to decode"
        assert cache.quarantined == 0
        assert cache.stats()["corrupt"] == 0
        assert cache.stats()["bytes"] <= int(bound_mb * 1024 * 1024) * 2

    def test_orphaned_tmp_from_killed_writer_is_reported_and_reaped(
            self, tmp_path):
        """A writer dying mid-spool leaves debris that stats/clear handle."""
        cache = RunCache(tmp_path)
        cache.put("live0", _stress_record(0, 0))
        (tmp_path / "crashed-writer.tmp").write_text("{ torn")
        assert cache.stats()["tmp_orphans"] == 1
        assert cache.clear() == 1  # one live record; debris reaped silently
        assert list(tmp_path.glob("*.tmp")) == []
