"""RunCache record files: the whole store, safe under concurrent processes.

Each record is one content-addressed ``<key>.json`` file and nothing else
lives under the cache root: puts, hits, bounded eviction and quarantine
leave only records, quarantined records and the eviction lock, and only
eviction and ``clear`` take that lock.  A record whose payload its
caller's decoder rejects is a quarantined miss; a failed write leaves the
old record and no spool file; losing a race to another process (for the
quarantine rename or a hit's recency bump) raises nothing.  The
8-process fork+Barrier harness holds the record files to zero lost or torn
records, with and without concurrent LRU eviction, and checks that crash
debris is reaped.  Part of the CI equivalence gate.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings

import pytest

from repro.engine import cache as cache_module
from repro.engine.base import RunRecord
from repro.engine.cache import RunCache, canonical_json

STRESS_PROCESSES = 8
STRESS_SHARED_KEYS = 24
STRESS_PRIVATE_KEYS = 8


def _stress_record(worker_id: int, i: int) -> RunRecord:
    return RunRecord(engine="stress", network="tiny", batch=1,
                     config_summary=f"worker {worker_id}",
                     metrics={"fps": float(i), "worker": float(worker_id)},
                     extra={"payload": "x" * 64})


def _reject(record: RunRecord):
    """A caller's decoder that finds the payload it needs missing."""
    return record.extra["schedule"]


class TestRecordFiles:
    def test_root_holds_only_records_quarantine_and_lock(self, tmp_path):
        # room for about four records (sized with the encoder put writes
        # with): the twelve puts evict
        record_bytes = len(canonical_json(_stress_record(0, 0).to_json_dict()))
        cache = RunCache(tmp_path, max_mb=4.5 * record_bytes / (1024 * 1024))
        for i in range(12):
            cache.put(f"k{i:02d}", _stress_record(0, i))
            assert cache.get(f"k{i:02d}") is not None
        assert cache.evictions > 0
        assert cache.get("k11", decode=_reject) is None
        assert cache.quarantined == 1
        names = {path.name for path in tmp_path.iterdir()}
        assert names == ({".lock", "k11.json.corrupt"}
                         | {path.name for path in tmp_path.glob("*.json")})
        assert not any(name.startswith("index.db") for name in names)

    def test_decoder_rejection_is_a_quarantined_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("k", _stress_record(0, 3))
        assert cache.get("k", decode=_reject) is None
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 1)
        assert not cache.path_for("k").exists()
        assert (tmp_path / "k.json.corrupt").exists()
        # the slot is writable again, and an accepting decoder's value is
        # what a hit returns
        cache.put("k", _stress_record(0, 4))
        assert cache.get("k", decode=lambda record: record.metrics["fps"]) == 4.0
        assert (cache.hits, cache.misses) == (1, 1)

    @pytest.mark.parametrize("text", [
        "[]",
        '{"engine": "e", "network": "n", "batch": 1, "metrics": []}',
        '{"engine": "e", "network": "n", "batch": "one"}',
        '{"network": "n", "batch": 1}',
    ], ids=["not-an-object", "metrics-not-a-mapping", "batch-not-a-number",
            "no-engine"])
    def test_mangled_record_is_a_quarantined_miss(self, tmp_path, text):
        cache = RunCache(tmp_path)
        cache.path_for("k").write_text(text, encoding="utf-8")
        assert cache.get("k") is None
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 1)
        assert (tmp_path / "k.json.corrupt").read_text(encoding="utf-8") == text

    def test_bounded_eviction_holds_the_bound(self, tmp_path):
        cache = RunCache(tmp_path, max_mb=0.002)  # ~2 KB: forces eviction
        for i in range(12):
            cache.put(f"k{i:02d}", _stress_record(0, i))
        on_disk = list(tmp_path.glob("*.json"))
        assert 0 < len(on_disk) < 12  # evictions happened, cache not empty
        assert cache.evictions == 12 - len(on_disk)
        assert cache.stats()["bytes"] <= cache.max_bytes

    def test_leftover_index_files_are_ignored(self, tmp_path):
        """An ``index.db`` written by an older version is not a record."""
        for name in ("index.db", "index.db-wal", "index.db-shm"):
            (tmp_path / name).write_bytes(b"not a record" * 8)
        cache = RunCache(tmp_path)
        cache.put("k", _stress_record(0, 1))
        assert cache.get("k").metrics["fps"] == 1.0
        assert cache.stats()["entries"] == len(cache) == 1
        assert cache.clear() == 1
        assert (tmp_path / "index.db").exists()

    def test_read_paths_create_nothing(self, tmp_path):
        root = tmp_path / "absent"
        cache = RunCache(root)
        assert cache.get("k") is None
        assert len(cache) == 0 and cache.clear() == 0
        stats = cache.stats()
        assert (stats["entries"], stats["bytes"], stats["misses"]) == (0, 0, 1)
        assert not root.exists()

    def test_unbounded_puts_and_hits_take_no_lock(self, tmp_path):
        """Single-record reads and writes are lock-free: only eviction and
        ``clear`` create the lock file."""
        cache = RunCache(tmp_path)
        for i in range(3):
            cache.put(f"k{i}", _stress_record(0, i))
            assert cache.get(f"k{i}") is not None
        assert not (tmp_path / ".lock").exists()
        assert cache.evictions == 0 and len(cache) == 3

    def test_failed_write_keeps_the_old_record_and_no_spool(self, tmp_path,
                                                            monkeypatch):
        cache = RunCache(tmp_path)
        cache.put("k", _stress_record(0, 1))

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_module.os, "replace", full_disk)
        with pytest.raises(OSError):
            cache.put("k", _stress_record(0, 2))
        monkeypatch.undo()
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.get("k").metrics["fps"] == 1.0

    def test_eviction_breaks_mtime_ties_by_name(self, tmp_path):
        cache = RunCache(tmp_path)
        for name in ("c", "a", "d", "b"):
            cache.put(name, _stress_record(0, 0))
        same = time.time() - 3600
        for path in tmp_path.glob("*.json"):
            os.utime(path, (same, same))
        size = cache.path_for("a").stat().st_size
        cache.max_bytes = int(2.5 * size)  # room for two of the four
        cache._evict_if_needed()
        assert sorted(path.stem for path in tmp_path.glob("*.json")) == ["c", "d"]
        assert cache.evictions == 2

    def test_lost_quarantine_race_is_a_silent_miss(self, tmp_path, monkeypatch):
        """Another process moved the corrupt record first: the miss and the
        quarantine are counted, and nothing is raised or warned."""
        monkeypatch.setattr(cache_module, "_warned_corrupt", False)
        cache = RunCache(tmp_path)
        cache.path_for("k").write_text("{ torn", encoding="utf-8")

        def already_moved(src, dst):
            raise FileNotFoundError(src)

        monkeypatch.setattr(cache_module.os, "replace", already_moved)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get("k") is None
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 1)
        assert cache_module._warned_corrupt is False

    def test_hit_on_a_record_evicted_after_its_read_is_served(self, tmp_path,
                                                             monkeypatch):
        cache = RunCache(tmp_path)
        cache.put("k", _stress_record(0, 5))

        def evicted(path, times=None):
            raise FileNotFoundError(path)

        monkeypatch.setattr(cache_module.os, "utime", evicted)
        record = cache.get("k")
        assert record.metrics["fps"] == 5.0
        assert record.cached and record.cache_key == "k"
        assert (cache.hits, cache.misses, cache.quarantined) == (1, 0, 0)


# --------------------------------------------------------------------- #
# 8-process concurrent cache stress: record files, LRU eviction, debris
# --------------------------------------------------------------------- #
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
