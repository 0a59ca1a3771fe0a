"""Deterministic on-disk memoisation of engine evaluations.

A run is identified by the SHA-256 of the canonical JSON encoding of

    (engine fingerprint, chain configuration, workload fingerprint, batch)

so the key is stable across processes and sessions: the same design point
evaluated by the same engine on the same workload always maps to the same
file, and a cache hit returns the stored :class:`~repro.engine.base.RunRecord`
without evaluating anything.  Records are stored one-JSON-file-per-key with
atomic writes, which makes the cache safe when several processes share one
root (two processes racing on the same key simply write identical bytes).
Every record is written by :func:`canonical_json`, the same compact,
sorted encoder that builds the keys; a grid-chunk record stores each column
as base64 of its little-endian bytes
(:meth:`~repro.analysis.batch.BatchSweepResult.to_json_dict`), so a hit
returns the evaluated bits without a decimal round trip.  Records written
under an older :data:`CACHE_SCHEMA` are never looked up again; ``repro
cache clear`` removes them.

The cache is also safe as a **shared cross-process store** (the
evaluation-as-a-service prerequisite):

* single-record reads and writes are lock-free — ``os.replace`` makes a
  record appear atomically, so readers see either nothing or whole records,
  never torn bytes;
* multi-file read-modify cycles (LRU eviction, ``clear``) serialise on an
  advisory ``fcntl`` lock (``<root>/.lock``), so 8+ concurrent processes
  evicting against one root cannot double-delete or miscount;
* a corrupt record (torn by a crashed writer on a non-atomic filesystem,
  or mangled by anything else) is **quarantined** — renamed to
  ``*.corrupt`` and warned about once per process — instead of silently
  re-missing on every future call;
* ``*.tmp`` spool files orphaned by crashed writers are counted by
  :meth:`RunCache.stats`, reaped by :meth:`RunCache.clear`, and
  age-reaped opportunistically during eviction;
* with ``max_mb`` set (CLI ``--cache-max-mb`` / ``$REPRO_CACHE_MAX_MB``),
  the store is size-bounded: least-recently-*used* records (hits bump
  mtime) are evicted under the lock until the bound holds;
* a WAL-mode **sqlite index** (:mod:`repro.engine.cache_index`) beside the
  records turns the aggregate operations — entry/byte totals, the LRU
  victim scan, recency bumps — into single indexed queries instead of
  directory walks; payloads stay content-addressed JSON files, any sqlite
  failure degrades back to the walk paths, and :meth:`RunCache.migrate`
  (idempotent, live-server-safe) indexes records written by older layouts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from repro.cnn.network import Network
from repro.core.config import ChainConfig
from repro.engine.base import Engine, RunRecord
from repro.engine.cache_index import CacheIndex, index_enabled
from repro.obs import metrics as obs_metrics

# process-wide observability mirrors of the per-instance counters below
# (bound once: repro.obs.metrics memoises by name and reset() zeroes in place)
_M_HITS = obs_metrics.counter("cache.hits")
_M_MISSES = obs_metrics.counter("cache.misses")
_M_QUARANTINED = obs_metrics.counter("cache.quarantined")
_M_EVICTIONS = obs_metrics.counter("cache.evictions")
_M_PUTS = obs_metrics.counter("cache.puts")
_M_LOCK_WAIT = obs_metrics.histogram("cache.lock_wait_s")

try:  # POSIX advisory locking; other platforms fall back to lock-free mode
    import fcntl
except ImportError:  # pragma: no cover - platform dependent
    fcntl = None

#: environment variable overriding the default cache location
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: environment variable providing a default size bound (in MB) for caches
#: constructed without an explicit ``max_mb``
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

#: cache-key schema generation — bump whenever model code changes in a way
#: that should invalidate previously cached results (keys also embed the
#: package version, so releases invalidate automatically).  2: functional
#: engines and ``repro map --verify`` simulate fixed-point tensors, so their
#: ``max_abs_error`` is exactly 0.  3: records are compact canonical JSON and
#: grid-chunk columns are base64 little-endian bytes, not decimal lists.
CACHE_SCHEMA = 3

#: ``*.tmp`` spool files older than this are crash orphans (a healthy
#: mkstemp -> write -> replace cycle lives milliseconds); eviction reaps them
TMP_ORPHAN_SECONDS = 300.0

#: suffix quarantined (corrupt) records are renamed to
CORRUPT_SUFFIX = ".corrupt"

#: one corrupt-entry warning per process, not one per record
_warned_corrupt = False


def default_cache_dir() -> Path:
    """Default cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-chain-nn``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-chain-nn"


def canonical_json(data: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=_encode)


def _encode(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot canonicalise {type(obj).__name__}")


def config_fingerprint(config: Optional[ChainConfig]) -> Dict[str, Any]:
    """Content identity of a chain configuration (``{}`` when unset)."""
    if config is None:
        return {}
    return dataclasses.asdict(config)


def workload_fingerprint(network: Network) -> Dict[str, Any]:
    """Content identity of a workload: name plus every conv-layer geometry."""
    return {
        "name": network.name,
        "conv_layers": [dataclasses.asdict(layer) for layer in network.conv_layers],
    }


def run_key(engine: Engine, network: Network, config: Optional[ChainConfig],
            batch: int) -> str:
    """Cache key of one evaluation (versioned so stale results die on upgrade)."""
    from repro import __version__

    payload = {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "engine": engine.fingerprint(),
        "config": config_fingerprint(config),
        "workload": workload_fingerprint(network),
        "batch": batch,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def grid_key(engine: Engine, network: Network, base: Optional[ChainConfig],
             grid) -> str:
    """Cache key of one columnar grid-chunk evaluation.

    The whole chunk (every axis column) enters the hash, so any change to the
    grid, the base configuration, the engine fingerprint, the workload or the
    schema/version yields a different key — the same invalidation story as
    :func:`run_key`, at chunk granularity.
    """
    from repro import __version__

    payload = {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "engine": engine.fingerprint(),
        "base": config_fingerprint(base),
        "workload": workload_fingerprint(network),
        "grid": grid.to_json_dict(),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _env_max_mb(environ: Optional[Dict[str, str]] = None) -> Optional[float]:
    """Size bound from ``$REPRO_CACHE_MAX_MB`` (``None`` when unset/invalid)."""
    raw = (environ if environ is not None else os.environ).get(CACHE_MAX_MB_ENV)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class RunCache:
    """One-file-per-record JSON cache, hardened for concurrent processes.

    Reads and writes of single records stay lock-free and atomic; corrupt
    records are quarantined to ``*.corrupt``; crash-orphaned ``*.tmp`` files
    are reaped; and an optional ``max_mb`` bound evicts least-recently-used
    records under an advisory file lock (see the module docstring).
    """

    def __init__(self, root: str | Path | None = None,
                 max_mb: Optional[float] = None,
                 use_index: Optional[bool] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        if max_mb is None:
            max_mb = _env_max_mb()
        if max_mb is not None and max_mb <= 0:
            raise ValueError(f"max_mb must be positive, got {max_mb}")
        self.max_bytes = int(max_mb * 1024 * 1024) if max_mb is not None else None
        if use_index is None:
            use_index = index_enabled()
        self._index: Optional[CacheIndex] = (
            CacheIndex(self.root) if use_index else None)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.evictions = 0

    @property
    def index(self) -> Optional[CacheIndex]:
        """The sqlite index handle (``None`` when disabled outright)."""
        return self._index

    # ------------------------------------------------------------------ #
    # path handling
    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        """File under which ``key`` is (or would be) stored."""
        return self.root / f"{key}.json"

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Advisory exclusive lock over multi-file read-modify cycles.

        Single-record operations never take this; only eviction and
        :meth:`clear` do, so concurrent processes cannot interleave their
        scan-and-delete cycles.  Platforms without ``fcntl`` degrade to
        lock-free (single-record atomicity still holds there).
        """
        if fcntl is None:
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with (self.root / ".lock").open("w") as handle:
            waited = time.perf_counter()
            fcntl.flock(handle, fcntl.LOCK_EX)
            _M_LOCK_WAIT.observe(time.perf_counter() - waited)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[RunRecord]:
        """Stored record for ``key`` or ``None``.

        A missing file is a plain miss.  A file that exists but does not
        decode into a :class:`RunRecord` is **quarantined**: renamed to
        ``<key>.json.corrupt`` (so the bytes survive for inspection and the
        slot becomes writable again) with one ``RuntimeWarning`` per
        process.  Hits bump the record's mtime so LRU eviction has a
        recency signal.
        """
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
            record = RunRecord.from_json_dict(data)
        except OSError:
            self.misses += 1
            _M_MISSES.inc()
            return None
        except (ValueError, KeyError, TypeError):
            self.misses += 1
            _M_MISSES.inc()
            self._quarantine(path)
            return None
        self.hits += 1
        _M_HITS.inc()
        try:
            os.utime(path)
        except OSError:
            pass  # concurrently evicted/cleared; the hit itself already served
        if self._index is not None and not self._index.touch(key, time.time()):
            # hit on a record the index never saw (legacy layout, or written
            # with the index disabled): self-heal by indexing it now
            try:
                stat = path.stat()
            except OSError:
                pass
            else:
                self._index.add(key, path.name, stat.st_size, stat.st_mtime,
                                record.engine)
        return record.with_cache_info(cache_key=key, cached=True)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt record aside and warn once per process."""
        global _warned_corrupt
        self.quarantined += 1
        _M_QUARANTINED.inc()
        if self._index is not None and path.suffix == ".json":
            self._index.remove(path.name[:-len(".json")])
        try:
            os.replace(path, path.with_name(path.name + CORRUPT_SUFFIX))
        except OSError:
            return  # another process quarantined (or evicted) it first
        if not _warned_corrupt:
            _warned_corrupt = True
            warnings.warn(
                f"quarantined corrupt cache entry {path.name} -> "
                f"{path.name}{CORRUPT_SUFFIX} under {self.root} "
                "(further corrupt entries are quarantined silently)",
                RuntimeWarning,
                stacklevel=3,
            )

    def put(self, key: str, record: RunRecord) -> None:
        """Atomically persist ``record`` under ``key`` (then enforce bounds)."""
        self.root.mkdir(parents=True, exist_ok=True)
        payload = canonical_json(record.to_json_dict())
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        _M_PUTS.inc()
        if self._index is not None:
            path = self.path_for(key)
            try:
                stat = path.stat()
            except OSError:
                pass  # concurrently evicted/cleared already
            else:
                self._index.add(key, path.name, stat.st_size, stat.st_mtime,
                                record.engine)
        if self.max_bytes is not None:
            self._evict_if_needed()

    def _evict_if_needed(self) -> None:
        """Delete least-recently-used records until the size bound holds.

        Runs entirely under the advisory lock: the scan, the deletions and
        the orphan reap are one critical section, so two bounded processes
        never race each other's view of the directory.  Records vanishing
        mid-scan (an unbounded third process clearing) are tolerated.
        """
        assert self.max_bytes is not None
        with self._locked():
            self._reap_orphans(min_age=TMP_ORPHAN_SECONDS)
            if self._evict_via_index():
                return
            entries = []
            total = 0
            for path in self.root.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
            if total <= self.max_bytes:
                return
            entries.sort(key=lambda item: (item[0], item[2].name))
            for _mtime, size, path in entries:
                if total <= self.max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                if self._index is not None:
                    self._index.remove(path.name[:-len(".json")])
                total -= size
                self.evictions += 1
                _M_EVICTIONS.inc()

    def _evict_via_index(self) -> bool:
        """Indexed eviction cycle; ``False`` falls back to the walk path.

        One ``sum(size)`` query replaces the directory ``stat`` walk and an
        indexed oldest-first cursor replaces the full sort, so a bounded
        put's overhead no longer grows with the record count.  A row whose
        file already vanished (deleted by an unindexed process) is dropped
        as stale rather than counted as an eviction.  Runs under the
        advisory lock held by :meth:`_evict_if_needed`.
        """
        if self._index is None:
            return False
        totals = self._index.totals()
        if totals is None:
            return False  # index degraded: caller walks the directory
        total = totals[1]
        if total <= self.max_bytes:
            return True
        for key, name, size, _mtime in self._index.lru():
            if total <= self.max_bytes:
                break
            try:
                (self.root / name).unlink()
            except FileNotFoundError:
                pass  # stale row: the bytes were already gone
            except OSError:
                continue
            else:
                self.evictions += 1
                _M_EVICTIONS.inc()
            self._index.remove(key)
            total -= size
        return self._index.available

    def _reap_orphans(self, min_age: float = 0.0) -> int:
        """Delete ``*.tmp`` spool files at least ``min_age`` seconds old."""
        removed = 0
        now = time.time()
        for path in self.root.glob("*.tmp"):
            try:
                if min_age > 0 and now - path.stat().st_mtime < min_age:
                    continue  # plausibly a live writer mid-spool
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def stats(self) -> Dict[str, Any]:
        """On-disk and in-process cache statistics.

        ``entries``/``bytes`` describe the live records; ``tmp_orphans`` and
        ``corrupt`` count crash debris and quarantined records still on
        disk; ``hits``/``misses``/``quarantined``/``evictions`` count this
        process's outcomes (the counters the sweep executor surfaces).
        The ``index`` block reports sqlite-index health: row count vs
        on-disk payload files, ``stale`` rows whose file vanished and
        ``unindexed`` files the index never saw (``repro cache migrate``
        reconciles both).
        """
        entries = 0
        size = 0
        tmp_orphans = 0
        corrupt = 0
        disk_keys = set()
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                entries += 1
                disk_keys.add(path.name[:-len(".json")])
            tmp_orphans = sum(1 for _ in self.root.glob("*.tmp"))
            corrupt = sum(1 for _ in self.root.glob(f"*{CORRUPT_SUFFIX}"))
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": size,
            "max_bytes": self.max_bytes,
            "tmp_orphans": tmp_orphans,
            "corrupt": corrupt,
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
            "evictions": self.evictions,
            "index": self._index_health(disk_keys),
        }

    def _index_health(self, disk_keys: set) -> Dict[str, Any]:
        """Index-vs-directory reconciliation report for :meth:`stats`."""
        if self._index is None:
            return {"enabled": False, "available": False}
        index_keys = self._index.keys()
        if index_keys is None:
            return {"enabled": True, "available": False}
        indexed = set(index_keys)
        return {
            "enabled": True,
            "available": True,
            "entries": len(indexed),
            "stale": len(indexed - disk_keys),
            "unindexed": len(disk_keys - indexed),
        }

    def quick_stats(self) -> Dict[str, Any]:
        """``entries``/``bytes`` without walking the directory.

        One indexed query when the index is live — the O(1) lookup path the
        serving layer polls — falling back to the :meth:`stats` walk when
        the index is disabled, degraded or not yet built.
        """
        if self._index is not None:
            totals = self._index.totals()
            if totals is not None:
                return {"entries": totals[0], "bytes": totals[1],
                        "indexed": True}
        stats = self.stats()
        return {"entries": stats["entries"], "bytes": stats["bytes"],
                "indexed": False}

    def migrate(self) -> Dict[str, Any]:
        """Reconcile the sqlite index with the on-disk records (idempotent).

        Indexes every payload file the index never saw (reading the engine
        name from the record body), refreshes rows whose size/mtime
        drifted, and prunes rows whose file vanished.  Runs under the
        advisory lock, so concurrent migrations and eviction cycles
        serialise — and it is safe against a **live server**: single-record
        reads/writes never take that lock, and a put racing the scan simply
        self-indexes, which the upsert tolerates.  Running it twice is a
        no-op.
        """
        if self._index is None:
            return {"enabled": False, "available": False, "entries": 0,
                    "added": 0, "refreshed": 0, "pruned": 0}
        with self._locked():
            disk: Dict[str, Any] = {}
            if self.root.is_dir():
                for path in self.root.glob("*.json"):
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    disk[path.name[:-len(".json")]] = (
                        path.name, stat.st_size, stat.st_mtime)
            existing = {key: (name, size, mtime)
                        for key, name, size, mtime in self._index.lru()}
            added = refreshed = pruned = 0
            for key, (name, size, mtime) in sorted(disk.items()):
                previous = existing.get(key)
                if previous is not None:
                    if previous[1] == size and previous[2] == mtime:
                        continue
                    self._index.add(key, name, size, mtime)
                    refreshed += 1
                    continue
                self._index.add(key, name, size, mtime,
                                self._record_engine(self.root / name))
                added += 1
            for key in sorted(existing.keys() - disk.keys()):
                self._index.remove(key)
                pruned += 1
            return {
                "enabled": True,
                "available": self._index.available,
                "entries": len(disk),
                "added": added,
                "refreshed": refreshed,
                "pruned": pruned,
            }

    @staticmethod
    def _record_engine(path: Path) -> str:
        """Engine name stored in a record file (``""`` when unreadable)."""
        try:
            with path.open("r", encoding="utf-8") as handle:
                return str(json.load(handle).get("engine", ""))
        except (OSError, ValueError):
            return ""

    def clear(self) -> int:
        """Delete every record, quarantined record and orphaned spool file.

        Returns the number of live records removed (debris is reaped but
        not counted, keeping the CLI's "cleared N entries" truthful).
        """
        removed = 0
        if self.root.is_dir():
            with self._locked():
                for path in self.root.glob("*.json"):
                    path.unlink(missing_ok=True)
                    removed += 1
                for path in self.root.glob(f"*{CORRUPT_SUFFIX}"):
                    path.unlink(missing_ok=True)
                self._reap_orphans()
                if self._index is not None:
                    self._index.clear()
        return removed
