"""LSM-tree key-value store — the reproduction's RocksDB substitute.

Architecture (mirroring the log-structured merge design the paper's base
table, RocksDB, uses):

* writes are batches (:meth:`LSMStore.write_batch`; a ``put`` or
  ``delete`` is a one-record batch, as in RocksDB): each batch goes to the
  :class:`~repro.storage.wal.WriteAheadLog` first in one append (durable
  with one fsync when ``sync=True``, the paper's configuration), then
  into the memtable;
* when the memtable exceeds ``memtable_bytes`` it is *sealed* (an immutable
  memtable, still consulted by reads) and built into a level-0
  :class:`~repro.storage.sstable.SSTable`;
* when a level accumulates ``fanout`` tables, they are merged (size-tiered
  compaction) into one table at the next level, dropping shadowed versions
  and — at the bottom level, when no table outside the merge can hold an
  older version — tombstones;
* reads are batches too (:meth:`LSMStore.multi_get`; a ``get`` is a
  one-key batch) and consult memtable → sealed memtables (newest first) →
  L0 tables (newest first) → deeper levels, with bloom filters
  short-circuiting tables that cannot contain the key, and an LRU cache
  making hot keys memory-resident.

Maintenance modes (``LSMOptions.maintenance``):

* ``"inline"`` (default): the writer that trips the memtable threshold
  pays the SSTable build and any cascading level merges on its own thread
  — the classic, single-threaded behaviour;
* ``"background"``: the writer performs only the cheap **seal pivot**
  (swap memtables, rotate the WAL sidecar — no file builds) and hands the
  SSTable build and all compactions to an attached
  :class:`~repro.storage.maintenance.StorageMaintenanceDaemon`.  Bounded
  RocksDB-style backpressure (``l0_slowdown_trigger`` /
  ``l0_stop_trigger``) keeps L0 from growing without bound when writers
  outrun the daemon: they briefly sleep (slowdown) or park until the
  debt drains (stop), with the stall time counted in :class:`LSMStats`.

Concurrency: compactions are serialised **per level pair** (a merge holds
its source and target level locks), not store-wide — merges of disjoint
levels, and of different stores sharing one daemon, overlap.  Flush builds
are serialised by ``_flush_lock`` (installs must stay oldest-first so the
newest-wins read order is preserved).

Crash consistency: the manifest is replaced atomically; a seal rotates the
live WAL into a ``wal.log.imm-N`` sidecar (kept until its SSTable is
installed, replayed oldest-first before the live WAL on open) so the
expensive SSTable build can run outside the store lock — and, in
background mode, on another thread — without a crash window; SSTable
creation and manifest replacement both fsync the directory entry, so
freshly flushed files (not just their contents) survive a crash.  A crash
mid-build leaves a sealed sidecar (replayed) and possibly an orphan
``.sst`` (collected by the manifest's garbage sweep on open).
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from heapq import merge as heap_merge
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from ..analysis import lockranks
from ..analysis.lockcheck import make_condition, make_rlock
from ..errors import StorageError
from .cache import LRUCache
from .kvstore import KVStore
from .manifest import Manifest
from .memtable import TOMBSTONE, MemTable, Tombstone
from .sstable import SSTable, SSTableWriter
from .wal import KIND_DELETE, KIND_PUT, WriteAheadLog, decode_kv, encode_kv, fsync_dir

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .maintenance import StorageMaintenanceDaemon

_WAL_NAME = "wal.log"

MAINTENANCE_INLINE = "inline"
MAINTENANCE_BACKGROUND = "background"


@dataclass
class LSMOptions:
    """Tuning knobs, defaulted to match the paper's RocksDB setup in spirit.

    The paper keeps RocksDB defaults "and only set the sync option to true
    to guarantee failure atomicity" — hence ``sync=True`` here.
    """

    sync: bool = True
    memtable_bytes: int = 4 * 1024 * 1024
    fanout: int = 4
    max_levels: int = 6
    index_interval: int = 16
    bloom_bits_per_key: int = 10
    cache_capacity: int = 65536
    auto_compact: bool = True
    #: ``"inline"`` — the tripping writer pays flush + compaction;
    #: ``"background"`` — writers only seal, builds/merges run on an
    #: attached :class:`~repro.storage.maintenance.StorageMaintenanceDaemon`
    #: (falls back to inline until one is attached).
    maintenance: str = MAINTENANCE_INLINE
    #: Background-mode backpressure (RocksDB ``level0_slowdown_writes_trigger``
    #: in spirit): once L0 debt (sealed memtables + L0 tables) reaches this,
    #: each write sleeps ``slowdown_sleep`` so the daemon can catch up.
    l0_slowdown_trigger: int = 8
    #: Hard trigger (RocksDB ``level0_stop_writes_trigger``): writes park
    #: until the debt drops below it — bounded by ``stall_timeout`` so a
    #: dead daemon degrades to unthrottled writes instead of a hang.
    l0_stop_trigger: int = 16
    slowdown_sleep: float = 0.001
    stall_timeout: float = 10.0


@dataclass
class LSMStats:
    """Operational counters for benchmarks and tests."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    flushes: int = 0
    compactions: int = 0
    bloom_skips: int = 0
    sstable_reads: int = 0
    #: L0-backpressure events: brief sleeps (slowdown) and hard parks
    #: (stop), with the total wall-clock time writers spent stalled.
    stall_slowdowns: int = 0
    stall_stops: int = 0
    stall_seconds: float = 0.0
    extra: dict[str, int] = field(default_factory=dict)


class LSMStore(KVStore):
    """Durable ordered key-value store with WAL + memtable + SSTables."""

    def __init__(self, directory: str | os.PathLike[str], options: LSMOptions | None = None) -> None:
        self.directory = Path(directory)
        self.options = options or LSMOptions()
        if self.options.maintenance not in (MAINTENANCE_INLINE, MAINTENANCE_BACKGROUND):
            raise ValueError(
                f"maintenance must be 'inline' or 'background': "
                f"{self.options.maintenance!r}"
            )
        self.stats = LSMStats()
        self._lock = make_rlock(lockranks.LSM_STORE, name="lsm-store")
        #: Serialises manifest *file* writes: installs snapshot the payload
        #: under ``_lock`` but pay the two fsyncs and the rename outside it
        #: (acquired before ``_lock``, so saves land in install order).
        self._manifest_lock = make_rlock(lockranks.LSM_MANIFEST, name="lsm-manifest")
        #: Serialises SSTable builders (flush drains and the background
        #: daemon's build jobs) so installs stay oldest-seal-first; always
        #: acquired *before* ``_lock``.  The seal pivot itself only needs
        #: ``_lock`` — that is what keeps it off the writer's critical
        #: path in background mode.
        self._flush_lock = make_rlock(lockranks.LSM_FLUSH, name="lsm-flush")
        #: Per-level compaction locks: a merge of ``level -> target`` holds
        #: both (ascending order, so no cycles).  Merges of disjoint level
        #: pairs — and the bottom-level tombstone decision, which needs the
        #: target level frozen — proceed concurrently; the old store-wide
        #: ``_compact_lock`` serialised every compactor in the store.
        self._level_locks = [
            make_rlock(lockranks.LSM_LEVEL, index=i, name=f"lsm-level[{i}]")
            for i in range(self.options.max_levels)
        ]
        #: Writers parked by the L0 stop trigger wait here; flush installs
        #: and compactions of L0 notify it.
        self._stall_cond = make_condition(lockranks.LSM_STALL, name="lsm-stall")
        self._maintenance: StorageMaintenanceDaemon | None = None
        #: Set while a shard migration suspends this store's maintenance:
        #: backpressure returns immediately (nothing would drain the debt).
        self._maintenance_paused = False
        self._closed = False

        self._manifest = Manifest(self.directory)
        #: Every listed table's descriptor belongs to this store: a merge
        #: closes its inputs after the install, ``close`` the rest.
        self._tables: dict[int, list[SSTable]] = {}
        try:
            for level, name in self._manifest.tables:
                table = SSTable(self._manifest.table_path(name))
                self._tables.setdefault(level, []).append(table)
            self._manifest.collect_garbage()

            self._memtable = MemTable()  #: guarded_by(_lock)
            #: Sealed memtables of in-flight flush builds, oldest first: still
            #: consulted by reads (between the live memtable and the SSTables)
            #: until their SSTable is installed.  Each entry carries the seal
            #: counter of its ``wal.log.imm-N`` sidecar.
            self._immutables: list[tuple[int, MemTable]] = []
            self._cache = LRUCache(self.options.cache_capacity)

            # Crash leftovers first (a flush sealed these WALs but died before
            # installing the SSTable), oldest first, then the live WAL — the
            # same newest-wins order the writers produced.
            self._imm_counter = 0
            for counter, path in self._scan_imm_wals():
                self._replay_wal(path)
                self._imm_counter = max(self._imm_counter, counter)
            wal_path = self.directory / _WAL_NAME
            self._replay_wal(wal_path)
            self._wal = WriteAheadLog(wal_path, sync=self.options.sync)
        except BaseException:
            # Nothing else can reach a store that failed to open.
            self._close_tables()
            raise

    # ------------------------------------------------------------------ WAL

    def _replay_wal(self, wal_path: Path) -> None:
        """Re-apply the intact WAL prefix into the fresh memtable."""
        for kind, payload in WriteAheadLog.replay(wal_path):
            if kind == KIND_PUT:
                key, value = decode_kv(payload)
                self._memtable.put(key, value)
            elif kind == KIND_DELETE:
                self._memtable.delete(payload)

    # --------------------------------------------------------- maintenance

    def attach_maintenance(self, daemon: "StorageMaintenanceDaemon") -> None:
        """Hand this store's flush builds and compactions to ``daemon``.

        Only effective with ``options.maintenance="background"``; an
        inline store ignores the attachment (writers keep self-serving).
        """
        self._maintenance = daemon

    @property
    def _background(self) -> bool:
        return (
            self._maintenance is not None
            and self.options.maintenance == MAINTENANCE_BACKGROUND
        )

    def set_maintenance_paused(self, paused: bool) -> None:
        """Suspend/resume backpressure (shard migrations pause maintenance:
        parking writers then could only time out, like the checkpoint
        daemon's throttle on a migrating shard)."""
        self._maintenance_paused = paused
        if not paused:
            self._notify_stall_waiters()

    def _l0_debt(self) -> int:
        """Sealed memtables + L0 tables — the write-stall metric.

        Read without ``_lock`` on purpose: it is a backpressure heuristic
        consulted inside the stall wait loop, and taking the store lock
        there would deadlock against the installer that holds it while
        draining the debt.
        """
        tables = self._tables.get(0)
        return len(self._immutables) + (len(tables) if tables else 0)

    def _notify_stall_waiters(self) -> None:
        with self._stall_cond:
            self._stall_cond.notify_all()

    def _backpressure(self) -> None:
        """RocksDB-style bounded write stalls (background mode only —
        inline writers drain their own debt, so stalling them is
        meaningless).  Never raises; a wedged daemon degrades to
        unthrottled writes after ``stall_timeout``."""
        if not self._background or self._maintenance_paused:
            return
        opts = self.options
        debt = self._l0_debt()
        if opts.l0_stop_trigger > 0 and debt >= opts.l0_stop_trigger:
            self.stats.stall_stops += 1
            self._kick_maintenance()
            start = time.monotonic()
            deadline = start + opts.stall_timeout
            with self._stall_cond:
                while (
                    not self._closed
                    and not self._maintenance_paused
                    and self._l0_debt() >= opts.l0_stop_trigger
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._stall_cond.wait(min(remaining, 0.05))
            self.stats.stall_seconds += time.monotonic() - start
        elif opts.l0_slowdown_trigger > 0 and debt >= opts.l0_slowdown_trigger:
            self.stats.stall_slowdowns += 1
            self._kick_maintenance()
            time.sleep(opts.slowdown_sleep)
            self.stats.stall_seconds += opts.slowdown_sleep

    def _kick_maintenance(self) -> None:
        daemon = self._maintenance
        if daemon is None:
            return
        if self._immutables:
            daemon.request_flush(self)
        daemon.request_compaction(self)

    def flush_debt(self) -> int:
        """Sealed memtables awaiting their SSTable build (daemon metric)."""
        return len(self._immutables)

    def compaction_debt(self) -> list[tuple[int, float]]:
        """``(level, score)`` for every level at/over its fanout trigger.

        The score the maintenance scheduler ranks merges by: table count
        plus bytes (normalised by the memtable budget so one extra sealed
        memtable's worth of data ≈ one table), with L0 weighted double —
        L0 debt is what stalls writers.
        """
        unit = max(1, self.options.memtable_bytes)
        out: list[tuple[int, float]] = []
        with self._lock:
            for level in range(self.options.max_levels):
                tables = self._tables.get(level, [])
                if len(tables) < self.options.fanout:
                    continue
                score = len(tables) + sum(t.size_bytes() for t in tables) / unit
                if level == 0:
                    score *= 2.0
                out.append((level, score))
        return out

    # ------------------------------------------------------------ mutations

    def write_batch(self, puts: list[tuple[bytes, bytes]], deletes: list[bytes]) -> None:
        """Apply a batch atomically w.r.t. crash recovery.

        Every record goes to the WAL in one :meth:`WriteAheadLog.append_many`
        call — one write and, with ``sync`` on, one fsync for the batch —
        so a crash either replays the whole batch prefix or none of its
        tail; and since the transactional layer only marks a transaction
        committed *after* this returns, partial batches are invisible.
        A single :meth:`put` or :meth:`delete` is a one-record batch.
        """
        self._ensure_open()
        records = [(KIND_PUT, encode_kv(key, value)) for key, value in puts]
        records += [(KIND_DELETE, key) for key in deletes]
        with self._lock:
            # The store lock keeps WAL order equal to memtable order, so a
            # synced batch pays its one fsync under it.
            self._wal.append_many(records)  # reprolint: allow[RL002] reason=WAL order must equal memtable order
            for key, value in puts:
                self._memtable.put(key, value)
                self._cache.put(key, value)
            for key in deletes:
                self._memtable.delete(key)
                # A delete *is* a confirmed absence: negative-cache it
                # instead of just evicting, so post-delete reads stay hits.
                self._cache.put(key, _ABSENT)
            self.stats.puts += len(puts)
            self.stats.deletes += len(deletes)
        # Outside the store lock: an inline flush acquires _flush_lock
        # before _lock, and triggering it while holding _lock would invert
        # that order.
        self._maybe_flush()
        self._backpressure()

    # ---------------------------------------------------------------- reads

    def _bump(self, counter: str) -> None:
        extra = self.stats.extra
        extra[counter] = extra.get(counter, 0) + 1

    def multi_get(self, keys: list[bytes]) -> list[bytes | None]:
        """Batched point lookup (a single :meth:`get` is a one-key batch).

        Keys the cache answers never take the store lock; a cached
        absence (a tombstone or full miss confirmed earlier that nothing
        has written since) counts a ``negative_hits``.  The rest share one
        store-lock acquisition, and each walks memtable → sealed memtables
        (newest first) → every level's tables (newest first within a
        level) until one holds it.  Each (key, table) pair costs one bloom
        probe (a miss counts a ``bloom_skips``); a pass costs one
        :meth:`SSTable.get` — one ``pread`` of the single block that can
        hold the key, on the descriptor the table keeps open.  Every
        resolved key is cached, and a full miss is cached as an absence
        (``negative_inserts``).  Results are aligned with ``keys``.
        """
        self._ensure_open()
        stats = self.stats
        stats.gets += len(keys)
        cache = self._cache
        results: list[bytes | None] = [None] * len(keys)
        pending: list[int] = []
        for pos, key in enumerate(keys):
            cached = cache.get(key, _MISS)
            if cached is _MISS:
                pending.append(pos)
            elif cached is _ABSENT:
                self._bump("negative_hits")
            else:
                results[pos] = cached
        if not pending:
            return results
        with self._lock:
            self._ensure_open()
            # The probe order below the memtables: level by level, newest
            # table first within a level.
            tables = [
                table
                for level in sorted(self._tables)
                for table in reversed(self._tables[level])
            ]
            for pos in pending:
                key = keys[pos]
                value, found = self._memtable.get(key)
                if not found:
                    # Sealed memtables: newer than every SSTable, older
                    # than the live memtable — newest seal first.
                    for _counter, sealed in reversed(self._immutables):
                        value, found = sealed.get(key)
                        if found:
                            break
                    else:
                        for table in tables:
                            if not table.might_contain(key):
                                stats.bloom_skips += 1
                                continue
                            stats.sstable_reads += 1
                            value, found = table.get(key)
                            if found:
                                break
                if found:
                    cache.put(key, _ABSENT if value is None else value)
                    results[pos] = value
                else:
                    # Full miss (every bloom filter said no, or every probe
                    # came back empty): remember the absence so the next
                    # read of the key is one cache hit, not the same walk.
                    cache.put(key, _ABSENT)
                    self._bump("negative_inserts")
        return results

    def scan(
        self, low: bytes | None = None, high: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Merged, shadow-resolved range scan across memtable and all runs."""
        with self._lock:
            self._ensure_open()
            sources: list[list[tuple[bytes, bytes | Tombstone | None]]] = [
                list(self._memtable.range(low, high))
            ]
            for _counter, sealed in reversed(self._immutables):
                sources.append(list(sealed.range(low, high)))
            for level in sorted(self._tables):
                for table in reversed(self._tables[level]):
                    sources.append(list(table.range(low, high)))
        # Source 0 is newest; tag each record with its source rank so the
        # newest version of a key wins the merge.
        tagged = [
            [(key, rank, value) for key, value in source]
            for rank, source in enumerate(sources)
        ]
        last_key: bytes | None = None
        for key, _rank, value in heap_merge(*tagged):
            if key == last_key:
                continue
            last_key = key
            if value is TOMBSTONE or value is None:
                continue
            yield key, value

    def __len__(self) -> int:
        """Approximate live-key count, O(#runs) instead of a full merged
        scan: live memtable counts exclude shadowed/tombstoned entries,
        SSTable record counts still include cross-run duplicates and
        tombstones.  Exact answers via :meth:`exact_len`."""
        with self._lock:
            n = self._memtable.live_count()
            for _counter, sealed in self._immutables:
                n += sealed.live_count()
            for tables in self._tables.values():
                for table in tables:
                    n += len(table)
        return max(0, n)

    def exact_len(self) -> int:
        """Exact live-key count — materialises a full merged scan (O(n));
        the old ``len()`` behaviour, now behind an explicit method."""
        return sum(1 for _ in self.scan())

    # ------------------------------------------------------------- flushing

    def _maybe_flush(self) -> None:
        if self._memtable.approximate_bytes() < self.options.memtable_bytes:
            return
        if self._background:
            # Cheap seal pivot only; the build runs on the daemon.
            if self._seal():
                self._maintenance.request_flush(self)
        else:
            self.flush()

    def _imm_wal_path(self, counter: int) -> Path:
        return self.directory / f"{_WAL_NAME}.imm-{counter:08d}"

    def _scan_imm_wals(self) -> list[tuple[int, Path]]:
        """Sealed-WAL files left on disk, oldest first (crash leftovers)."""
        found: list[tuple[int, Path]] = []
        for path in self.directory.glob(f"{_WAL_NAME}.imm-*"):
            try:
                counter = int(path.name.rsplit("-", 1)[1])
            except ValueError:  # pragma: no cover - foreign file
                continue
            found.append((counter, path))
        return sorted(found)

    def _seal(self) -> bool:
        """The seal pivot: live memtable -> immutable, WAL -> sidecar.

        Under the store lock only — no file builds, so the writer that
        trips the threshold pays a rename + WAL reopen, not an SSTable
        write.  Returns ``False`` on an empty memtable.  Crash safety: the
        sidecar holds every sealed record until :meth:`_build_oldest`
        covers it with an installed SSTable; recovery replays sidecars
        oldest-first.
        """
        with self._lock:
            if self._memtable.is_empty():
                return False
            sealed = self._memtable
            self._memtable = MemTable()
            self._imm_counter += 1
            counter = self._imm_counter
            self._wal.close()
            os.replace(self.directory / _WAL_NAME, self._imm_wal_path(counter))
            fsync_dir(self.directory)
            self._wal = WriteAheadLog(
                self.directory / _WAL_NAME, sync=self.options.sync
            )
            self._immutables.append((counter, sealed))
        return True

    def _build_oldest(self) -> bool:
        """Build + install the oldest sealed memtable's SSTable.

        Caller holds ``_flush_lock`` (installs must stay oldest-first so
        newer seals keep shadowing older ones in the L0 read order).  The
        expensive part — file write, bloom filters, fsyncs — runs with
        writers already appending to the fresh memtable.  On a failed
        build (e.g. transient ENOSPC) the sealed memtable and its WAL
        sidecar simply stay in place — reads still consult the seal, a
        later flush retries the build, and a crash replays the sidecar —
        and the orphan ``.sst`` is dropped.  Returns ``False`` when no
        seal is pending.
        """
        with self._lock:
            if not self._immutables:
                return False
            seal_counter, sealed = self._immutables[0]
            entries = sealed.items()
            name = f"{self._manifest.allocate_file_number():08d}.sst"
        try:
            writer = SSTableWriter(
                self._manifest.table_path(name),
                index_interval=self.options.index_interval,
                bits_per_key=self.options.bloom_bits_per_key,
            )
            table = writer.write(
                (key, None if value is TOMBSTONE else value)
                for key, value in entries
            )
        except BaseException:
            self._manifest.table_path(name).unlink(missing_ok=True)
            raise
        # The manifest lock (outside ``_lock``) serialises the *file* write
        # so it can run after the store lock is released: readers/writers
        # proceed during the manifest's two fsyncs + rename, and the crash
        # window is unchanged — the WAL sidecar (unlinked below, after the
        # save) still replays the seal if the manifest never lands.
        with self._manifest_lock:
            with self._lock:
                self._tables.setdefault(0, []).append(table)
                self._manifest.register(0, name)
                manifest_payload = self._manifest.payload()
                self.stats.flushes += 1
                self._immutables.pop(0)
            self._manifest.write_payload(manifest_payload)
        # One seal left L0, but its table arrived there: only the *install*
        # frees backpressure once compaction also drains L0 — still notify,
        # the stop-trigger loop re-checks the debt.
        self._notify_stall_waiters()
        for counter, path in self._scan_imm_wals():
            # Everything sealed up to this seal is covered by installed
            # SSTables (builds are strictly oldest-first).
            if counter <= seal_counter:
                path.unlink(missing_ok=True)
        return True

    def flush(self) -> None:
        """Persist all memtable data as L0 SSTables (synchronous).

        Seals the live memtable and drains every pending seal — including
        ones a background daemon has not built yet — so when this returns,
        everything written so far is in fsynced SSTables and the live WAL
        is empty.  Checkpoints and ``close`` rely on exactly that.
        """
        with self._flush_lock:
            self._seal()
            while self._build_oldest():
                pass
        if self.options.auto_compact and not self._background:
            # Outside the store lock: the compaction merge would otherwise
            # run under it (RLock re-entry) and stall every concurrent
            # reader/writer for the whole level merge.  Background mode
            # leaves the cascade to the daemon's scheduler.
            self._compact_if_needed()
        elif self._background:
            self._kick_maintenance()

    def maintenance_flush(self) -> int:
        """Daemon entry point: build the seals pending at the call; returns
        installs.

        Seals that arrive during the drain are left to the next job: their
        writers already re-requested a flush, and a drain that chased them
        would hold a daemon worker on this store for as long as its
        writers keep sealing, starving other stores' flushes and every
        merge.  Never raises on a closed store (the daemon may hold a
        stale reference across ``close``); build failures propagate to the
        daemon's error accounting.
        """
        built = 0
        with self._flush_lock:
            if self._closed:
                return 0
            pending = len(self._immutables)
            while built < pending and self._build_oldest():
                built += 1
        return built

    # ----------------------------------------------------------- compaction

    def _compact_if_needed(self) -> None:
        for level in range(self.options.max_levels):
            with self._lock:
                crowded = len(self._tables.get(level, [])) >= self.options.fanout
            if crowded:
                self.compact_level(level)

    def compact_level(self, level: int) -> None:
        """Size-tiered merge of every table at ``level`` into ``level + 1``.

        The store lock is held only for the two pivots — the same shape as
        :meth:`flush` — so a level merge never stalls the put/get path of
        a hot shard for its whole duration:

        1. **snapshot** (under the lock): the level's current tables
           become the merge inputs and the output file number is drawn;
        2. **merge + build** (lock released): the k-way merge and the new
           SSTable's write/fsyncs run against the *immutable* input tables
           while readers and writers proceed — new L0 tables flushed
           meanwhile are simply not part of this merge;
        3. **install** (under the lock): inputs are swapped for the merged
           table in the level lists and the manifest, and the input files
           are unlinked.

        Serialisation is **per level pair**: the merge holds the source
        and target level locks (ascending order — no cycles), so merges
        of disjoint levels in one store, and any merges across different
        stores, run concurrently; the old store-wide ``_compact_lock``
        serialised all of them.  The level locks are exactly what the
        bottom-level tombstone decision needs: dropping a tombstone is
        only safe while no table *outside the merge inputs* can hold an
        older version of the key, i.e. when the target is the bottom
        level and every resident there is a merge input — and with the
        target lock held, no concurrent merge can install an older run
        there mid-build (flushes only add at level 0, where the snapshot
        already excludes them).  Crash safety is unchanged: the merged
        table is fsynced before the manifest swap, and an orphan from a
        crash mid-build is collected on the next open.
        """
        target = min(level + 1, self.options.max_levels - 1)
        locks = [self._level_locks[level]]
        if target != level:
            locks.append(self._level_locks[target])
        try:
            for lk in locks:
                lk.acquire()
            with self._lock:
                if self._closed:
                    return
                inputs = list(self._tables.get(level, []))
                if not inputs:
                    return
                # Bottom-level tombstone decision (see the docstring): the
                # target must be the last level AND hold no table outside
                # the inputs — a resident non-input run could hold an
                # older value the tombstone still shadows.
                is_bottom = target == self.options.max_levels - 1 and (
                    target == level or not self._tables.get(target)
                )
                name = f"{self._manifest.allocate_file_number():08d}.sst"

            # Build outside the store lock: inputs are immutable SSTables.
            # The merge streams from the inputs into the writer, so it
            # holds one block per input, not the level's records.
            merged = self._merge_tables(inputs, drop_tombstones=is_bottom)
            first = next(merged, None)
            removed = [t.path.name for t in inputs]
            added: list[tuple[int, str]] = []
            new_table: SSTable | None = None
            if first is not None:
                writer = SSTableWriter(
                    self._manifest.table_path(name),
                    index_interval=self.options.index_interval,
                    bits_per_key=self.options.bloom_bits_per_key,
                )
                try:
                    new_table = writer.write(chain((first,), merged))
                except BaseException:
                    # Failed build (e.g. transient ENOSPC): the inputs are
                    # untouched and still installed — drop the orphan.
                    self._manifest.table_path(name).unlink(missing_ok=True)
                    raise
                added.append((target, name))

            removed_set = set(removed)
            # Same shape as the flush install: in-memory swap under the
            # store lock, manifest file write and input unlinks outside it
            # (serialised by the manifest lock so saves stay in install
            # order).  Crash-safe: inputs are only unlinked after the new
            # manifest — which no longer names them — is durable.
            with self._manifest_lock:
                with self._lock:
                    if self._closed:
                        # The store closed while the merge was building:
                        # the manifest must not change post-close; drop
                        # the output (its inputs are still listed, so
                        # ``close`` releases them).
                        if new_table is not None:
                            new_table.close()
                        self._manifest.table_path(name).unlink(missing_ok=True)
                        return
                    self._tables[level] = [
                        t
                        for t in self._tables.get(level, [])
                        if t.path.name not in removed_set
                    ]
                    if new_table is not None:
                        self._tables.setdefault(target, []).append(new_table)
                    self._manifest.replace(removed, added)
                    manifest_payload = self._manifest.payload()
                    self.stats.compactions += 1
                # Every other reader takes the store lock and the install
                # has unlisted the inputs; the level locks keep other
                # merges off them — no ``pread`` can reach them any more.
                for table in inputs:
                    table.close()
                self._manifest.write_payload(manifest_payload)
                for rname in removed:
                    self._manifest.table_path(rname).unlink(missing_ok=True)
        finally:
            for lk in reversed(locks):
                lk.release()
        if level == 0:
            self._notify_stall_waiters()

    @staticmethod
    def _merge_tables(
        tables: list[SSTable], drop_tombstones: bool
    ) -> Iterator[tuple[bytes, bytes | None]]:
        """Lazy k-way merge; for duplicate keys the newest (highest-rank)
        wins."""

        def tagged(rank: int, table: SSTable) -> Iterator[tuple[bytes, int, bytes | None]]:
            # Higher rank = newer table; invert so the merge sees newest first.
            for key, value in table.items():
                yield key, -rank, value

        last_key: bytes | None = None
        for key, _neg_rank, value in heap_merge(
            *(tagged(rank, table) for rank, table in enumerate(tables))
        ):
            if key == last_key:
                continue
            last_key = key
            if value is None and drop_tombstones:
                continue
            yield key, value

    # -------------------------------------------------------------- control

    def compact_all(self) -> None:
        """Fully compact every level (maintenance / test helper)."""
        for level in range(self.options.max_levels - 1):
            self.compact_level(level)

    def table_count(self) -> int:
        with self._lock:
            return sum(len(tables) for tables in self._tables.values())

    def level_shape(self) -> dict[int, int]:
        """``{level: table count}`` for assertions about compaction."""
        with self._lock:
            return {level: len(tables) for level, tables in self._tables.items() if tables}

    def cache_hit_ratio(self) -> float:
        return self._cache.hit_ratio()

    def set_cache_capacity(self, capacity: int) -> None:
        """Re-budget the value cache (fleet-wide cache budgeting resizes
        every store's slice when tables or shards are added).

        The options object may be shared by every store of a fleet (the
        sharded manager passes one ``LSMOptions`` to all of them), so the
        store takes a private copy before recording its slice — budgets
        are per-store, e.g. a retired husk shrinks to a floor of one
        entry while the survivors grow.
        """
        self.options = replace(self.options, cache_capacity=capacity)
        self._cache.resize(capacity)

    def close(self) -> None:
        # _flush_lock first (the flush below re-enters it): taking _lock
        # around the whole sequence would invert flush's lock order
        # against a concurrent flusher — and a background build job holds
        # _flush_lock for its whole build, so close also naturally waits
        # out an in-flight build before draining the rest itself.
        with self._flush_lock:
            if self._closed:
                return
            self.flush()
            with self._lock:
                self._wal.close()
                self._closed = True
            # A merge still building holds its level locks: once every
            # level lock is ours no merge reads a table, and readers check
            # ``_closed`` under the store lock before they probe one.
            for lk in self._level_locks:
                lk.acquire()
            try:
                with self._lock:
                    self._close_tables()
            finally:
                for lk in reversed(self._level_locks):
                    lk.release()
        self._notify_stall_waiters()

    def _close_tables(self) -> None:
        """Release every listed table's descriptor (they stay listed, so
        the counting accessors keep working on a closed store)."""
        for tables in self._tables.values():
            for table in tables:
                table.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError(f"LSM store at {self.directory} is closed")

    def __enter__(self) -> "LSMStore":
        """``with LSMStore(dir) as store:`` — closes (and therefore flushes
        the memtable to a durable SSTable) on exit, even on error paths."""
        self._ensure_open()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


_MISS = object()
#: Cached *absence*: a key confirmed missing (or deleted) is remembered in
#: the LRU under this sentinel, so repeated point reads of absent keys —
#: the hot case for scatter-gather scans probing every shard — answer from
#: the cache instead of re-walking memtable, bloom filters and SSTables.
#: Any later put of the key overwrites the sentinel through the normal
#: write-through path.
_ABSENT = object()
