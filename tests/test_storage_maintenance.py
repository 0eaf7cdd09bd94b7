"""Background storage maintenance: daemon scheduling, backpressure,
crash matrix, and the fleet-wide wiring.

What PR 7 moved off the commit path — memtable flush builds and level
compactions — tested at three layers:

* **LSMStore** — background mode seals cheaply and defers builds to an
  attached :class:`~repro.storage.maintenance.StorageMaintenanceDaemon`;
  bounded L0 backpressure (slowdown/stop triggers) keeps L0 from growing
  without bound; the per-level compaction locks keep the bottom-level
  tombstone decision safe when the bottom level is not empty;
* **crash matrix** — ``os._exit`` mid-background-flush and mid-merge: a
  reopen converges on the pre-crash data (WAL sidecars replay, manifest
  inputs stay installed) and the orphan ``.sst`` is collected;
* **ShardedTransactionManager** — the daemon wires through create_table /
  close / stats; migrations suspend and resume per-store maintenance; the
  fleet-wide ``cache_budget`` divides across every base table.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import ShardedTransactionManager
from repro.storage import (
    LSMOptions,
    LSMStore,
    StorageMaintenanceDaemon,
)

from helpers import run_crash_child, scan_all


def background_options(**overrides) -> LSMOptions:
    defaults = dict(
        sync=False,
        memtable_bytes=512,
        maintenance="background",
        l0_slowdown_trigger=6,
        l0_stop_trigger=12,
        slowdown_sleep=0.0005,
        stall_timeout=5.0,
    )
    defaults.update(overrides)
    return LSMOptions(**defaults)


# ------------------------------------------------------------ store + daemon


class TestBackgroundMode:
    def test_invalid_maintenance_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            LSMStore(tmp_path / "db", LSMOptions(maintenance="nope"))

    def test_unattached_background_store_falls_back_to_inline(self, tmp_path):
        """Background mode without a daemon must not accumulate seals
        forever — the writer self-serves like inline mode."""
        store = LSMStore(tmp_path / "db", background_options())
        for i in range(200):
            store.put(f"k{i:04d}".encode(), b"v" * 32)
        assert store.stats.flushes > 0
        assert store.flush_debt() == 0
        store.close()

    def test_daemon_builds_sealed_memtables(self, tmp_path):
        daemon = StorageMaintenanceDaemon(workers=2)
        store = LSMStore(tmp_path / "db", background_options())
        daemon.register(store)
        for i in range(300):
            store.put(f"k{i:04d}".encode(), b"v" * 32)
        assert daemon.wait_idle(timeout=10.0)
        # Every seal became an SSTable on the daemon, none inline beyond
        # what backpressure allowed, and all data is readable.
        assert store.flush_debt() == 0
        assert daemon.stats()["maintenance_flushes"] > 0
        assert store.get(b"k0000") == b"v" * 32
        assert store.get(b"k0299") == b"v" * 32
        store.close()
        assert daemon.close()

    def test_daemon_compacts_highest_debt_first(self, tmp_path):
        """Two stores, one with far more L0 debt: the scheduler's pick is
        the indebted one (observable through compaction_debt scoring)."""
        quiet = LSMStore(
            tmp_path / "quiet", background_options(auto_compact=False)
        )
        busy = LSMStore(
            tmp_path / "busy", background_options(auto_compact=False)
        )
        for store, rounds in ((quiet, 4), (busy, 12)):
            for r in range(rounds):
                for i in range(20):
                    store.put(f"k{r:02d}{i:02d}".encode(), b"v" * 32)
                store.flush()
        q = dict(quiet.compaction_debt())
        b = dict(busy.compaction_debt())
        assert b[0] > q[0]
        daemon = StorageMaintenanceDaemon(workers=2)
        for store in (quiet, busy):
            daemon.register(store)
            daemon.request_compaction(store)
        assert daemon.wait_idle(timeout=10.0)
        # both drained below the fanout trigger eventually
        assert busy.level_shape().get(0, 0) < busy.options.fanout
        assert quiet.level_shape().get(0, 0) < quiet.options.fanout
        quiet.close()
        busy.close()
        daemon.close()

    def test_synchronous_flush_drains_pending_seals(self, tmp_path):
        """flush() must cover seals the daemon has not built yet —
        checkpoints and close depend on it."""
        daemon = StorageMaintenanceDaemon(workers=1)
        store = LSMStore(tmp_path / "db", background_options())
        daemon.register(store)
        # suspended: writers still seal, but the daemon never builds
        daemon.suspend(store)
        for i in range(100):
            store.put(f"k{i:04d}".encode(), b"v" * 32)
        store.flush()
        assert store.flush_debt() == 0
        store.close()
        reopened = LSMStore(tmp_path / "db")
        assert reopened.get(b"k0099") == b"v" * 32
        reopened.close()
        daemon.close()

    def test_flush_job_builds_only_the_seals_pending_at_its_start(self, tmp_path):
        """A drain that chased seals arriving meanwhile would hold a daemon
        worker on one store for as long as its writers keep sealing."""
        store = LSMStore(tmp_path / "db", background_options())

        def seal(key: bytes) -> None:
            store.put(key, b"v")
            assert store._seal()

        seal(b"a")
        seal(b"b")
        build, raced = store._build_oldest, []

        def build_while_a_writer_seals() -> bool:
            if not raced:
                raced.append(True)
                seal(b"c")
            return build()

        store._build_oldest = build_while_a_writer_seals
        assert store.maintenance_flush() == 2
        assert store.flush_debt() == 1
        assert store.multi_get([b"a", b"b", b"c"]) == [b"v"] * 3
        store.close()

    def test_due_merge_goes_before_a_flush_while_another_worker_flushes(
        self, tmp_path
    ):
        """A flush never lowers L0 debt; only a merge does.  With one
        worker flushing, the other takes a due merge before a flush."""
        opts = background_options(auto_compact=False)
        held, other, busy = (
            LSMStore(tmp_path / name, opts) for name in ("held", "other", "busy")
        )
        for r in range(busy.options.fanout):
            busy.put(f"k{r}".encode(), b"v")
            busy.flush()
        assert busy.compaction_debt()
        daemon = StorageMaintenanceDaemon(workers=2)
        started = {held: threading.Event(), other: threading.Event()}
        release = {held: threading.Event(), other: threading.Event()}
        order: list[str] = []

        def blocking_flush(store):
            def flush() -> int:
                started[store].set()
                release[store].wait(10.0)
                return 0
            return flush

        for store in (held, other):
            store.maintenance_flush = blocking_flush(store)
        picked = threading.Event()

        def recorded(kind: str, fn):
            def run(*args):
                order.append(kind)
                picked.set()
                return fn(*args)
            return run

        busy.compact_level = recorded("merge", busy.compact_level)
        busy.maintenance_flush = recorded("flush", busy.maintenance_flush)
        for store in (held, other, busy):
            daemon.register(store)
        daemon.request_flush(held)
        daemon.request_flush(other)
        assert started[held].wait(10.0) and started[other].wait(10.0)
        # both workers are flushing; queue a seal and a due merge on busy
        busy.put(b"sealed", b"v")
        assert busy._seal()
        daemon.request_flush(busy)
        daemon.request_compaction(busy)
        release[other].set()  # one worker frees up while held still flushes
        try:
            assert picked.wait(10.0)
            assert order[0] == "merge"
        finally:
            release[held].set()
        assert daemon.wait_idle(timeout=10.0)
        assert order == ["merge", "flush"]
        for store in (held, other, busy):
            store.close()
        assert daemon.close()


class TestBackpressure:
    def test_stall_counters_and_bounded_l0(self, tmp_path):
        """With the daemon suspended, writers hit the slowdown and stop
        triggers; the stop wait is bounded (stall_timeout), L0 debt stays
        in the same order as the stop trigger, and resuming the daemon
        drains everything."""
        daemon = StorageMaintenanceDaemon(workers=2)
        opts = background_options(
            l0_slowdown_trigger=3, l0_stop_trigger=10, stall_timeout=0.05
        )
        store = LSMStore(tmp_path / "db", opts)
        daemon.register(store)
        with daemon._cond:
            daemon._suspended.add(store)  # drop requests, keep backpressure
        for i in range(100):
            store.put(f"k{i:04d}".encode(), b"v" * 32)
        assert store.stats.stall_slowdowns > 0
        assert store.stats.stall_stops > 0
        assert store.stats.stall_seconds > 0.0
        daemon.resume(store)
        assert daemon.wait_idle(timeout=10.0)
        assert store.flush_debt() == 0
        store.close()
        daemon.close()

    def test_inline_mode_never_stalls(self, tmp_path):
        store = LSMStore(
            tmp_path / "db", LSMOptions(sync=False, memtable_bytes=512)
        )
        for i in range(200):
            store.put(f"k{i:04d}".encode(), b"v" * 32)
        assert store.stats.stall_slowdowns == 0
        assert store.stats.stall_stops == 0
        store.close()

    def test_suspended_store_waives_backpressure(self, tmp_path):
        """A migrating store's writers must not park: suspension returns
        backpressure immediately even at stop-trigger debt."""
        daemon = StorageMaintenanceDaemon(workers=1)
        store = LSMStore(
            tmp_path / "db",
            background_options(l0_slowdown_trigger=1, l0_stop_trigger=2),
        )
        daemon.register(store)
        daemon.suspend(store)
        for i in range(200):
            store.put(f"k{i:04d}".encode(), b"v" * 32)
        # no stop parks happened even though debt ran far past the trigger
        assert store.stats.stall_stops == 0
        daemon.resume(store)
        assert daemon.wait_idle(timeout=10.0)
        store.close()
        daemon.close()


class TestLenAndTombstones:
    def test_len_is_cheap_approximation_exact_len_exact(self, tmp_path):
        store = LSMStore(tmp_path / "db", LSMOptions(sync=False))
        for i in range(30):
            store.put(f"k{i:02d}".encode(), b"v")
        store.delete(b"k00")
        # memtable-only: live counter is exact
        assert len(store) == 29
        assert store.exact_len() == 29
        store.flush()
        store.put(b"k01", b"v2")  # duplicate across runs
        # approximate: counts the k01 twice (once per run)
        assert len(store) >= 29
        assert store.exact_len() == 29
        store.close()

    def test_merge_into_nonempty_bottom_keeps_tombstones(self, tmp_path):
        """The bottom-level tombstone decision: a tombstone merged into a
        bottom level that still holds an older value of the key (in a
        table outside the merge inputs) must survive the merge, or the
        deleted value resurrects."""
        opts = LSMOptions(
            sync=False, fanout=2, max_levels=2, auto_compact=False
        )
        store = LSMStore(tmp_path / "db", opts)
        store.put(b"k", b"old")
        store.flush()
        store.compact_level(0)  # k=old now lives at the bottom level
        assert store.level_shape() == {1: 1}
        store.delete(b"k")
        store.put(b"other", b"x")
        store.flush()  # L0 table carrying the tombstone
        store.compact_level(0)  # merges INTO the non-empty bottom level
        assert store.get(b"k") is None  # tombstone survived the merge
        store.close()
        reopened = LSMStore(tmp_path / "db")
        assert reopened.get(b"k") is None
        # full bottom-level self-merge may now drop the tombstone: every
        # older version is a merge input
        reopened.compact_level(1)
        assert reopened.get(b"k") is None
        assert reopened.get(b"other") == b"x"
        reopened.close()


# ------------------------------------------------------------- crash matrix


CRASH_MID_BACKGROUND_FLUSH = """
import os, sys, time
from pathlib import Path
from repro.storage import LSMOptions, LSMStore, StorageMaintenanceDaemon
import repro.storage.lsm as lsm_mod

data = Path(sys.argv[1])
store = LSMStore(data, LSMOptions(
    sync=True, memtable_bytes=256, maintenance="background",
    l0_stop_trigger=0, l0_slowdown_trigger=0,
))
daemon = StorageMaintenanceDaemon(workers=1)
daemon.register(store)
# Suspended: every put is acknowledged durably (WAL sidecars pile up)
# while the daemon builds nothing yet.
daemon.suspend(store)
for i in range(40):
    store.put(f"k{i:04d}".encode(), b"v" * 32)

def dying_write(self, entries):
    # a partial .sst reaches disk, then the process dies mid-build
    self.path.write_bytes(b"partial sstable junk")
    os._exit(42)

lsm_mod.SSTableWriter.write = dying_write
daemon.resume(store)  # first background build crashes the process
time.sleep(30)  # the daemon's os._exit kills us first
"""


CRASH_MID_MERGE = """
import os, sys
from pathlib import Path
from repro.storage import LSMOptions, LSMStore
import repro.storage.lsm as lsm_mod

data = Path(sys.argv[1])
store = LSMStore(data, LSMOptions(
    sync=False, memtable_bytes=1 << 20, auto_compact=False
))
for batch in range(4):
    for i in range(10):
        store.put(f"k{batch}{i:03d}".encode(), b"v" * 32)
    store.flush()

def dying_write(self, entries):
    self.path.write_bytes(b"partial merge output")
    os._exit(42)

lsm_mod.SSTableWriter.write = dying_write
store.compact_level(0)
"""


class TestCrashMatrix:
    def assert_no_orphans(self, db_dir):
        from repro.storage.manifest import Manifest

        manifest = Manifest(db_dir)
        registered = {name for _level, name in manifest.tables}
        on_disk = {p.name for p in db_dir.glob("*.sst")}
        assert on_disk == registered

    def test_crash_mid_background_flush_converges(self, tmp_path):
        db = tmp_path / "db"
        result = run_crash_child(CRASH_MID_BACKGROUND_FLUSH, db)
        assert result.returncode == 42, result.stderr
        # the partial .sst the dying build left behind
        orphans_before = list(db.glob("*.sst"))
        assert orphans_before
        store = LSMStore(db)
        # WAL sidecars replayed: every sealed write is back
        for i in range(40):
            assert store.get(f"k{i:04d}".encode()) == b"v" * 32, i
        # ...and the orphan was collected on open
        self.assert_no_orphans(db)
        store.flush()
        store.close()
        reopened = LSMStore(db)
        assert reopened.get(b"k0000") == b"v" * 32
        reopened.close()

    def test_crash_mid_merge_converges(self, tmp_path):
        db = tmp_path / "db"
        result = run_crash_child(CRASH_MID_MERGE, db)
        assert result.returncode == 42, result.stderr
        store = LSMStore(db)
        # merge inputs were never deregistered: all data intact
        for batch in range(4):
            for i in range(10):
                assert store.get(f"k{batch}{i:03d}".encode()) == b"v" * 32
        self.assert_no_orphans(db)
        # the retried merge completes on the recovered store
        store.compact_level(0)
        assert store.get(b"k0000") == b"v" * 32
        store.close()


# ---------------------------------------------------------- threaded stress


class TestThreadedStress:
    def test_reads_and_writes_race_background_maintenance(self, tmp_path):
        daemon = StorageMaintenanceDaemon(workers=3)
        store = LSMStore(
            tmp_path / "db",
            background_options(memtable_bytes=1024, fanout=3),
        )
        daemon.register(store)
        writers, keys_per_writer = 4, 150
        errors: list[BaseException] = []
        stop_reading = threading.Event()

        def writer(wid: int) -> None:
            try:
                for i in range(keys_per_writer):
                    store.put(f"w{wid}-{i:04d}".encode(), f"{wid}:{i}".encode())
                    if i % 3 == 0:
                        store.delete(f"w{wid}-tmp{i}".encode())
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader() -> None:
            try:
                while not stop_reading.is_set():
                    store.get(b"w0-0000")
                    sum(1 for _ in store.scan(b"w1-", b"w1-~"))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(wid,)) for wid in range(writers)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads[:writers]:
            t.join(timeout=60)
        stop_reading.set()
        for t in threads[writers:]:
            t.join(timeout=10)
        assert not errors
        assert daemon.wait_idle(timeout=15.0)
        # every write of every writer is readable (newest versions win)
        for wid in range(writers):
            for i in range(keys_per_writer):
                key = f"w{wid}-{i:04d}".encode()
                assert store.get(key) == f"{wid}:{i}".encode()
        assert store.exact_len() == writers * keys_per_writer
        store.close()
        daemon.close()


# ------------------------------------------------------------ manager wiring


def write_rows(smgr, n: int, value_bytes: int = 64) -> None:
    for i in range(n):
        with smgr.transaction() as txn:
            smgr.write(txn, "A", i, "x" * value_bytes)


class TestManagerWiring:
    def test_background_is_default_and_daemon_attached(self, tmp_path):
        smgr = ShardedTransactionManager(num_shards=2, data_dir=tmp_path)
        smgr.create_table("A")
        assert smgr.maintenance_daemon is not None
        for store in smgr._lsm_backends():
            assert store.options.maintenance == "background"
            assert store._maintenance is smgr.maintenance_daemon
        smgr.close()

    def test_inline_mode_has_no_daemon(self, tmp_path):
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, storage_maintenance="inline"
        )
        smgr.create_table("A")
        assert smgr.maintenance_daemon is None
        for store in smgr._lsm_backends():
            assert store.options.maintenance == "inline"
        smgr.close()

    def test_write_heavy_workload_drains_and_reopens(self, tmp_path):
        from repro.storage.lsm import LSMOptions

        smgr = ShardedTransactionManager(
            num_shards=2,
            data_dir=tmp_path,
            lsm_options=LSMOptions(sync=False, memtable_bytes=2048),
            checkpoint_interval=64,
        )
        smgr.create_table("A")
        write_rows(smgr, 120)
        stats = smgr.stats()
        assert stats["lsm_stores"] == 2
        assert "maintenance_flushes" in stats
        assert "lsm_flushes" in stats
        assert "lsm_stall_slowdowns" in stats
        assert "lsm_cache_hit_ratio" in stats
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        assert scan_all(reopened, "A") == {i: "x" * 64 for i in range(120)}
        reopened.close()

    def test_cache_budget_divides_across_stores(self, tmp_path):
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, cache_budget=4096
        )
        smgr.create_table("A")
        stores = smgr._lsm_backends()
        assert len(stores) == 2
        assert all(s.options.cache_capacity == 2048 for s in stores)
        smgr.create_table("B")
        stores = smgr._lsm_backends()
        assert len(stores) == 4
        assert all(s.options.cache_capacity == 1024 for s in stores)
        smgr.close()

    def test_migration_resumes_maintenance(self, tmp_path):
        smgr = ShardedTransactionManager(num_shards=2, data_dir=tmp_path)
        smgr.create_table("A")
        write_rows(smgr, 60)
        smgr.split_shard(0)
        for store in smgr._lsm_backends():
            assert not store._maintenance_paused
        # post-split writes still drain through the daemon
        write_rows(smgr, 60)
        assert smgr.maintenance_daemon.wait_idle(timeout=15.0)
        assert scan_all(smgr, "A") == {i: "x" * 64 for i in range(60)}
        smgr.close()
