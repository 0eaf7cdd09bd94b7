"""Tests for the LSM store: durability, compaction, crash recovery."""

import os
import threading
import time
from pathlib import Path

import pytest

from repro.errors import CorruptionError, StorageError
from repro.storage import LSMOptions, LSMStore


def small_options(**overrides) -> LSMOptions:
    defaults = dict(sync=False, memtable_bytes=2048, fanout=3, max_levels=4)
    defaults.update(overrides)
    return LSMOptions(**defaults)


class TestBasicOps:
    def test_put_get(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            store.put(b"k", b"v")
            assert store.get(b"k") == b"v"
            assert store.get(b"absent") is None

    def test_overwrite(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            store.put(b"k", b"v1")
            store.put(b"k", b"v2")
            assert store.get(b"k") == b"v2"

    def test_delete(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            store.put(b"k", b"v")
            store.delete(b"k")
            assert store.get(b"k") is None

    def test_delete_shadows_flushed_value(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            store.put(b"k", b"old")
            store.flush()  # now on disk
            store.delete(b"k")  # tombstone in memtable
            assert store.get(b"k") is None

    def test_contains(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            store.put(b"k", b"v")
            assert b"k" in store
            assert b"x" not in store

    def test_use_after_close_raises(self, tmp_path):
        store = LSMStore(tmp_path, small_options())
        store.close()
        with pytest.raises(StorageError):
            store.get(b"k")


class TestScan:
    def test_scan_across_memtable_and_sstables(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            for i in range(0, 100, 2):
                store.put(f"k{i:04d}".encode(), str(i).encode())
            store.flush()
            for i in range(1, 100, 2):
                store.put(f"k{i:04d}".encode(), str(i).encode())
            keys = [k for k, _ in store.scan()]
            assert keys == sorted(f"k{i:04d}".encode() for i in range(100))

    def test_scan_newest_version_wins(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            store.put(b"k", b"old")
            store.flush()
            store.put(b"k", b"new")
            assert dict(store.scan()) == {b"k": b"new"}

    def test_scan_excludes_tombstones(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            store.put(b"a", b"1")
            store.put(b"b", b"2")
            store.flush()
            store.delete(b"a")
            assert dict(store.scan()) == {b"b": b"2"}

    def test_scan_bounds(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            for i in range(20):
                store.put(f"k{i:04d}".encode(), b"v")
            got = [k for k, _ in store.scan(b"k0005", b"k0010")]
            assert got == [f"k{i:04d}".encode() for i in range(5, 10)]

    def test_len(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            for i in range(30):
                store.put(str(i).encode(), b"v")
            store.delete(b"5")
            assert len(store) == 29


class TestFlushCompaction:
    def test_auto_flush_on_threshold(self, tmp_path):
        with LSMStore(tmp_path, small_options(memtable_bytes=512)) as store:
            for i in range(100):
                store.put(f"key-{i:05d}".encode(), b"x" * 20)
            assert store.stats.flushes > 0
            assert store.table_count() >= 1

    def test_compaction_reduces_table_count(self, tmp_path):
        options = small_options(memtable_bytes=256, fanout=2)
        with LSMStore(tmp_path, options) as store:
            for i in range(200):
                store.put(f"key-{i:05d}".encode(), b"x" * 16)
            assert store.stats.compactions > 0
            # all data still readable after compactions
            assert store.get(b"key-00000") == b"x" * 16
            assert store.get(b"key-00199") == b"x" * 16

    def test_compact_all_single_table(self, tmp_path):
        with LSMStore(tmp_path, small_options(auto_compact=False)) as store:
            for batch in range(4):
                for i in range(20):
                    store.put(f"k{i:03d}".encode(), f"b{batch}".encode())
                store.flush()
            assert store.table_count() == 4
            store.compact_all()
            assert store.table_count() == 1
            assert store.get(b"k010") == b"b3"  # newest survives

    def test_merged_table_bloom_has_no_false_negatives(self, tmp_path):
        """A merge sizes its bloom for the inputs' summed counts, an
        upper bound on what it writes: every written key is in it."""
        with LSMStore(tmp_path, small_options(auto_compact=False)) as store:
            for batch in range(4):
                for i in range(batch * 30, batch * 30 + 60):
                    store.put(f"k{i:04d}".encode(), f"b{batch}".encode())
                store.delete(f"k{batch:04d}".encode())
                store.flush()
            inputs = sum(len(t) for t in store._tables[0])
            store.compact_all()
            (merged,) = [t for tables in store._tables.values() for t in tables]
            keys = [key for key, _value in merged.items()]
            assert 0 < len(keys) < inputs
            assert all(merged.might_contain(key) for key in keys)
            assert store.get(b"k0100") == b"b3"

    def test_tombstones_dropped_at_bottom_level(self, tmp_path):
        with LSMStore(tmp_path, small_options(auto_compact=False)) as store:
            store.put(b"dead", b"v")
            store.flush()
            store.delete(b"dead")
            store.flush()
            store.compact_all()
            assert store.get(b"dead") is None
            # after full compaction the tombstone itself is gone
            remaining = [
                t for tables in store._tables.values() for t in tables
            ]
            all_records = [rec for t in remaining for rec in t.items()]
            assert (b"dead", None) not in all_records

    def test_flush_empty_memtable_is_noop(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            before = store.stats.flushes
            store.flush()
            assert store.stats.flushes == before


class TestDurability:
    def test_reopen_after_clean_close(self, tmp_path):
        store = LSMStore(tmp_path, small_options())
        for i in range(50):
            store.put(str(i).encode(), str(i * 2).encode())
        store.close()
        reopened = LSMStore(tmp_path, small_options())
        for i in range(50):
            assert reopened.get(str(i).encode()) == str(i * 2).encode()
        reopened.close()

    def test_wal_replay_after_crash(self, tmp_path):
        """Unflushed writes survive via WAL replay (no orderly close)."""
        store = LSMStore(tmp_path, small_options(sync=True))
        store.put(b"durable", b"yes")
        store._wal.sync()
        # simulate crash: drop the object without close()/flush()
        del store
        recovered = LSMStore(tmp_path, small_options(sync=True))
        assert recovered.get(b"durable") == b"yes"
        recovered.close()

    def test_wal_truncated_after_flush(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            store.put(b"k", b"v")
            store.flush()
            assert store._wal.size_bytes() == 0

    def test_deletes_survive_restart(self, tmp_path):
        store = LSMStore(tmp_path, small_options())
        store.put(b"k", b"v")
        store.flush()
        store.delete(b"k")
        store.close()
        reopened = LSMStore(tmp_path, small_options())
        assert reopened.get(b"k") is None
        reopened.close()

    def test_write_batch_atomic_unit(self, tmp_path):
        store = LSMStore(tmp_path, small_options(sync=True))
        store.write_batch(
            puts=[(b"a", b"1"), (b"b", b"2")],
            deletes=[],
        )
        del store  # crash
        recovered = LSMStore(tmp_path, small_options(sync=True))
        assert recovered.get(b"a") == b"1"
        assert recovered.get(b"b") == b"2"
        recovered.close()


class TestStats:
    def test_bloom_skips_counted(self, tmp_path):
        with LSMStore(tmp_path, small_options(auto_compact=False)) as store:
            store.put(b"present", b"v")
            store.flush()
            store.put(b"other", b"w")
            store.flush()
            store._cache.clear()
            store.get(b"present")
            assert store.stats.bloom_skips + store.stats.sstable_reads > 0

    def test_cache_serves_hot_reads(self, tmp_path):
        with LSMStore(tmp_path, small_options()) as store:
            store.put(b"hot", b"v")
            store.flush()
            for _ in range(10):
                store.get(b"hot")
            assert store.cache_hit_ratio() > 0.5

    def test_level_shape(self, tmp_path):
        with LSMStore(tmp_path, small_options(auto_compact=False)) as store:
            store.put(b"k", b"v")
            store.flush()
            assert store.level_shape() == {0: 1}


class TestFlushFailureRecovery:
    """A failed SSTable build must not lose the sealed memtable."""

    def test_failed_flush_keeps_sealed_entries_readable(self, tmp_path, monkeypatch):
        import repro.storage.lsm as lsm_mod

        store = LSMStore(tmp_path / "db", LSMOptions(sync=False))
        store.put(b"old", b"1")
        store.delete(b"gone")

        def broken_write(self, entries):
            raise OSError("transient ENOSPC")

        monkeypatch.setattr(lsm_mod.SSTableWriter, "write", broken_write)
        with pytest.raises(OSError):
            store.flush()
        monkeypatch.undo()

        # the seal (and its WAL sidecar) stays pending: still readable,
        # newer writes still win, the tombstone still shadows
        assert len(store._immutables) == 1
        assert store.get(b"old") == b"1"
        store.put(b"old", b"2")
        assert store.get(b"old") == b"2"
        assert store.get(b"gone") is None

        # the next flush retries the build and re-covers everything durably
        store.flush()
        assert not store._immutables
        store.close()
        reopened = LSMStore(tmp_path / "db")
        assert reopened.get(b"old") == b"2"
        assert reopened.get(b"gone") is None
        reopened.close()

    def test_crash_after_failed_flush_replays_sealed_sidecar(
        self, tmp_path, monkeypatch
    ):
        """The sealed WAL sidecar stays on disk until an SSTable covers
        it: even abandoning the store after the failure loses nothing."""
        import repro.storage.lsm as lsm_mod

        store = LSMStore(tmp_path / "db", LSMOptions(sync=True))
        store.put(b"k", b"v")
        monkeypatch.setattr(
            lsm_mod.SSTableWriter,
            "write",
            lambda self, entries: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            store.flush()
        monkeypatch.undo()
        # simulated crash: no close(), fresh open replays the sidecar
        reopened = LSMStore(tmp_path / "db")
        assert reopened.get(b"k") == b"v"
        reopened.close()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestDescriptorLifecycle:
    """Each SSTable holds one descriptor; the store closes it exactly when
    no reader can reach the table any more.  The tests keep references
    to every table they saw, so a descriptor only counts as released
    when the store closed it, not when the table was garbage-collected."""

    @pytest.fixture(autouse=True)
    def _needs_proc_fd(self):
        if not Path("/proc/self/fd").is_dir():
            pytest.skip("needs /proc/self/fd")

    @staticmethod
    def _write_batches(store, batches, start=0):
        for batch in range(start, start + batches):
            for i in range(20):
                store.put(f"k{i:03d}".encode(), f"b{batch}".encode())
            store.flush()

    @staticmethod
    def _live(store):
        return [t for tables in store._tables.values() for t in tables]

    def test_compactions_and_close_release_every_descriptor(self, tmp_path):
        before = _open_fds()
        store = LSMStore(tmp_path, small_options(auto_compact=False))
        seen = []
        for round_ in range(4):
            self._write_batches(store, 3, start=3 * round_)
            seen.extend(self._live(store))
            store.compact_all()
            # one descriptor per live table plus the live WAL's handle
            assert _open_fds() == before + store.table_count() + 1
        live = {id(t) for t in self._live(store)}
        assert all(t.closed for t in seen if id(t) not in live)
        assert store.get(b"k005") == b"b11"
        store.close()
        assert _open_fds() == before
        assert all(t.closed for t in seen + self._live(store))

    def test_merge_dropped_by_close_leaks_nothing(self, tmp_path, monkeypatch):
        import repro.storage.lsm as lsm_mod

        before = _open_fds()
        store = LSMStore(tmp_path, small_options(auto_compact=False))
        self._write_batches(store, 3)
        inputs = list(store._tables[0])
        built = []
        real_write = lsm_mod.SSTableWriter.write

        def recording_write(self, records):
            table = real_write(self, records)
            built.append(table)
            return table

        entered, release = threading.Event(), threading.Event()
        real_merge = LSMStore._merge_tables

        def slow_merge(tables, drop_tombstones):
            entered.set()
            release.wait(5.0)
            return real_merge(tables, drop_tombstones)

        monkeypatch.setattr(lsm_mod.SSTableWriter, "write", recording_write)
        monkeypatch.setattr(LSMStore, "_merge_tables", staticmethod(slow_merge))
        merger = threading.Thread(target=store.compact_level, args=(0,))
        merger.start()
        assert entered.wait(5.0)
        closer = threading.Thread(target=store.close)
        closer.start()
        deadline = time.monotonic() + 5.0
        while not store._closed and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        merger.join(5.0)
        closer.join(5.0)
        assert not merger.is_alive() and not closer.is_alive()

        assert store.stats.compactions == 0  # the output was dropped
        assert len(built) == 1 and built[0].closed
        assert not built[0].path.exists()
        assert all(t.closed for t in inputs)
        assert _open_fds() == before
        monkeypatch.undo()
        with LSMStore(tmp_path, small_options(auto_compact=False)) as reopened:
            assert reopened.level_shape() == {0: 3}
            assert reopened.get(b"k000") == b"b2"

    def test_failed_open_closes_the_tables_it_opened(self, tmp_path):
        with LSMStore(tmp_path, small_options(auto_compact=False)) as store:
            self._write_batches(store, 3)
            newest = store._tables[0][-1].path
        newest.write_bytes(newest.read_bytes()[:-1])  # torn footer
        before = _open_fds()
        with pytest.raises(CorruptionError) as excinfo:
            LSMStore(tmp_path, small_options(auto_compact=False))
        # the traceback keeps the half-built store (and its tables) alive:
        # only an explicit close gives their descriptors back
        assert excinfo.value is not None
        assert _open_fds() == before
