"""Tests for the transactional table wrapper (StateTable)."""

import pytest

from repro.core import ShardedTransactionManager, TransactionManager
from repro.core.codecs import INT4_CODEC, JSON_CODEC
from repro.core.table import StateTable
from repro.core.write_set import WriteSet
from repro.storage import LSMOptions, LSMStore, MemoryKVStore


class TestBulkLoadAndRead:
    def test_bulk_load_visible_at_any_snapshot(self):
        table = StateTable("t")
        table.bulk_load([(1, "a"), (2, "b")])
        assert table.read_version_at(1, 0).value == "a"
        assert table.read_version_at(2, 10**9).value == "b"

    def test_bulk_load_reaches_backend(self):
        backend = MemoryKVStore()
        table = StateTable("t", backend=backend, key_codec=INT4_CODEC,
                           value_codec=JSON_CODEC)
        table.bulk_load([(1, {"v": 1})])
        assert backend.get(INT4_CODEC.encode(1)) == JSON_CODEC.encode({"v": 1})

    def test_bulk_load_after_a_commit_is_refused(self):
        """A ts-0 bulk load after a commit would change what a held
        snapshot already read."""
        mgr = TransactionManager(protocol="mvcc")
        table = mgr.create_table("A")
        table.bulk_load([(1, "a")])
        with mgr.transaction() as txn:
            mgr.write(txn, "A", 1, "b")
        held = mgr.begin()
        assert mgr.read(held, "A", 1) == "b"
        with pytest.raises(ValueError):
            table.bulk_load([(1, "c")])
        with pytest.raises(ValueError):
            table.bulk_load([(2, "new")])  # a new key: no resident array
        assert mgr.read(held, "A", 1) == "b"
        assert mgr.read(held, "A", 2) is None
        mgr.commit(held)

    def test_sharded_bulk_load_checks_every_partition_first(self):
        smgr = ShardedTransactionManager(num_shards=2)
        smgr.create_table("A")
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 1, "b")  # commits on one shard only
        with pytest.raises(ValueError):
            smgr.bulk_load("A", [(k, "c") for k in range(4)])
        with smgr.snapshot() as view:
            assert {k: view.get("A", k) for k in range(4)} == {
                0: None, 1: "b", 2: None, 3: None
            }

    def test_read_live_and_latest_cts(self):
        table = StateTable("t")
        ws = WriteSet()
        ws.upsert(1, "x")
        with table.commit_latch:
            table.apply_write_set(ws, commit_ts=5, oldest_active=0)
        assert table.read_live(1).value == "x"
        assert table.latest_cts(1) == 5
        assert table.latest_cts(999) == 0


class TestApplyWriteSet:
    def test_apply_installs_versions_and_persists(self):
        backend = MemoryKVStore()
        table = StateTable("t", backend=backend)
        ws = WriteSet()
        ws.upsert("k", "v1")
        with table.commit_latch:
            table.apply_write_set(ws, 5, 0)
        assert table.read_version_at("k", 5).value == "v1"
        assert len(backend) == 1

    def test_apply_delete_removes_from_backend(self):
        backend = MemoryKVStore()
        table = StateTable("t", backend=backend)
        table.bulk_load([("k", "v")])
        ws = WriteSet()
        ws.delete("k")
        with table.commit_latch:
            table.apply_write_set(ws, 7, 0)
        assert table.read_version_at("k", 7) is None
        assert table.read_version_at("k", 6).value == "v"
        assert len(backend) == 0

    def test_commit_counters(self):
        table = StateTable("t")
        ws = WriteSet()
        ws.upsert(1, "a")
        ws.upsert(2, "b")
        with table.commit_latch:
            table.apply_write_set(ws, 3, 0)
        assert table.commits_applied == 1
        assert table.versions_installed == 2


class TestScans:
    def test_scan_at_snapshot(self):
        table = StateTable("t")
        table.bulk_load([(i, i) for i in range(5)])
        ws = WriteSet()
        ws.upsert(2, "new")
        with table.commit_latch:
            table.apply_write_set(ws, 10, 0)
        old = dict(table.scan_at(5))
        new = dict(table.scan_at(10))
        assert old[2] == 2
        assert new[2] == "new"

    def test_scan_bounds(self):
        table = StateTable("t")
        table.bulk_load([(i, i) for i in range(10)])
        assert [k for k, _ in table.scan_live(3, 7)] == [3, 4, 5, 6]

    def test_len_counts_live_keys(self):
        table = StateTable("t")
        table.bulk_load([(i, i) for i in range(5)])
        ws = WriteSet()
        ws.delete(0)
        with table.commit_latch:
            table.apply_write_set(ws, 9, 0)
        assert len(table) == 4


class TestRecoveryPath:
    def test_load_from_backend(self, tmp_path):
        backend = LSMStore(tmp_path, LSMOptions(sync=False))
        table = StateTable("t", backend=backend, key_codec=INT4_CODEC,
                           value_codec=JSON_CODEC)
        table.bulk_load([(i, {"v": i}) for i in range(20)])
        backend.flush()

        # a second wrapper over the same backend (fresh version index)
        table2 = StateTable("t", backend=backend, key_codec=INT4_CODEC,
                            value_codec=JSON_CODEC)
        restored = table2.load_from_backend(bootstrap_cts=42)
        assert restored == 20
        assert table2.read_version_at(5, 42).value == {"v": 5}
        assert table2.read_version_at(5, 41) is None  # stamped at LastCTS
        backend.close()

    def test_load_clears_previous_index(self):
        table = StateTable("t")
        table.bulk_load([(1, "stale")])
        table.backend.delete(table.key_codec.encode(1))
        assert table.load_from_backend() == 0
        assert table.read_live(1) is None


class TestGC:
    def test_collect_garbage_table_wide(self):
        table = StateTable("t")
        for ts in range(1, 6):
            ws = WriteSet()
            ws.upsert("hot", f"v{ts}")
            with table.commit_latch:
                table.apply_write_set(ws, ts, 0)
        assert table.version_count() == 5
        visited, reclaimed = table.collect_garbage(oldest_active=5)
        assert (visited, reclaimed) == (1, 4)
        assert table.read_live("hot").value == "v5"

    def test_version_count(self):
        table = StateTable("t")
        assert table.version_count() == 0
        table.bulk_load([(1, "a")])
        assert table.version_count() == 1
