"""Tests for the transactional table wrapper (StateTable)."""

import pytest

from repro.core import ShardedTransactionManager, TransactionManager
from repro.core.codecs import INT4_CODEC, JSON_CODEC
from repro.core.table import StateTable
from repro.core.version_store import MVCCObject
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

    def test_sweep_stops_at_the_first_bound_above_the_horizon(self):
        table = StateTable("t")
        table.bulk_load([(key, "v") for key in range(1000)])
        for ts in range(1, 11):
            ws = WriteSet()
            ws.upsert(ts - 1, "w")
            with table.commit_latch:
                table.apply_write_set(ws, ts, 0)
        # commit ts superseded key ts-1's loaded version, so a sweep at
        # horizon h visits keys 0..h-1 only
        assert table.collect_garbage(0) == (0, 0)
        assert table.collect_garbage(4) == (4, 4)
        assert table.collect_garbage(4) == (0, 0)
        assert table.collect_garbage(10) == (6, 6)

    def test_survivor_is_registered_at_its_own_dts(self, monkeypatch):
        """A commit that registers a key while a sweep collects it must
        not hide the survivor's older ``dts`` behind its own, newer
        bound: a sweep between the two still reclaims the survivor."""
        table = StateTable("t")
        table.install_version(1, "a", 1)
        table.install_version(1, "b", 3)  # "a" is superseded at 3
        target = table.mvcc_object(1)
        real_sweep = MVCCObject.sweep

        def racing_sweep(obj, oldest_active):
            if obj is target:
                ws = WriteSet()
                ws.upsert(1, "c")  # "b" is superseded at 5
                with table.commit_latch:
                    table.apply_write_set(ws, 5, 0)
            return real_sweep(obj, oldest_active)

        monkeypatch.setattr(MVCCObject, "sweep", racing_sweep)
        assert table.collect_garbage(2) == (1, 0)
        monkeypatch.undo()
        assert table.collect_garbage(4) == (1, 1)
        assert target.collect(4) == 0
        assert [v.value for v in target.versions()] == ["c", "b"]

    def test_rebuild_keeps_the_key_being_registered(self):
        """A single-key registration that triggers the heap rebuild must
        keep its own key queued, or a later commit to it (which queues
        nothing for a pending key) leaves a version no sweep visits."""
        table = StateTable("t")
        for ts in range(1, 67):  # 66 queued entries of key 0: no rebuild
            table.install_version(0, ts, ts)
        assert table._gc_heap_keys == 66
        table.install_version(1, "a", 67)
        ws = WriteSet()
        ws.upsert(1, "b")  # "a" is superseded at 68
        with table.commit_latch:
            table.apply_write_set(ws, 68, 0)
        assert table.collect_garbage(100)[0] == 2
        assert table.mvcc_object(0).collect(100) == 0
        assert table.mvcc_object(1).collect(100) == 0

    def test_registrations_stay_bounded_on_a_table_never_swept(self):
        mgr = TransactionManager(protocol="mvcc")  # ON_DEMAND: no sweeps
        table = mgr.create_table("A", residency="lazy")

        largest = 0
        for cycle in range(300):
            with mgr.transaction() as txn:
                for key in range(cycle % 7, cycle % 7 + 5):
                    mgr.write(txn, "A", key, cycle)
            # checked where keys are registered; evictions only shrink
            # the pending set and leave stale keys in the heap
            held = sum(len(keys) for _bound, _seq, keys in table._gc_heap)
            assert held == table._gc_heap_keys
            assert held <= 2 * len(table._gc_pending) + 64
            largest = max(largest, held)
            table.evict_cold_versions(
                limit=100,
                horizon=mgr.context.oldest_active_version(),
                strict=True,
            )
            with mgr.snapshot() as view:
                for key in range(12):
                    view.get("A", key)
        assert table.residency_evictions > 0
        assert largest <= 2 * 12 + 64

    def test_version_count(self):
        table = StateTable("t")
        assert table.version_count() == 0
        table.bulk_load([(1, "a")])
        assert table.version_count() == 1
