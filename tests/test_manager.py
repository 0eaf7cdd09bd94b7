"""Tests for the TransactionManager facade."""

import pytest

from repro.core import GCPolicy, TransactionManager
from repro.errors import StateError, TransactionAborted, UnknownState

from helpers import load_initial


class TestSchema:
    def test_create_table_registers_state(self, mgr):
        assert "A" in mgr.context.state_ids()
        assert mgr.table("A").state_id == "A"

    def test_duplicate_table_rejected(self, mgr):
        with pytest.raises(StateError):
            mgr.create_table("A")

    def test_unknown_table_rejected(self, mgr):
        with pytest.raises(UnknownState):
            mgr.table("missing")

    def test_begin_with_unknown_state_rejected(self, mgr):
        with pytest.raises(UnknownState):
            mgr.begin(states=["missing"])

    def test_protocol_by_name(self):
        for name in ("mvcc", "s2pl", "bocc"):
            manager = TransactionManager(protocol=name)
            assert manager.protocol.name == name

    def test_unknown_protocol_rejected(self):
        with pytest.raises(StateError):
            TransactionManager(protocol="nope")

    def test_protocol_instance_accepted(self):
        from repro.core import MVCCProtocol, StateContext

        ctx = StateContext()
        proto = MVCCProtocol(ctx)
        manager = TransactionManager(protocol=proto, context=ctx)
        assert manager.protocol is proto


class TestContextManagers:
    def test_transaction_commits_on_success(self, mgr):
        with mgr.transaction() as txn:
            mgr.write(txn, "A", 1, "v")
        assert txn.is_finished()
        with mgr.snapshot() as view:
            assert view.get("A", 1) == "v"

    def test_transaction_aborts_on_exception(self, mgr):
        with pytest.raises(ValueError):
            with mgr.transaction() as txn:
                mgr.write(txn, "A", 1, "v")
                raise ValueError("boom")
        with mgr.snapshot() as view:
            assert view.get("A", 1) is None

    def test_snapshot_view_finishes(self, mgr):
        with mgr.snapshot() as view:
            view.get("A", 1)
        assert view.txn.is_finished()

    def test_snapshot_pins_reported(self, mgr):
        load_initial(mgr)
        with mgr.transaction() as txn:
            mgr.write(txn, "A", 1, "x")
            mgr.write(txn, "B", 1, "y")
        with mgr.snapshot() as view:
            view.get("A", 1)
            pins = view.pinned_snapshots()
        assert pins == {"g": txn.commit_ts}


class TestRunTransaction:
    def test_gives_up_after_max_restarts(self, mgr):
        load_initial(mgr)

        def always_conflicts(txn):
            mgr.write(txn, "A", 1, "mine")
            with mgr.transaction() as other:
                mgr.write(other, "A", 1, "theirs")

        with pytest.raises(TransactionAborted):
            mgr.run_transaction(always_conflicts, max_restarts=3)

    def test_returns_work_result(self, mgr):
        result = mgr.run_transaction(lambda txn: 42)
        assert result == 42


class TestGC:
    def test_explicit_collect(self, mgr):
        load_initial(mgr)
        for i in range(5):
            with mgr.transaction() as txn:
                mgr.write(txn, "A", 1, f"v{i}")
        reclaimed = mgr.collect_garbage()
        assert reclaimed >= 4
        with mgr.snapshot() as view:
            assert view.get("A", 1) == "v4"

    def test_periodic_policy_sweeps(self):
        manager = TransactionManager(
            protocol="mvcc", gc_policy=GCPolicy.PERIODIC, gc_interval=2
        )
        manager.create_table("A")
        for i in range(6):
            with manager.transaction() as txn:
                manager.write(txn, "A", 1, i)
        assert manager.gc.total_reclaimed > 0

    def test_sweep_visits_only_the_arrays_commits_superseded(self):
        manager = TransactionManager(protocol="mvcc")
        table = manager.create_table("A")
        table.bulk_load([(key, 0) for key in range(10_000)])
        pinned = manager.begin()
        assert manager.read(pinned, "A", 0) == 0
        for key in range(10):
            with manager.transaction() as txn:
                manager.write(txn, "A", key, 1)
        # the pinned snapshot still reads key 0's bulk-loaded version, and
        # every superseded version died above its horizon: nothing to visit
        for _ in range(3):
            report = manager.gc.sweep(manager.tables())
            assert report.objects_scanned == 0
            assert report.versions_reclaimed == 0
        manager.commit(pinned)
        report = manager.gc.sweep(manager.tables())
        assert report.objects_scanned == 10
        assert report.versions_reclaimed == 10
        assert table.version_count() == 10_000
        # nothing was superseded since: the next sweep visits nothing
        assert manager.gc.sweep(manager.tables()).objects_scanned == 0

    def test_gc_preserves_active_snapshot(self, mgr):
        load_initial(mgr)
        reader = mgr.begin()
        assert mgr.read(reader, "A", 1) == 10
        for i in range(10):
            with mgr.transaction() as txn:
                mgr.write(txn, "A", 1, f"v{i}")
        mgr.collect_garbage()
        # the reader's pinned version must have survived GC
        assert mgr.read(reader, "A", 1) == 10
        mgr.commit(reader)


class TestStats:
    def test_stats_aggregates_protocol_and_coordinator(self, mgr):
        with mgr.transaction() as txn:
            mgr.write(txn, "A", 1, "x")
        stats = mgr.stats()
        assert stats["writes"] == 1
        assert stats["global_commits"] == 1
        assert stats["global_aborts"] == 0

    def test_stats_count_gc_sweeps(self):
        manager = TransactionManager(protocol="mvcc")
        manager.create_table("A")
        for value in range(3):
            with manager.transaction() as txn:
                manager.write(txn, "A", 1, value)
        assert manager.collect_garbage() == 2
        assert manager.collect_garbage() == 0
        stats = manager.stats()
        assert stats["gc_sweeps"] == 2
        assert stats["gc_arrays_visited"] == 1
        assert stats["gc_versions_reclaimed"] == 2
