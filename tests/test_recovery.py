"""Tests for the recovery layer: context store and restart."""

from repro.core import ShardedTransactionManager
from repro.recovery import ContextStore

from helpers import run_crash_child, scan_all


class TestContextStore:
    def test_record_and_recover(self, tmp_path):
        path = tmp_path / "ctx.log"
        with ContextStore(path) as store:
            store.record("g1", 5)
            store.record("g2", 9)
            store.record("g1", 12)
        recovered = ContextStore(path)
        assert recovered.values() == {"g1": 12, "g2": 9}
        recovered.close()

    def test_monotonic_per_group(self, tmp_path):
        with ContextStore(tmp_path / "c.log") as store:
            store.record("g", 10)
            store.record("g", 3)  # stale publication ignored on read-back
            assert store.last_cts("g") == 10

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "c.log"
        with ContextStore(path) as store:
            store.record("g", 7)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe")  # torn frame
        recovered = ContextStore(path)
        assert recovered.values() == {"g": 7}
        recovered.close()

    def test_compaction_keeps_latest(self, tmp_path):
        path = tmp_path / "c.log"
        store = ContextStore(path, compact_after_records=10)
        for i in range(25):
            store.record("g", i + 1)
        store.close()
        size_after = path.stat().st_size
        recovered = ContextStore(path)
        assert recovered.last_cts("g") == 25
        recovered.close()
        # compaction bounded the log: far below 25 uncompacted records
        assert size_after < 25 * 19 / 2

    def test_empty_store(self, tmp_path):
        store = ContextStore(tmp_path / "new.log")
        assert store.values() == {}
        assert store.last_cts("g") == 0
        store.close()


class TestDurableReopen:
    """Restart of the durable manager: ``data_dir=`` creates, ``open()``
    recovers.  The clean round trip (data, ``LastCTS`` and a working
    reopened manager) is
    ``test_recovery_sharded.py::TestDurableRoundTrip::test_close_then_open_restores_state_and_watermark``.
    """

    @staticmethod
    def _create(directory):
        smgr = ShardedTransactionManager(num_shards=2, data_dir=directory)
        smgr.create_table("A")
        smgr.create_table("B")
        smgr.register_group("g", ["A", "B"])
        return smgr

    def test_uncommitted_work_does_not_survive(self, tmp_path):
        script = r"""
import os, sys
from repro.core import ShardedTransactionManager
smgr = ShardedTransactionManager(num_shards=2, data_dir=sys.argv[1])
smgr.create_table("A")
smgr.create_table("B")
smgr.register_group("g", ["A", "B"])
with smgr.transaction() as txn:
    smgr.write(txn, "A", 1, "committed")
    smgr.write(txn, "B", 1, "committed")
doomed = smgr.begin()
smgr.write(doomed, "A", 1, "uncommitted")
os._exit(42)  # crash without aborting 'doomed'
"""
        proc = run_crash_child(script, tmp_path)
        assert proc.returncode == 42, proc.stderr
        restarted = ShardedTransactionManager.open(tmp_path)
        assert scan_all(restarted, "A") == {1: "committed"}
        restarted.close()

    def test_oracle_restarts_above_recovered_cts(self, tmp_path):
        smgr = self._create(tmp_path)
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 1, "x")
            smgr.write(txn, "B", 1, "x")
        cts = txn.commit_ts
        smgr.close()

        restarted = ShardedTransactionManager.open(tmp_path)
        fresh = restarted.begin()
        assert fresh.txn_id > cts
        restarted.abort(fresh)
        restarted.close()

    def test_recovered_snapshot_boundary(self, tmp_path):
        """Recovered readers snapshot exactly at the recovered LastCTS."""
        smgr = self._create(tmp_path)
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 7, "pre-crash")
            smgr.write(txn, "B", 7, "pre-crash")
        smgr.close()

        restarted = ShardedTransactionManager.open(tmp_path)
        report = restarted.last_recovery
        reader = restarted.begin()
        assert restarted.read(reader, "A", 7) == "pre-crash"
        child = reader.children[restarted.shard_of(7)]
        assert child.read_cts["g"] == report.last_cts["g"]
        restarted.commit(reader)
        restarted.close()

    def test_double_crash_recovery(self, tmp_path):
        """Recovery is idempotent across repeated restarts."""
        for round_number in range(3):
            if round_number:
                smgr = ShardedTransactionManager.open(tmp_path)
            else:
                smgr = self._create(tmp_path)
            with smgr.transaction() as txn:
                smgr.write(txn, "A", round_number, f"r{round_number}")
                smgr.write(txn, "B", round_number, f"r{round_number}")
            smgr.close()
        final = ShardedTransactionManager.open(tmp_path)
        assert final.last_recovery.rows_loaded == {"A": 3, "B": 3}
        with final.snapshot() as view:
            for i in range(3):
                assert view.multi_get(["A", "B"], i) == {"A": f"r{i}", "B": f"r{i}"}
        final.close()
