"""Tests for the recovery layer: context store and restart."""

import pytest

from repro.core.codecs import PICKLE_CODEC
from repro.errors import StorageError
from repro.recovery import ContextStore, DurableSystem


class TestContextStore:
    def test_record_and_recover(self, tmp_path):
        path = tmp_path / "ctx.log"
        with ContextStore(path, sync=False) as store:
            store.record("g1", 5)
            store.record("g2", 9)
            store.record("g1", 12)
        recovered = ContextStore(path, sync=False)
        assert recovered.values() == {"g1": 12, "g2": 9}
        recovered.close()

    def test_monotonic_per_group(self, tmp_path):
        with ContextStore(tmp_path / "c.log", sync=False) as store:
            store.record("g", 10)
            store.record("g", 3)  # stale publication ignored on read-back
            assert store.last_cts("g") == 10

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "c.log"
        with ContextStore(path, sync=False) as store:
            store.record("g", 7)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe")  # torn frame
        recovered = ContextStore(path, sync=False)
        assert recovered.values() == {"g": 7}
        recovered.close()

    def test_compaction_keeps_latest(self, tmp_path):
        path = tmp_path / "c.log"
        store = ContextStore(path, sync=False, compact_after_records=10)
        for i in range(25):
            store.record("g", i + 1)
        store.close()
        size_after = path.stat().st_size
        recovered = ContextStore(path, sync=False)
        assert recovered.last_cts("g") == 25
        recovered.close()
        # compaction bounded the log: far below 25 uncompacted records
        assert size_after < 25 * 19 / 2

    def test_empty_store(self, tmp_path):
        store = ContextStore(tmp_path / "new.log", sync=False)
        assert store.values() == {}
        assert store.last_cts("g") == 0
        store.close()


class TestDurableSystem:
    def _build(self, directory, load=False):
        system = DurableSystem(directory, protocol="mvcc", sync=False)
        system.create_table("A")
        system.create_table("B")
        system.register_group("g", ["A", "B"])
        return system

    def test_committed_data_survives_restart(self, tmp_path):
        system = self._build(tmp_path)
        mgr = system.manager
        with mgr.transaction() as txn:
            mgr.write(txn, "A", 1, "a-value")
            mgr.write(txn, "B", 1, "b-value")
        expected_cts = txn.commit_ts
        system.close()

        restarted = self._build(tmp_path)
        report = restarted.recover()
        assert report.last_cts["g"] == expected_cts
        assert report.rows_recovered == {"A": 1, "B": 1}
        with restarted.manager.snapshot() as view:
            assert view.multi_get(["A", "B"], 1) == {"A": "a-value", "B": "b-value"}
        restarted.close()

    def test_uncommitted_work_does_not_survive(self, tmp_path):
        system = self._build(tmp_path)
        mgr = system.manager
        with mgr.transaction() as txn:
            mgr.write(txn, "A", 1, "committed")
            mgr.write(txn, "B", 1, "committed")
        doomed = mgr.begin()
        mgr.write(doomed, "A", 1, "uncommitted")
        # crash without aborting 'doomed'
        for table in mgr.tables():
            table.backend.close()
        system.context_store.close()

        restarted = self._build(tmp_path)
        restarted.recover()
        with restarted.manager.snapshot() as view:
            assert view.get("A", 1) == "committed"
        restarted.close()

    def test_oracle_restarts_above_recovered_cts(self, tmp_path):
        system = self._build(tmp_path)
        with system.manager.transaction() as txn:
            system.manager.write(txn, "A", 1, "x")
            system.manager.write(txn, "B", 1, "x")
        cts = txn.commit_ts
        system.close()

        restarted = self._build(tmp_path)
        restarted.recover()
        fresh = restarted.manager.begin()
        assert fresh.txn_id > cts
        restarted.manager.abort(fresh)
        restarted.close()

    def test_recovered_snapshot_boundary(self, tmp_path):
        """Recovered readers snapshot exactly at the recovered LastCTS."""
        system = self._build(tmp_path)
        with system.manager.transaction() as txn:
            system.manager.write(txn, "A", 7, "pre-crash")
            system.manager.write(txn, "B", 7, "pre-crash")
        system.close()

        restarted = self._build(tmp_path)
        report = restarted.recover()
        reader = restarted.manager.begin()
        assert restarted.manager.read(reader, "A", 7) == "pre-crash"
        assert reader.read_cts["g"] == report.last_cts["g"]
        restarted.manager.commit(reader)
        restarted.close()

    def test_system_usable_after_recovery(self, tmp_path):
        system = self._build(tmp_path)
        with system.manager.transaction() as txn:
            system.manager.write(txn, "A", 1, "v1")
            system.manager.write(txn, "B", 1, "v1")
        system.close()

        restarted = self._build(tmp_path)
        restarted.recover()
        with restarted.manager.transaction() as txn:
            restarted.manager.write(txn, "A", 1, "v2")
            restarted.manager.write(txn, "B", 1, "v2")
        with restarted.manager.snapshot() as view:
            assert view.multi_get(["A", "B"], 1) == {"A": "v2", "B": "v2"}
        restarted.close()

    def test_double_crash_recovery(self, tmp_path):
        """Recovery is idempotent across repeated crashes."""
        for round_number in range(3):
            system = self._build(tmp_path)
            if round_number:
                system.recover()
            with system.manager.transaction() as txn:
                system.manager.write(txn, "A", round_number, f"r{round_number}")
                system.manager.write(txn, "B", round_number, f"r{round_number}")
            system.close()
        final = self._build(tmp_path)
        report = final.recover()
        assert report.rows_recovered == {"A": 3, "B": 3}
        with final.manager.snapshot() as view:
            for i in range(3):
                assert view.get("A", i) == f"r{i}"
        final.close()

    def test_reopen_under_another_key_codec_is_refused(self, tmp_path):
        """A directory written with pickled keys reopened under the default
        ordered key codec raises ``StorageError`` before the state's base
        table is opened (not a decode error mid-``recover()``); reopening
        with the codec it was written with still recovers every row."""
        system = DurableSystem(tmp_path, sync=False, key_codec=PICKLE_CODEC)
        system.create_table("A")
        with system.manager.transaction() as txn:
            system.manager.write(txn, "A", 1, "v")
        system.close()
        state_dir = tmp_path / "states" / "A"
        files_before = sorted(p.name for p in state_dir.iterdir())

        reopened = DurableSystem(tmp_path, sync=False)
        with pytest.raises(StorageError, match="PickleCodec"):
            reopened.create_table("A")
        assert reopened.manager.tables() == []
        reopened.close()
        assert sorted(p.name for p in state_dir.iterdir()) == files_before

        restarted = DurableSystem(tmp_path, sync=False, key_codec=PICKLE_CODEC)
        restarted.create_table("A")
        assert restarted.recover().rows_recovered == {"A": 1}
        with restarted.manager.snapshot() as view:
            assert view.get("A", 1) == "v"
        restarted.close()
