"""Online shard split/merge: durable round trips and the crash matrix.

The migration contract under test (``split_shard`` / ``merge_shard`` on a
``data_dir=`` manager):

* a completed split survives close/reopen — the slot map, the migrated
  rows and the per-group watermarks all come back, and the moved keys'
  stale source copies never resurface;
* a ``kill -9`` at **every** durable phase boundary of a split — and of a
  merge, which takes the same slot handover — recovers to exactly the
  pre- or the post-migration state, never a mix.  The flip record in the
  coordinator log is the commit point:

  ========================  =============================================
  crash point               recovered state
  ========================  =============================================
  ``copy``     (image       pre-split — target holds half-copied rows,
  copied, no flip)          recovery purges everything its slots don't own
  ``catchup``  (suffix      pre-split — target data is durable but
  replayed + target         unreachable (no slot routes to it) and purged
  checkpointed, no flip)
  ``flip``     (flip record pre-split
  *torn*)
  ``flip``     (flip record post-split — schema.json still has the old
  durable, schema stale)    map; recovery rolls it forward from the log
  ========================  =============================================

* validation: a slot map inconsistent with the shard count / on-disk
  shard directories is rejected with ``StorageError`` before any on-disk
  side effect (the PR 3 ``num_shards``-mismatch discipline).
"""

from __future__ import annotations

import json

import pytest

from repro.core import NUM_SLOTS, ShardedTransactionManager
from repro.core.durability import recovered_commits
from repro.errors import StorageError
from repro.recovery.sharded import (
    ShardedSchema,
    coordinator_log_path,
    schema_path,
    shard_dir,
)

from helpers import run_crash_child, scan_all


ROWS = 120


def make_durable(tmp_path, num_shards: int = 4, **kwargs):
    smgr = ShardedTransactionManager(
        num_shards=num_shards, protocol="mvcc", data_dir=tmp_path, **kwargs
    )
    smgr.create_table("A")
    smgr.register_group("g", ["A"])
    for i in range(ROWS):
        with smgr.transaction() as txn:
            smgr.write(txn, "A", i, i * 11)
    return smgr


EXPECTED = {i: i * 11 for i in range(ROWS)}


# ------------------------------------------------------- durable round trip


class TestDurableSplit:
    def test_split_then_reopen_keeps_routing_and_state(self, tmp_path):
        smgr = make_durable(tmp_path)
        target = smgr.split_shard(0)
        assert target == 4
        # post-split traffic commits against the new owner
        for i in range(ROWS, ROWS + 24):
            with smgr.transaction() as txn:
                smgr.write(txn, "A", i, i * 11)
        expected = {i: i * 11 for i in range(ROWS + 24)}
        assert scan_all(smgr, "A") == expected
        smgr.close()

        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.num_shards == 5
        assert reopened.slot_map.epoch == 1
        assert reopened.slot_map.slots_of(4) == list(range(4, NUM_SLOTS, 8))
        assert scan_all(reopened, "A") == expected
        # moved keys live on the target partition and ONLY there
        for key, _ in reopened.table(4, "A").scan_live():
            assert reopened.shard_of(key) == 4
        source_keys = {k for k, _ in reopened.table(0, "A").scan_live()}
        target_keys = {k for k, _ in reopened.table(4, "A").scan_live()}
        assert target_keys and not (source_keys & target_keys)
        reopened.close()

    def test_merge_then_reopen(self, tmp_path):
        smgr = make_durable(tmp_path)
        target = smgr.split_shard(2)
        assert smgr.merge_shard(target, 2) == 32
        assert scan_all(smgr, "A") == EXPECTED
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.slot_map.slots_of(target) == []
        assert scan_all(reopened, "A") == EXPECTED
        assert list(reopened.table(target, "A").scan_live()) == []
        reopened.close()

    def test_split_keeps_commit_wals_bounded(self, tmp_path):
        """The migration's own cuts leave both shards' tails truncated."""
        smgr = make_durable(tmp_path, checkpoint_interval=64)
        smgr.split_shard(1)
        for idx in (1, smgr.num_shards - 1):
            assert smgr.daemons[idx].records_since_checkpoint() == 0
        smgr.close()

    def test_repeated_splits_reach_uniform_double(self, tmp_path):
        smgr = make_durable(tmp_path)
        for source in range(4):
            smgr.split_shard(source)
        assert list(smgr.slot_map.slots) == [s % 8 for s in range(NUM_SLOTS)]
        assert scan_all(smgr, "A") == EXPECTED
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.num_shards == 8
        assert scan_all(reopened, "A") == EXPECTED
        reopened.close()


# ------------------------------------------------------------- crash matrix


_MIGRATION_CRASH_SCRIPT = r"""
import os, sys
from repro.core import ShardedTransactionManager

smgr = ShardedTransactionManager(
    num_shards=4, protocol="mvcc", data_dir=sys.argv[1],
)
smgr.create_table("A")
smgr.register_group("g", ["A"])
for i in range(120):
    with smgr.transaction() as txn:
        smgr.write(txn, "A", i, i * 11)

crash_phase, op = sys.argv[2], sys.argv[3]

def fault(phase):
    if phase == crash_phase:
        os._exit(41)

smgr.faults.register("migration", fault)
if op == "split":
    smgr.split_shard(0)
else:
    smgr.merge_shard(3, 1)
os._exit(7)  # only when the requested phase never fired
"""


def _run_migration_crash(tmp_path, phase: str, op: str) -> None:
    proc = run_crash_child(_MIGRATION_CRASH_SCRIPT, tmp_path, phase, op)
    assert proc.returncode == 41, (proc.returncode, proc.stderr)


#: ``merge_shard(3, 1)`` on the uniform 4-shard map: what each side owns.
MERGE_SOURCE_SLOTS = list(range(3, NUM_SLOTS, 4))
MERGED_TARGET_SLOTS = sorted(list(range(1, NUM_SLOTS, 4)) + MERGE_SOURCE_SLOTS)


def _assert_pre_merge(reopened) -> None:
    assert reopened.num_shards == 4
    assert reopened.slot_map.epoch == 0
    assert reopened.slot_map.slots_of(3) == MERGE_SOURCE_SLOTS
    assert scan_all(reopened, "A") == EXPECTED
    # the target's copies of the source's rows were purged, not resurrected
    for key, _ in reopened.table(1, "A").scan_live():
        assert reopened.shard_of(key) == 1


class TestCrashMatrix:
    @pytest.mark.parametrize("phase", ["copy", "catchup"])
    def test_crash_before_flip_recovers_pre_split(self, tmp_path, phase):
        _run_migration_crash(tmp_path, phase, "split")
        reopened = ShardedTransactionManager.open(tmp_path)
        # the grown (empty) shard reopens, but no slot routes to it
        assert reopened.num_shards == 5
        assert reopened.slot_map.epoch == 0
        assert reopened.slot_map.slots_of(4) == []
        assert scan_all(reopened, "A") == EXPECTED
        # half-migrated target rows were purged, not resurrected.  (At
        # the "copy" boundary the copied rows may not even have left the
        # process's buffered LSM WAL, so only "catchup" — which cut a
        # durable target checkpoint — *must* find rows to purge.)
        assert list(reopened.table(4, "A").scan_live()) == []
        if phase == "catchup":
            assert reopened.last_recovery.stale_keys_purged > 0
        # the manager is fully live: splitting again succeeds
        reopened.split_shard(0)
        assert scan_all(reopened, "A") == EXPECTED
        reopened.close()

    def test_crash_after_durable_flip_recovers_post_split(self, tmp_path):
        _run_migration_crash(tmp_path, "flip", "split")
        # schema.json still carries the pre-flip map: the coordinator log
        # is the authority
        schema = ShardedSchema.load(tmp_path)
        assert schema.slot_epoch == 0
        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.slot_map.epoch == 1
        assert reopened.slot_map.slots_of(4) == list(range(4, NUM_SLOTS, 8))
        assert scan_all(reopened, "A") == EXPECTED
        # stale source copies of the moved keys were purged by recovery
        for key, _ in reopened.table(0, "A").scan_live():
            assert reopened.shard_of(key) == 0
        target_keys = {k for k, _ in reopened.table(4, "A").scan_live()}
        assert target_keys == {k for k in EXPECTED if k % 8 == 4}
        # reopening *again* must be stable (schema caught up on first open)
        reopened.close()
        schema = ShardedSchema.load(tmp_path)
        assert schema.slot_epoch == 1
        again = ShardedTransactionManager.open(tmp_path)
        assert again.slot_map.epoch == 1
        assert scan_all(again, "A") == EXPECTED
        again.close()

    @pytest.mark.parametrize("phase", ["copy", "catchup"])
    def test_crash_before_flip_recovers_pre_merge(self, tmp_path, phase):
        _run_migration_crash(tmp_path, phase, "merge")
        reopened = ShardedTransactionManager.open(tmp_path)
        _assert_pre_merge(reopened)
        if phase == "catchup":
            assert reopened.last_recovery.stale_keys_purged > 0
        # the manager is fully live: merging again succeeds
        assert reopened.merge_shard(3, 1) == len(MERGE_SOURCE_SLOTS)
        assert scan_all(reopened, "A") == EXPECTED
        reopened.close()

    def test_crash_after_durable_flip_recovers_post_merge(self, tmp_path):
        _run_migration_crash(tmp_path, "flip", "merge")
        assert ShardedSchema.load(tmp_path).slot_epoch == 0
        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.slot_map.epoch == 1
        assert reopened.slot_map.slots_of(3) == []
        assert reopened.slot_map.slots_of(1) == MERGED_TARGET_SLOTS
        assert scan_all(reopened, "A") == EXPECTED
        # the husk's stale copies were purged by recovery
        assert list(reopened.table(3, "A").scan_live()) == []
        reopened.close()
        assert ShardedSchema.load(tmp_path).slot_epoch == 1
        again = ShardedTransactionManager.open(tmp_path)
        assert again.slot_map.slots_of(1) == MERGED_TARGET_SLOTS
        assert scan_all(again, "A") == EXPECTED
        again.close()

    def test_torn_flip_record_recovers_pre_merge(self, tmp_path):
        _run_migration_crash(tmp_path, "flip", "merge")
        log = coordinator_log_path(tmp_path)
        with open(log, "r+b") as fh:
            fh.truncate(max(0, log.stat().st_size - 5))
        reopened = ShardedTransactionManager.open(tmp_path)
        _assert_pre_merge(reopened)
        reopened.close()

    def test_torn_flip_record_recovers_pre_split(self, tmp_path):
        """A flip record whose tail bytes never hit the disk fails its CRC
        and does not count — the migration never committed."""
        _run_migration_crash(tmp_path, "flip", "split")
        log = coordinator_log_path(tmp_path)
        with open(log, "r+b") as fh:
            fh.truncate(max(0, log.stat().st_size - 5))
        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.slot_map.epoch == 0
        assert reopened.slot_map.slots_of(4) == []
        assert scan_all(reopened, "A") == EXPECTED
        assert list(reopened.table(4, "A").scan_live()) == []
        reopened.close()

    def test_post_split_crash_under_load_loses_nothing(self, tmp_path):
        """Commits accepted AFTER a split survive a later hard kill."""
        script = r"""
import os, sys
from repro.core import ShardedTransactionManager

smgr = ShardedTransactionManager(num_shards=4, protocol="mvcc", data_dir=sys.argv[1])
smgr.create_table("A")
smgr.register_group("g", ["A"])
for i in range(120):
    with smgr.transaction() as txn:
        smgr.write(txn, "A", i, i * 11)
smgr.split_shard(0)
for i in range(120, 160):
    with smgr.transaction() as txn:
        smgr.write(txn, "A", i, i * 11)
os._exit(41)
"""
        proc = run_crash_child(script, tmp_path)
        assert proc.returncode == 41, proc.stderr
        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.slot_map.epoch == 1
        assert scan_all(reopened, "A") == {i: i * 11 for i in range(160)}
        reopened.close()


# ----------------------------------------------------- slot-map validation


class TestSlotMapValidation:
    def test_out_of_range_slot_entry_is_rejected_before_side_effects(
        self, tmp_path
    ):
        smgr = make_durable(tmp_path)
        smgr.close()
        path = schema_path(tmp_path)
        payload = json.loads(path.read_text())
        payload["slot_map"][7] = 9  # no shard 9 in a 4-shard layout
        path.write_text(json.dumps(payload))
        before = sorted(p.name for p in tmp_path.rglob("*"))
        with pytest.raises(StorageError, match=r"open\(\)"):
            ShardedTransactionManager(num_shards=4, data_dir=tmp_path)
        with pytest.raises(StorageError, match="slot map"):
            ShardedTransactionManager.open(tmp_path)
        assert sorted(p.name for p in tmp_path.rglob("*")) == before

    def test_stray_shard_directory_is_rejected(self, tmp_path):
        smgr = make_durable(tmp_path)
        smgr.close()
        shard_dir(tmp_path, 7).mkdir()
        with pytest.raises(StorageError, match="shard-07"):
            ShardedTransactionManager.open(tmp_path)

    def test_schema_without_slot_map_is_refused(self, tmp_path):
        smgr = make_durable(tmp_path)
        smgr.close()
        path = schema_path(tmp_path)
        payload = json.loads(path.read_text())
        del payload["slot_map"]
        path.write_text(json.dumps(payload))
        before = _tree_bytes(tmp_path)
        with pytest.raises(StorageError, match=r"open\(\)"):
            ShardedTransactionManager(num_shards=4, data_dir=tmp_path)
        with pytest.raises(StorageError, match="no 'slot_map' field"):
            ShardedTransactionManager.open(tmp_path)
        assert _tree_bytes(tmp_path) == before


def _tree_bytes(root) -> dict[str, bytes]:
    """Every file under ``root`` -> its contents."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _append_commit(data_dir, shard: int, txn_id: int, commit_ts: int, key, value):
    """Append one committed write of ``key`` to ``shard``'s commit WAL."""
    from repro.core.durability import encode_commit_record
    from repro.core.write_set import WriteSet
    from repro.storage.wal import KIND_TXN_COMMIT, WriteAheadLog

    ws = WriteSet()
    ws.upsert(key, value)
    wal = WriteAheadLog(
        ShardedTransactionManager.commit_wal_path(data_dir, shard), sync=True
    )
    wal.append(KIND_TXN_COMMIT, encode_commit_record(txn_id, commit_ts, {"A": ws}))
    wal.close()


# ------------------------------------------- review-hardening regressions


class TestMisroutedRows:
    def test_misrouted_row_on_unmigrated_store_is_refused(self, tmp_path):
        """Without a migration nothing moves a key off its home shard, so
        a key on the wrong shard means a damaged or hand-edited layout:
        recovery refuses it, naming the shard and key, and deletes
        nothing."""
        smgr = make_durable(tmp_path)
        last_ts = max(s.context.last_cts("g") for s in smgr.shards)
        smgr.close()
        # key 1000's slot-map home is shard 0; commit it on shard 2
        _append_commit(tmp_path, 2, 900_000, last_ts, 1000, "misrouted")
        before = sorted(p.name for p in tmp_path.rglob("*"))
        with pytest.raises(StorageError, match=r"shard 2 .*key 1000"):
            ShardedTransactionManager.open(tmp_path)
        assert sorted(p.name for p in tmp_path.rglob("*")) == before
        # the refused row is still in shard 2's commit WAL
        wal = ShardedTransactionManager.commit_wal_path(tmp_path, 2)
        assert [r.txn_id for r in recovered_commits(wal)] == [900_000]

    def test_stale_copy_on_migrated_store_is_evicted(self, tmp_path):
        """Once a migration has started, a key on the wrong shard is a
        migration leftover whose authoritative copy is with the slot
        owner: recovery evicts it."""
        smgr = make_durable(tmp_path)
        smgr.merge_shard(3, 1)
        assert smgr.migrations_started
        assert smgr.shard_of(8) == 0
        last_ts = max(s.context.last_cts("g") for s in smgr.shards)
        smgr.close()
        # a stale copy of key 8 (home: shard 0) on shard 2
        _append_commit(tmp_path, 2, 900_000, last_ts, 8, "stale")
        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.last_recovery.stale_keys_purged == 1
        assert scan_all(reopened, "A") == EXPECTED
        assert 8 not in {k for k, _ in reopened.table(2, "A").scan_live()}
        reopened.close()


class TestHuskCompactionWatermark:
    def test_husk_shard_does_not_pin_coordinator_log_compaction(self, tmp_path):
        """A merged-away (slot-less) shard's frozen checkpoint timestamp
        must not hold every later 2PC decision in the coordinator log."""
        smgr = make_durable(tmp_path)
        smgr.merge_shard(3, 1)
        # a cross-shard decision strictly after the husk froze
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 0, "x")  # shard 0
            smgr.write(txn, "A", 2, "y")  # shard 2
        assert len(smgr.coordinator_log) == 1
        # advance every *active* shard past the decision, then cut
        for key in (0, 1, 2):
            with smgr.transaction() as txn:
                smgr.write(txn, "A", key, "z")
        smgr.checkpoint(parallel=False)
        assert len(smgr.coordinator_log) == 0
        smgr.close()


def _assert_failed_flip_fences(smgr, tmp_path, handover) -> None:
    from repro.errors import WALError

    def boom(flip):
        raise WALError("injected flip fsync failure")

    smgr.coordinator_log.log_slot_flip = boom
    with pytest.raises(WALError):
        handover(smgr)
    assert smgr.fenced
    with pytest.raises(StorageError):
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 0, "refused")
    smgr.close()
    reopened = ShardedTransactionManager.open(tmp_path)
    assert reopened.slot_map.epoch == 0  # nothing was written: pre-flip
    assert scan_all(reopened, "A") == EXPECTED
    reopened.close()


class TestFlipDurabilityFailure:
    """If the flip record's durability cannot be confirmed, the on-disk
    routing state is uncertain: the manager must fence (no further
    commits could survive a reopen that resolves post-flip) and the
    reopen must land on a consistent pre- or post-flip state.  Split,
    merge and failover share the one handover path, so a split and a
    failover cover its fence."""

    def test_failed_flip_fsync_fences_the_manager(self, tmp_path):
        smgr = make_durable(tmp_path)
        _assert_failed_flip_fences(smgr, tmp_path, lambda m: m.split_shard(0))

    def test_failed_promotion_flip_fsync_fences_the_manager(self, tmp_path):
        smgr = make_durable(tmp_path, replication_factor=2)
        _assert_failed_flip_fences(smgr, tmp_path, lambda m: m.failover(0))

    def test_log_slot_flip_wait_failure_leaves_no_phantom_flip(self, tmp_path):
        """A flip whose batched fsync wait fails must not linger in the
        in-memory flip table — a later compact() rewrite would durably
        persist a flip the migration reported as failed."""
        from repro.core import SlotFlip
        from repro.errors import WALError
        from repro.recovery.sharded import CoordinatorLog

        log = CoordinatorLog(tmp_path / "coordinator.log")

        def failing_wait(seq, timeout=None):
            raise WALError("injected wait failure")

        log._daemon.wait_durable = failing_wait
        with pytest.raises(WALError):
            log.log_slot_flip(SlotFlip(1, {0: 1}))
        assert log.slot_flips() == []
        # a compaction rewrite after the failure re-persists no phantom
        log.compact(10**9)
        assert CoordinatorLog._read_log(tmp_path / "coordinator.log")[1] == {}


def test_num_shards_beyond_slot_space_is_rejected():
    with pytest.raises(ValueError, match="slot space"):
        ShardedTransactionManager(num_shards=NUM_SLOTS + 1)
