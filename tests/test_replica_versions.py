"""Replica version lists: bounded by the floor, seq-idempotent apply.

A :class:`~repro.core.replication.ShardReplica` keeps each replicated key
in an :class:`~repro.core.version_store.MVCCObject` whose on-demand GC
trims at the replica's *floor* (the image cut, raised before each applied
batch to ``min(follower_read_ts, applied_cts)``).  Under test:

* the versions a replica holds stay O(keys) over a long commit stream,
  live and after a cold ``ShardReplica.load`` of its WAL, while follower
  reads at ``follower_read_ts()`` are still served by a replica;
* records at or below ``confirmed_seq`` (the image already holds them)
  never apply, live or on replay — an install out of cts order would
  make a stale value live;
* a follower read below the floor is not served by the replica: it falls
  back to the primary, which refuses rather than answer ``None`` when it
  may have collected the version;
* a held ``follower_read_ts()`` pins every replica floor at or below it.
"""

from __future__ import annotations

import pytest

from repro.core import ShardedTransactionManager
from repro.core.durability import encode_commit_record
from repro.core.replication import ShardReplica
from repro.core.version_store import DEFAULT_SLOTS
from repro.core.write_set import WriteSet
from repro.errors import SnapshotTooOld
from repro.storage.wal import KIND_TXN_COMMIT

KEYS = 10
COMMITS = 1000


def make_single_shard(tmp_path, **kwargs):
    smgr = ShardedTransactionManager(
        num_shards=1,
        protocol="mvcc",
        data_dir=tmp_path,
        replication_factor=2,
        ack="quorum",
        **kwargs,
    )
    smgr.create_table("A")
    smgr.register_group("g", ["A"])
    return smgr


def replica_versions(replica: ShardReplica) -> int:
    return sum(
        obj.version_count()
        for table in replica._objects.values()
        for obj in table.values()
    )


def commit_record(seq: int, cts: int, key, value) -> tuple[int, int, bytes]:
    writes = WriteSet()
    writes.upsert(key, value)
    return seq, KIND_TXN_COMMIT, encode_commit_record(seq, cts, {"A": writes})


class TestBoundedVersions:
    def test_replica_versions_stay_bounded_by_keys(self, tmp_path):
        smgr = make_single_shard(tmp_path, checkpoint_interval=256)
        try:
            for i in range(COMMITS):
                with smgr.transaction() as txn:
                    smgr.write(txn, "A", i % KEYS, i)
            expected = {k: COMMITS - KEYS + k for k in range(KEYS)}
            replicas = smgr._replication[0].replicas
            for replica in replicas:
                assert replica_versions(replica) <= KEYS * DEFAULT_SLOTS
            ts = smgr.follower_read_ts()
            served = smgr.follower_reads
            primary = smgr.table(0, "A")
            for key, value in expected.items():
                assert primary.read_version_at(key, ts).value == value
                assert smgr.read_follower("A", key, ts) == value
            assert smgr.follower_reads == served + KEYS
            paths = [(r.path, r.replica_id) for r in replicas]
        finally:
            smgr.close()
        for path, replica_id in paths:
            cold = ShardReplica.load(path, replica_id)
            try:
                assert replica_versions(cold) <= KEYS * DEFAULT_SLOTS
                rows = {key: value for key, value, _ in cold.live_items()["A"]}
                assert rows == expected
            finally:
                cold.close()


class TestStaleRecords:
    IMAGE = {"A": [("k", "image")]}

    def check(self, replica: ShardReplica) -> None:
        live = {key: (value, cts) for key, value, cts in replica.live_items()["A"]}
        assert live == {"k": ("image", 5), "m": ("fresh", 6)}
        assert replica.confirmed_seq == 11
        assert replica.applied_cts == 6
        assert replica.read_at("A", "k", 6) == (True, "image")

    def records(self):
        return [
            commit_record(9, 4, "k", "stale"),
            commit_record(10, 5, "m", "covered"),
            commit_record(11, 6, "m", "fresh"),
        ]

    def test_apply_skips_records_the_image_holds(self, tmp_path):
        replica = ShardReplica(tmp_path, 0)
        try:
            replica.bootstrap(5, {"g": 5}, self.IMAGE, confirmed_seq=10)
            replica.apply_batch(self.records())
            self.check(replica)
        finally:
            replica.close()

    def test_load_skips_frames_after_the_marker_the_image_holds(self, tmp_path):
        replica = ShardReplica(tmp_path, 0)
        try:
            replica.bootstrap(5, {"g": 5}, self.IMAGE, confirmed_seq=10)
            stale, _, fresh = self.records()
            # The WAL a rebase racing a ship round leaves behind:
            # [marker(confirmed_seq=10), frame 9, frame 11].
            replica.append_batch([stale, fresh])
        finally:
            replica.close()
        cold = ShardReplica.load(tmp_path, 0)
        try:
            self.check(cold)
        finally:
            cold.close()


class TestFloorFallback:
    def test_read_below_the_floor_falls_back_to_the_primary(self, tmp_path):
        smgr = make_single_shard(tmp_path)
        try:
            with smgr.transaction() as txn:
                smgr.write(txn, "A", 0, "old")
            with smgr.snapshot() as view:
                assert view.get("A", 0) == "old"
                old_ts = view.pinned_snapshots()[0]["g"]
                for i in range(3 * DEFAULT_SLOTS):
                    with smgr.transaction() as txn:
                        smgr.write(txn, "A", 0, i)
                replicas = smgr._replication[0].replicas
                assert all(r.floor > old_ts for r in replicas)
                served = smgr.follower_reads
                assert smgr.read_follower("A", 0, old_ts) == "old"
                assert smgr.follower_reads == served
                # the held snapshot keeps the primary's version readable
                assert view.get("A", 0) == "old"
        finally:
            smgr.close()


class TestFollowerPins:
    def test_held_follower_ts_survives_the_floor(self, tmp_path):
        smgr = make_single_shard(tmp_path)
        try:
            with smgr.transaction() as txn:
                smgr.write(txn, "A", 0, "old")
            ts = smgr.follower_read_ts()
            for i in range(3 * DEFAULT_SLOTS):
                with smgr.transaction() as txn:
                    smgr.write(txn, "A", 0, i)
            served = smgr.follower_reads
            assert smgr.read_follower("A", 0, ts) == "old"
            assert smgr.follower_reads == served + 1
            # Dropping the timestamp releases its pin: the floors pass it
            # and the versions visible at it are collected.
            old_ts = int(ts)
            del ts
            for i in range(3 * DEFAULT_SLOTS):
                with smgr.transaction() as txn:
                    smgr.write(txn, "A", 0, i)
            replicas = smgr._replication[0].replicas
            assert all(r.floor > old_ts for r in replicas)
            with pytest.raises(SnapshotTooOld):
                smgr.read_follower("A", 0, old_ts)
            assert smgr.read_follower("A", 0) == 3 * DEFAULT_SLOTS - 1
        finally:
            smgr.close()
