"""Shard replication and failover: WAL-tail shipping, quorum acks,
follower reads, and the promotion crash matrix.

The replication contract under test (``replication_factor=`` / ``ack=``
on a ``data_dir=`` manager):

* ``ack="quorum"`` commits return only after a majority of the shard's
  replicas hold the commit's WAL batch durably — so a quorum-acked
  commit survives the **loss of the primary's entire storage** via
  ``failover(source, catch_up=False)``, which promotes strictly from
  replica-durable state;
* a ``kill -9`` at every replication/promotion fault point recovers to a
  consistent state.  The one-sided invariants of the machine-loss matrix
  (crash at ``ship`` / ``replica_apply``, reopen, cold-promote):

  ================  =======================================================
  invariant         every *acked* commit is recovered (quorum durability);
                    every *recovered* commit was *attempted* (nothing is
                    invented); at the first ``ship`` firing nothing was
                    ever replicated, so no un-acked commit resurrects on
                    the promoted shard
  ================  =======================================================

  and of the promotion matrix (crash at ``promote_pre_flip`` /
  ``promote_post_flip``): the durable ``SlotFlip`` is the commit point —
  recovery lands wholly pre-flip or wholly post-flip, never a mix, with
  no committed row lost either way;
* follower reads are *snapshots*: served at
  ``min(replica watermark, global snapshot barrier)`` they never observe
  a fractured cross-shard commit (the transfer invariant), even while
  transfers race the reader;
* a wedged replica degrades — bounded ``ReplicaAckTimeout`` after the
  commit is applied locally, lagging in stats — it never hangs the
  committer; transient ship faults are absorbed by the bounded retry.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import ShardedTransactionManager
from repro.errors import ReplicaAckTimeout
from repro.faults import FaultInjector

from helpers import run_crash_child, scan_all


ROWS = 40
EXPECTED = {i: i * 7 for i in range(ROWS)}


def make_replicated(tmp_path, num_shards=2, rf=2, ack="quorum", **kwargs):
    smgr = ShardedTransactionManager(
        num_shards=num_shards,
        protocol="mvcc",
        data_dir=tmp_path,
        replication_factor=rf,
        ack=ack,
        **kwargs,
    )
    smgr.create_table("A")
    smgr.register_group("g", ["A"])
    return smgr


def load_rows(smgr, n=ROWS, start=0):
    for i in range(start, start + n):
        with smgr.transaction() as txn:
            smgr.write(txn, "A", i, i * 7)


# --------------------------------------------------------- live replication


class TestLiveReplication:
    def test_quorum_commits_are_replica_durable(self, tmp_path):
        smgr = make_replicated(tmp_path)
        try:
            load_rows(smgr)
            assert scan_all(smgr, "A") == EXPECTED
            stats = smgr.replication_stats()
            assert stats["replication_factor"] == 2
            assert stats["ack"] == "quorum"
            assert stats["ack_degraded_commits"] == 0
            for idx, entry in enumerate(stats["shards"]):
                assert entry is not None
                assert entry["replicas"] == 2
                assert entry["lagging_replicas"] == 0
                # every commit collected its quorum before returning, so
                # the replica-durable watermark tracks the enqueued tail
                assert entry["quorum_acks"] > 0
                assert (
                    entry["replica_durable_watermark"]
                    == smgr.daemons[idx].last_enqueued()
                )
            assert smgr.stats()["replica_acks"] > 0
        finally:
            smgr.close()

    def test_follower_reads_match_primary_at_same_ts(self, tmp_path):
        smgr = make_replicated(tmp_path)
        try:
            load_rows(smgr)
            # one sentinel commit per shard pushes every shard's replica
            # watermark past the last real row's commit timestamp — the
            # follower snapshot (the min across shards) then covers all
            # of EXPECTED.  (Without this, the newest row can correctly
            # read as absent: follower reads are snapshots, staleness is
            # not a bug.)
            for key in (1000, 1001):
                with smgr.transaction() as txn:
                    smgr.write(txn, "A", key, "sentinel")
            ts = smgr.follower_read_ts()
            assert ts > 0
            for key, value in EXPECTED.items():
                assert smgr.read_follower("A", key, ts) == value
            assert smgr.follower_reads > 0
        finally:
            smgr.close()

    def test_knobs_survive_reopen(self, tmp_path):
        smgr = make_replicated(tmp_path)
        load_rows(smgr)
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        try:
            assert reopened.replication_factor == 2
            assert reopened.ack == "quorum"
            assert scan_all(reopened, "A") == EXPECTED
            # replicas re-bootstrapped from the recovered image: follower
            # reads serve the full state again
            load_rows(reopened, n=10, start=ROWS)
            ts = reopened.follower_read_ts()
            assert reopened.read_follower("A", ROWS + 5, ts) == (ROWS + 5) * 7
        finally:
            reopened.close()

    def test_quorum_ack_requires_a_replica(self, tmp_path):
        with pytest.raises(ValueError, match="quorum"):
            ShardedTransactionManager(
                num_shards=2,
                data_dir=tmp_path,
                replication_factor=0,
                ack="quorum",
            )


# ---------------------------------------------------------- follower reads


class TestFollowerReadConsistency:
    BALANCE = 100

    def test_transfer_invariant_never_fractures(self, tmp_path):
        """Reads at one ``follower_read_ts`` across shards must observe
        whole cross-shard transfers, never half of one — the PR 6
        fractured-read guarantee composed with replica staleness."""
        smgr = make_replicated(tmp_path)
        try:
            txn = smgr.begin()
            smgr.write(txn, "A", 0, self.BALANCE)  # shard 0
            smgr.write(txn, "A", 1, self.BALANCE)  # shard 1
            smgr.commit(txn)

            stop = threading.Event()

            def transfers():
                while not stop.is_set():
                    def work(txn):
                        a = smgr.read(txn, "A", 0)
                        b = smgr.read(txn, "A", 1)
                        smgr.write(txn, "A", 0, a - 5)
                        smgr.write(txn, "A", 1, b + 5)

                    smgr.run_transaction(work, max_restarts=10_000)

            helper = threading.Thread(target=transfers)
            helper.start()
            try:
                for _ in range(50):
                    ts = smgr.follower_read_ts()
                    a = smgr.read_follower("A", 0, ts)
                    b = smgr.read_follower("A", 1, ts)
                    assert a + b == 2 * self.BALANCE, (ts, a, b)
            finally:
                stop.set()
                helper.join()
        finally:
            smgr.close()

    def test_replica_bootstrap_across_concurrent_split(self, tmp_path):
        """A live ``split_shard`` under write load re-bootstraps both
        sides' replicas; follower reads stay consistent afterwards."""
        smgr = make_replicated(tmp_path)
        try:
            load_rows(smgr)
            stop = threading.Event()

            def writer():
                i = ROWS
                while not stop.is_set():
                    # a commit racing the flip gets a routing-stale abort
                    # and must restart against the new owner
                    smgr.run_transaction(
                        lambda txn, i=i: smgr.write(txn, "A", i, i * 7),
                        max_restarts=10_000,
                    )
                    i += 1

            helper = threading.Thread(target=writer)
            helper.start()
            try:
                target = smgr.split_shard(0)
            finally:
                stop.set()
                helper.join()
            stats = smgr.replication_stats()
            assert stats["shards"][0]["replicas"] == 2
            assert stats["shards"][target]["replicas"] == 2
            contents = scan_all(smgr, "A")
            assert {k: v for k, v in contents.items() if k < ROWS} == EXPECTED
            # follower reads agree with primary reads at the same snapshot
            ts = smgr.follower_read_ts()
            assert ts > 0
            for key in list(EXPECTED)[:16]:
                assert smgr.read_follower("A", key, ts) == key * 7
        finally:
            smgr.close()


# ------------------------------------------------- degrade, never wedge


class TestBoundedDegrade:
    def test_wedged_replica_degrades_with_bounded_timeout(self, tmp_path):
        """A replica whose shipping permanently fails is marked lagging;
        quorum commits raise ``ReplicaAckTimeout`` *after* the local
        apply, within the bounded window — the committer never hangs."""
        smgr = make_replicated(
            tmp_path, num_shards=1, rf=1, replica_ack_timeout=1.0
        )
        try:
            load_rows(smgr, n=4)
            smgr.faults.register(
                "ship", FaultInjector.fail_times(10**6, lambda: IOError("dead"))
            )
            started = time.monotonic()
            with pytest.raises(ReplicaAckTimeout):
                with smgr.transaction() as txn:
                    smgr.write(txn, "A", 99, "degraded")
            assert time.monotonic() - started < 5.0
            # the commit itself was applied and durable locally — only
            # the replica-durability guarantee degraded
            with smgr.snapshot() as view:
                assert view.get("A", 99) == "degraded"
            stats = smgr.replication_stats()
            assert stats["ack_degraded_commits"] >= 1
            assert stats["shards"][0]["lagging_replicas"] == 1
            assert stats["shards"][0]["replica_ack_timeouts"] >= 1
        finally:
            smgr.close()

    def test_transient_ship_faults_are_absorbed_by_retry(self, tmp_path):
        """Two transient ship failures stay inside the bounded backoff
        budget: the batch ships on a later attempt, nobody degrades."""
        smgr = make_replicated(
            tmp_path, num_shards=1, rf=1, replica_ack_timeout=5.0
        )
        try:
            smgr.faults.register(
                "ship", FaultInjector.fail_times(2, lambda: IOError("blip"))
            )
            load_rows(smgr, n=6)
            assert scan_all(smgr, "A") == {i: i * 7 for i in range(6)}
            stats = smgr.replication_stats()
            assert stats["ack_degraded_commits"] == 0
            assert stats["shards"][0]["lagging_replicas"] == 0
            assert stats["shards"][0]["records_shipped"] >= 6
        finally:
            smgr.close()


# ------------------------------------------------------ live failover


class TestLiveFailover:
    def test_failover_loses_nothing_and_stays_writable(self, tmp_path):
        smgr = make_replicated(tmp_path)
        try:
            load_rows(smgr)
            target = smgr.failover(0)
            assert target == 2
            assert smgr.slot_map.slots_of(0) == []
            assert scan_all(smgr, "A") == EXPECTED
            assert smgr.failovers == 1
            # the promoted shard is a full primary: it accepts commits
            # and (rf persisted) ships to fresh replicas of its own
            load_rows(smgr, n=10, start=ROWS)
            expected = {i: i * 7 for i in range(ROWS + 10)}
            assert scan_all(smgr, "A") == expected
            assert smgr.replication_stats()["shards"][target]["replicas"] == 2
            smgr.close()
            reopened = ShardedTransactionManager.open(tmp_path)
            try:
                assert reopened.slot_map.slots_of(0) == []
                assert scan_all(reopened, "A") == expected
            finally:
                reopened.close()
        finally:
            smgr.close()  # idempotent


class TestLazyFailover:
    def test_failover_of_a_lazy_store_promotes_and_purges_cold_rows(self, tmp_path):
        smgr = make_replicated(tmp_path, state_residency="lazy")
        load_rows(smgr)
        smgr.close()
        # A lazy store faults rows in on first touch: after a reopen the
        # source's rows start cold (only in its base table).
        smgr = ShardedTransactionManager.open(tmp_path)
        try:
            src = smgr.table(0, "A")
            moved = [k for k in EXPECTED if smgr.shard_of(k) == 0]
            resident = set(src.keys())
            cold = [k for k in moved if k not in resident]
            assert cold
            target = smgr.failover(0)
            assert smgr.slot_map.slots_of(0) == []
            assert scan_all(smgr, "A") == EXPECTED
            with smgr.snapshot() as view:
                for key in moved:
                    assert view.get("A", key) == key * 7
            # the demoted shard's base table holds no moved row, cold or not
            for key in moved:
                assert src.backend.get(src.key_codec.encode(key)) is None
            # a reader that routed to the source just before the flip still
            # reads the cold moved rows (frozen in-memory copies)
            ts = smgr.oracle.current()
            for key in cold:
                entry = src.read_version_at(key, ts)
                assert entry is not None and entry.value == key * 7
        finally:
            smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        try:
            assert reopened.slot_map.slots_of(0) == []
            assert scan_all(reopened, "A") == EXPECTED
            assert {k for k, _ in reopened.table(target, "A").scan_live()} == set(moved)
        finally:
            reopened.close()


# --------------------------------------------------------- crash matrix


_SHIP_CRASH_SCRIPT = r"""
import os, sys
from repro.core import ShardedTransactionManager
from repro.faults import FaultInjector

data_dir, point, after = sys.argv[1], sys.argv[2], int(sys.argv[3])
smgr = ShardedTransactionManager(
    num_shards=2, protocol="mvcc", data_dir=data_dir,
    replication_factor=2, ack="quorum",
)
smgr.create_table("A")
smgr.register_group("g", ["A"])
attempted = open(os.path.join(data_dir, "attempted.journal"), "a")
acked = open(os.path.join(data_dir, "acked.journal"), "a")
smgr.faults.register(point, FaultInjector.crash_after(after))
for i in range(40):
    attempted.write(f"{i}\n"); attempted.flush(); os.fsync(attempted.fileno())
    txn = smgr.begin()
    smgr.write(txn, "A", i, i * 7)
    smgr.commit(txn)
    # journaled only once the quorum ack came back: this is what
    # "acked" means to the client
    acked.write(f"{i}\n"); acked.flush(); os.fsync(acked.fileno())
os._exit(7)  # the requested fault never fired enough
"""


def _journal(tmp_path, name) -> set[int]:
    path = tmp_path / name
    if not path.exists():
        return set()
    return {int(line) for line in path.read_text().split() if line}


class TestMachineLossCrashMatrix:
    """Kill the whole process at replication fault points, then model the
    loss of shard 0's primary storage: reopen and promote strictly from
    replica-durable state (``catch_up=False``)."""

    @pytest.mark.parametrize(
        "point,after",
        [("ship", 0), ("ship", 9), ("ship", 33), ("replica_apply", 9), ("replica_apply", 33)],
    )
    def test_quorum_acked_commits_survive_promotion(self, tmp_path, point, after):
        proc = run_crash_child(_SHIP_CRASH_SCRIPT, tmp_path, point, str(after))
        assert proc.returncode == 41, (proc.returncode, proc.stderr)
        acked = _journal(tmp_path, "acked.journal")
        attempted = _journal(tmp_path, "attempted.journal")
        assert acked <= attempted

        # Reopen with replication off so the surviving replica WALs are
        # not re-bootstrapped (that would overwrite them with the
        # recovered primary image), then promote shard 0's best replica.
        reopened = ShardedTransactionManager.open(
            tmp_path, replication_factor=0, ack="local"
        )
        try:
            target = reopened.failover(0, catch_up=False)
            recovered = scan_all(reopened, "A")
            # every quorum-acked commit survived the machine loss …
            for i in acked:
                assert recovered.get(i) == i * 7, (point, after, i)
            # … and nothing was invented
            assert set(recovered) <= attempted
            for i, value in recovered.items():
                assert value == i * 7
            if point == "ship" and after == 0:
                # nothing ever reached a replica: no un-acked commit of
                # the lost shard resurrects through the promotion
                assert not any(
                    reopened.shard_of(i) == target for i in recovered
                )
            # the promoted manager is live
            with reopened.transaction() as txn:
                reopened.write(txn, "A", 1000, "post")
            with reopened.snapshot() as view:
                assert view.get("A", 1000) == "post"
        finally:
            reopened.close()


_PROMOTE_CRASH_SCRIPT = r"""
import os, sys
from repro.core import ShardedTransactionManager
from repro.faults import FaultInjector

data_dir, point = sys.argv[1], sys.argv[2]
smgr = ShardedTransactionManager(
    num_shards=2, protocol="mvcc", data_dir=data_dir,
    replication_factor=2, ack="quorum",
)
smgr.create_table("A")
smgr.register_group("g", ["A"])
for i in range(40):
    with smgr.transaction() as txn:
        smgr.write(txn, "A", i, i * 7)
smgr.faults.register(point, FaultInjector.crash())
smgr.failover(0)
os._exit(7)  # the promotion fault never fired
"""


class TestPromotionCrashMatrix:
    """The durable SlotFlip is the promotion's commit point: a crash on
    either side of it reopens wholly pre- or wholly post-flip."""

    def test_crash_before_flip_recovers_pre_promotion(self, tmp_path):
        proc = run_crash_child(_PROMOTE_CRASH_SCRIPT, tmp_path, "promote_pre_flip")
        assert proc.returncode == 41, (proc.returncode, proc.stderr)
        reopened = ShardedTransactionManager.open(tmp_path)
        try:
            # the reserved shard exists but owns nothing; the source is
            # still the primary and no commit was lost
            assert reopened.num_shards == 3
            assert reopened.slot_map.epoch == 0
            assert reopened.slot_map.slots_of(2) == []
            assert scan_all(reopened, "A") == EXPECTED
            # promotion can simply run again
            reopened.failover(0)
            assert scan_all(reopened, "A") == EXPECTED
        finally:
            reopened.close()

    def test_crash_after_flip_recovers_post_promotion(self, tmp_path):
        proc = run_crash_child(_PROMOTE_CRASH_SCRIPT, tmp_path, "promote_post_flip")
        assert proc.returncode == 41, (proc.returncode, proc.stderr)
        reopened = ShardedTransactionManager.open(tmp_path)
        try:
            # the flip record was durable: recovery rolls it forward even
            # though schema.json still carried the old map
            assert reopened.slot_map.epoch == 1
            assert reopened.slot_map.slots_of(0) == []
            assert scan_all(reopened, "A") == EXPECTED
            # the demoted shard's stale copies never shadow the promoted
            # owner
            for key, _ in reopened.table(0, "A").scan_live():
                assert reopened.shard_of(key) == 0
        finally:
            reopened.close()
