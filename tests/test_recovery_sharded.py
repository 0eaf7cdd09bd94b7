"""Crash consistency of LSM-backed shards: kill -9, reopen, compare.

The durable sharded storage contract (``data_dir=`` mode +
:mod:`repro.recovery.sharded`), tested against real process kills:

* a 4-shard run killed with ``os._exit`` mid-load reopens via
  ``ShardedTransactionManager.open()`` with committed state identical to
  the pre-crash durable watermark (everything acknowledged under ``sync``
  durability, nothing invented);
* crashes *inside* the checkpoint protocol — after the LSM flush but
  before the marker, and after the marker but before the truncation —
  both recover to the same state (redo replay is idempotent);
* a torn checkpoint marker (partial final frame) does not count as a cut:
  recovery replays the longer tail instead of trusting a half-written
  marker;
* in-doubt 2PC prepares resolve presumed-abort: no durable commit
  decision -> rolled back on all participants; durable decision (the
  coordinator outcome log) -> rolled forward on all participants;
* commit WALs stay bounded by the checkpoint interval.
"""

from __future__ import annotations

import json
import struct
import threading
import time
import zlib
from pathlib import Path

import pytest

from repro.core import ShardedTransactionManager, commit_wal_tail
from repro.core.durability import CommitLogRecord, encode_checkpoint_record
from repro.core.transactions import TxnStatus
from repro.errors import StorageError, WALError
from repro.recovery.sharded import (
    CoordinatorLog,
    ShardedSchema,
    schema_path,
    shard_dir,
)
from repro.storage.lsm import LSMOptions, LSMStore
from repro.storage.wal import KIND_CHECKPOINT, WriteAheadLog

from helpers import run_crash_child, scan_all  # shared crash-test plumbing


# ------------------------------------------------------------- clean restart


class TestDurableRoundTrip:
    def test_close_then_open_restores_state_and_watermark(self, tmp_path):
        smgr = ShardedTransactionManager(
            num_shards=4, protocol="mvcc", data_dir=tmp_path
        )
        smgr.create_table("A")
        smgr.create_table("B")
        smgr.register_group("g", ["A", "B"])
        for i in range(40):
            with smgr.transaction() as txn:
                smgr.write(txn, "A", i, {"v": i})
                smgr.write(txn, "B", -i, {"w": i})
        pre_cts = max(
            shard.context.last_cts("g") for shard in smgr.shards
        )
        smgr.close()
        # the commit WAL is the only durable record of LastCTS
        assert not list(tmp_path.rglob("context.log"))

        reopened = ShardedTransactionManager.open(tmp_path)
        report = reopened.last_recovery
        # clean shutdown checkpointed: nothing to replay
        assert report.commits_replayed == 0
        assert report.last_cts["g"] == pre_cts
        assert scan_all(reopened, "A") == {i: {"v": i} for i in range(40)}
        assert scan_all(reopened, "B") == {-i: {"w": i} for i in range(40)}
        # the reopened manager keeps working transactionally
        with reopened.transaction() as txn:
            reopened.write(txn, "A", 1000, "post")
        assert txn.commit_ts > pre_cts
        reopened.close()

    def test_leftover_context_log_is_not_read(self, tmp_path):
        """Stores written by older versions hold a per-shard
        ``context.log`` of CRC-framed ``group -> LastCTS`` records.  The
        commit WAL alone restores ``LastCTS``: a leftover file claiming a
        far-future watermark must not leak into it."""
        smgr = ShardedTransactionManager(num_shards=2, data_dir=tmp_path)
        smgr.create_table("A")
        smgr.register_group("g", ["A"])
        for i in range(6):
            with smgr.transaction() as txn:
                smgr.write(txn, "A", i, i)
        pre_cts = max(shard.context.last_cts("g") for shard in smgr.shards)
        smgr.close()
        payload = (1).to_bytes(2, "little") + b"g" + (10**9).to_bytes(8, "little")
        frame = struct.pack("<II", zlib.crc32(payload), len(payload)) + payload
        for shard in range(2):
            (shard_dir(tmp_path, shard) / "context.log").write_bytes(frame)

        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.last_recovery.last_cts["g"] == pre_cts < 10**9
        assert scan_all(reopened, "A") == {i: i for i in range(6)}
        with reopened.transaction() as txn:
            reopened.write(txn, "A", 100, "post")
        assert txn.commit_ts < 10**9
        reopened.close()

    def test_open_reads_schema_num_shards_and_protocol(self, tmp_path):
        smgr = ShardedTransactionManager(
            num_shards=3, protocol="s2pl", data_dir=tmp_path
        )
        smgr.create_table("A")
        smgr.close()
        schema = ShardedSchema.load(tmp_path)
        assert schema.num_shards == 3
        assert schema.protocol == "s2pl"
        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.num_shards == 3
        assert reopened.protocol_name == "s2pl"
        reopened.close()

    def test_recovery_is_idempotent(self, tmp_path):
        smgr = ShardedTransactionManager(num_shards=2, data_dir=tmp_path)
        smgr.create_table("A")
        for i in range(10):
            with smgr.transaction() as txn:
                smgr.write(txn, "A", i, i * 2)
        smgr.close()
        first = ShardedTransactionManager.open(tmp_path)
        state_one = scan_all(first, "A")
        first.close()
        second = ShardedTransactionManager.open(tmp_path)
        assert scan_all(second, "A") == state_one == {i: i * 2 for i in range(10)}
        second.close()

    def test_bulk_load_survives_crash_before_first_checkpoint(self, tmp_path):
        script = r"""
import os, sys
from repro.core import ShardedTransactionManager
smgr = ShardedTransactionManager(num_shards=4, data_dir=sys.argv[1])
smgr.create_table("A")
smgr.bulk_load("A", [(i, i * 7) for i in range(50)])
os._exit(42)
"""
        proc = run_crash_child(script, tmp_path)
        assert proc.returncode == 42, proc.stderr
        reopened = ShardedTransactionManager.open(tmp_path)
        assert scan_all(reopened, "A") == {i: i * 7 for i in range(50)}
        reopened.close()


# -------------------------------------------------------- kill -9 mid-load


_MID_LOAD_SCRIPT = r"""
import os, sys
from repro.core import ShardedTransactionManager

smgr = ShardedTransactionManager(
    num_shards=4, protocol="mvcc", data_dir=sys.argv[1],
    checkpoint_interval=int(sys.argv[2]),
)
smgr.create_table("A")
smgr.create_table("B")
smgr.register_group("g", ["A", "B"])

acked = []
for i in range(int(sys.argv[3])):
    txn = smgr.begin()
    smgr.write(txn, "A", i, f"a{i}")
    if i % 4 == 0:
        smgr.write(txn, "B", i + 1, f"b{i}")  # often a second shard: 2PC
    smgr.commit(txn)
    acked.append(i)
sys.stdout.write(",".join(map(str, acked)))
sys.stdout.flush()
os._exit(42)  # crash: no close(), no flush, no atexit
"""


class TestCrashMidLoad:
    @pytest.mark.parametrize("interval", [25, 0], ids=["checkpointing", "no-ckpt"])
    def test_recovered_state_equals_durable_watermark(self, tmp_path, interval):
        """The acceptance scenario: 4 shards, os._exit mid-load, reopen."""
        commits = 90
        proc = run_crash_child(_MID_LOAD_SCRIPT, tmp_path, str(interval), str(commits))
        assert proc.returncode == 42, proc.stderr
        acked = [int(x) for x in proc.stdout.split(",")]
        assert len(acked) == commits

        reopened = ShardedTransactionManager.open(tmp_path)
        report = reopened.last_recovery
        # everything acknowledged under sync durability is back — exactly
        assert scan_all(reopened, "A") == {i: f"a{i}" for i in acked}
        assert scan_all(reopened, "B") == {
            i + 1: f"b{i}" for i in acked if i % 4 == 0
        }
        # no prepare may dangle: every 2PC either replayed or resolved
        assert report.prepares_rolled_back == 0
        assert report.oracle_restarted_at >= report.last_cts["g"]
        if interval:
            # the WAL tails recovery replayed are bounded by the interval
            # (+1 commit in flight when the trigger fired)
            for shard_info in report.shards:
                assert shard_info.tail_records <= interval + 2
        reopened.close()

    def test_commit_wal_bounded_by_checkpoint_interval(self, tmp_path):
        interval = 20
        proc = run_crash_child(_MID_LOAD_SCRIPT, tmp_path, str(interval), "100")
        assert proc.returncode == 42, proc.stderr
        for shard in range(4):
            path = ShardedTransactionManager.commit_wal_path(tmp_path, shard)
            marker, tail = commit_wal_tail(path)
            # a shard's replayable tail never outgrows the interval plus
            # the records of one in-flight commit (commit + prepare)
            assert len(tail) <= interval + 2, (shard, len(tail))


# --------------------------------------------------- crashes mid-checkpoint


_MID_CHECKPOINT_SCRIPT = r"""
import os, sys
from repro.core import ShardedTransactionManager
from repro.core.durability import GroupFsyncDaemon
from repro.storage.wal import WriteAheadLog

crash_point = sys.argv[2]
smgr = ShardedTransactionManager(num_shards=2, data_dir=sys.argv[1])
smgr.create_table("A")
for i in range(30):
    with smgr.transaction() as txn:
        smgr.write(txn, "A", i, f"v{i}")

if crash_point == "before-marker":
    # LSM stores flushed, marker never written: the full tail stays
    GroupFsyncDaemon.write_checkpoint = lambda self, ts, m, covered: os._exit(42)
elif crash_point == "in-rewrite":
    # the cut's only I/O step dies before its rename: the old file stays
    WriteAheadLog.reset_to = lambda self, records: os._exit(42)
smgr.checkpoint_shard(0)
os._exit(9)  # must not get here
"""


class TestCrashMidCheckpoint:
    @pytest.mark.parametrize("crash_point", ["before-marker", "in-rewrite"])
    def test_checkpoint_crash_windows_recover_identically(self, tmp_path, crash_point):
        proc = run_crash_child(_MID_CHECKPOINT_SCRIPT, tmp_path, crash_point)
        assert proc.returncode == 42, proc.stderr
        reopened = ShardedTransactionManager.open(tmp_path)
        assert scan_all(reopened, "A") == {i: f"v{i}" for i in range(30)}
        if crash_point == "in-rewrite":
            # no marker reached the disk: shard 0 replays its whole tail
            # (idempotent redo over the pre-flushed SSTables)
            shard0 = reopened.last_recovery.shards[0]
            assert shard0.commits_replayed == 15
            assert shard0.checkpoint_ts == 0
        reopened.close()

    def test_torn_checkpoint_marker_does_not_count_as_cut(self, tmp_path):
        """A crash can tear the trailing marker mid-write; the half frame
        must fail its CRC and recovery must replay the full tail."""
        proc = run_crash_child(_MID_LOAD_SCRIPT, tmp_path, "0", "40")
        assert proc.returncode == 42, proc.stderr
        for shard in range(4):
            path = ShardedTransactionManager.commit_wal_path(tmp_path, shard)
            intact_tail = len(commit_wal_tail(path)[1])
            frame = WriteAheadLog._frame(
                KIND_CHECKPOINT, encode_checkpoint_record(10**9, {"g": 10**9})
            )
            with open(path, "ab") as fh:
                fh.write(frame[:-3])  # torn: marker loses its last bytes
            marker, tail = commit_wal_tail(path)
            assert marker is None or marker.checkpoint_ts < 10**9
            assert len(tail) == intact_tail
        reopened = ShardedTransactionManager.open(tmp_path)
        assert scan_all(reopened, "A") == {i: f"a{i}" for i in range(40)}
        # the bogus marker's timestamp never leaked into the watermark
        assert reopened.last_recovery.last_cts["g"] < 10**9
        reopened.close()


# ------------------------------------------------------- in-doubt prepares


_IN_DOUBT_SCRIPT = r"""
import os, sys
from repro.core import ShardedTransactionManager

mode = sys.argv[2]
smgr = ShardedTransactionManager(num_shards=2, protocol="mvcc", data_dir=sys.argv[1])
smgr.create_table("A")
for k in range(4):
    with smgr.transaction() as txn:
        smgr.write(txn, "A", k, f"base{k}")

txn = smgr.begin()
smgr.write(txn, "A", 10, "cross")  # shard 0
smgr.write(txn, "A", 11, "cross")  # shard 1
if mode == "no-decision":
    # crash after the second participant's durable prepare vote, before
    # any commit decision exists anywhere
    smgr.faults.register("prepare", lambda idx: os._exit(42) if idx == 1 else None)
else:
    # crash right after the coordinator decision fsync, before phase two
    smgr.faults.register("decision", lambda txn_id: os._exit(42))
smgr.commit(txn)
os._exit(9)  # must not get here
"""


class TestInDoubtPrepares:
    def test_prepare_without_decision_rolls_back(self, tmp_path):
        """Presumed-abort: durable prepares on both shards, no durable
        commit decision -> the transaction vanishes on recovery."""
        proc = run_crash_child(_IN_DOUBT_SCRIPT, tmp_path, "no-decision")
        assert proc.returncode == 42, proc.stderr
        reopened = ShardedTransactionManager.open(tmp_path)
        report = reopened.last_recovery
        assert report.prepares_rolled_back == 2
        assert report.prepares_rolled_forward == 0
        state = scan_all(reopened, "A")
        assert 10 not in state and 11 not in state
        assert state == {k: f"base{k}" for k in range(4)}
        reopened.close()

    def test_prepare_with_durable_decision_rolls_forward(self, tmp_path):
        """A durable coordinator outcome commits the transaction on every
        participant even though no participant ran phase two."""
        proc = run_crash_child(_IN_DOUBT_SCRIPT, tmp_path, "with-decision")
        assert proc.returncode == 42, proc.stderr
        reopened = ShardedTransactionManager.open(tmp_path)
        report = reopened.last_recovery
        assert report.prepares_rolled_forward == 2
        assert report.prepares_rolled_back == 0
        state = scan_all(reopened, "A")
        assert state[10] == state[11] == "cross"
        # the rolled-forward commit is visible to fresh snapshots: the
        # recovered watermark covers its commit timestamp
        assert report.last_cts["__singleton:A"] >= report.oracle_restarted_at - 1
        reopened.close()


# ------------------------------------------------------ reopen hardening


def _crash_after_commits(data_dir, commits: int) -> None:
    """``commits`` sync-acknowledged commits, then ``os._exit``."""
    proc = run_crash_child(_MID_LOAD_SCRIPT, data_dir, "0", str(commits))
    assert proc.returncode == 42, proc.stderr
    assert len(proc.stdout.split(",")) == commits


def _close_after_commits(data_dir, commits: int) -> None:
    """``commits`` commits, then a clean ``close()``."""
    smgr = ShardedTransactionManager(num_shards=4, protocol="mvcc", data_dir=data_dir)
    smgr.create_table("A")
    smgr.create_table("B")
    smgr.register_group("g", ["A", "B"])
    for i in range(commits):
        with smgr.transaction() as txn:
            smgr.write(txn, "A", i, f"a{i}")
    smgr.close()


class TestReopenHardening:
    """Crash windows around the reopen path itself (code-review fixes)."""

    def test_schema_survives_crash_during_open(self, tmp_path, monkeypatch):
        """open() builds the manager on the catalog it loaded, so the
        catalog it persists while building keeps every table and group: a
        crash before recovery finishes loses none of them."""
        import repro.recovery.sharded as sharded_mod

        smgr = ShardedTransactionManager(num_shards=2, data_dir=tmp_path)
        smgr.create_table("A")
        smgr.register_group("g", ["A"])
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 1, "v")
        smgr.close()

        # crash-during-open simulation: the manager is built, recovery dies
        def crash(manager, max_workers=None):
            raise RuntimeError("crash during recovery")

        with monkeypatch.context() as patch:
            patch.setattr(sharded_mod, "recover_sharded", crash)
            with pytest.raises(RuntimeError, match="crash during recovery"):
                ShardedTransactionManager.open(tmp_path)
        schema = ShardedSchema.load(tmp_path)
        assert "A" in schema.states and schema.groups["g"] == ["A"]
        reopened = ShardedTransactionManager.open(tmp_path)
        assert scan_all(reopened, "A") == {1: "v"}
        reopened.close()

    def test_failed_recovery_releases_threads_and_files(
        self, tmp_path, monkeypatch
    ):
        """A recovery that raises inside open() leaves nothing running:
        the half-built manager is fenced and closed (no final checkpoint,
        so the commit WALs keep their tails) and the original error
        propagates.  Three failed opens return the thread count and the
        open file descriptors to where they started."""
        import repro.recovery.sharded as sharded_mod

        fd_dir = Path("/proc/self/fd")
        if not fd_dir.is_dir():
            pytest.skip("needs /proc/self/fd")
        commits = 20
        _crash_after_commits(tmp_path, commits)
        wals = sorted(tmp_path.glob("shard-*/commit.wal"))
        tails = [wal.read_bytes() for wal in wals]

        def settled(count: int) -> int:
            deadline = time.monotonic() + 5.0
            while threading.active_count() > count and time.monotonic() < deadline:
                time.sleep(0.01)
            return threading.active_count()

        threads = threading.active_count()
        fds = len(list(fd_dir.iterdir()))

        def broken(*args, **kwargs):
            raise StorageError("injected recovery failure")

        with monkeypatch.context() as patch:
            patch.setattr(sharded_mod, "_recover_shard", broken)
            for _ in range(3):
                with pytest.raises(StorageError, match="injected recovery failure"):
                    ShardedTransactionManager.open(tmp_path)
        assert settled(threads) == threads
        assert len(list(fd_dir.iterdir())) == fds
        # no final checkpoint ran: the tails are still there to replay
        assert [wal.read_bytes() for wal in wals] == tails
        reopened = ShardedTransactionManager.open(tmp_path)
        assert scan_all(reopened, "A") == {i: f"a{i}" for i in range(commits)}
        reopened.close()

    @pytest.mark.parametrize(
        "stop", [_crash_after_commits, _close_after_commits], ids=["crashed", "closed"]
    )
    def test_constructor_refuses_existing_store_and_open_loses_nothing(
        self, tmp_path, stop
    ):
        """The constructor only creates stores: over an existing one it
        raises before touching a file, because it would skip recovery (and
        its closing checkpoint would then cut the commit WALs down to a
        marker over tables that never received the tail).  open() then
        finds every sync-acknowledged commit."""
        commits = 50
        stop(tmp_path, commits)
        protected = [schema_path(tmp_path)] + sorted(
            tmp_path.glob("shard-*/commit.wal")
        )
        assert len(protected) == 5
        before = [path.read_bytes() for path in protected]
        with pytest.raises(StorageError, match=r"open\(\)") as info:
            ShardedTransactionManager(num_shards=4, data_dir=tmp_path)
        assert str(schema_path(tmp_path)) in str(info.value)
        assert [path.read_bytes() for path in protected] == before
        reopened = ShardedTransactionManager.open(tmp_path)
        assert scan_all(reopened, "A") == {i: f"a{i}" for i in range(commits)}
        reopened.close()

    def test_torn_coordinator_tail_does_not_hide_new_decisions(self, tmp_path):
        path = tmp_path / "coordinator.log"
        log = CoordinatorLog(path)
        log.log_commit(1, 5, [0, 1])
        log.close()
        with open(path, "ab") as fh:
            fh.write(b"\x13\x37torn")  # crash-torn frame at the tail
        # reopen sanitizes the file, so the next append is replayable
        log = CoordinatorLog(path)
        log.log_commit(2, 9, [0, 1])
        log.close()
        outcomes = CoordinatorLog.read_outcomes(path)
        assert set(outcomes) == {1, 2}
        assert outcomes[2].commit_ts == 9

    def test_recovery_cuts_torn_wal_tail_so_appends_replay(self, tmp_path):
        proc = run_crash_child(_MID_LOAD_SCRIPT, tmp_path, "0", "50")
        assert proc.returncode == 42, proc.stderr
        # tear one shard's commit-WAL tail, as a crash mid-append would
        wal0 = ShardedTransactionManager.commit_wal_path(tmp_path, 0)
        intact = len(commit_wal_tail(wal0)[1])
        with open(wal0, "ab") as fh:
            fh.write(b"\xde\xadtorn-frame")
        reopened = ShardedTransactionManager.open(tmp_path)
        # recovery replayed the intact prefix, and its checkpoint cut the
        # WAL down to the marker, torn frame included
        assert reopened.last_recovery.shards[0].tail_records == intact
        assert [kind for kind, _ in WriteAheadLog.replay(wal0)] == [KIND_CHECKPOINT]
        assert reopened.daemons[0].records_since_checkpoint() == 0
        # so appends after the torn tail are replayable
        with reopened.transaction() as txn:
            reopened.write(txn, "A", 0, "rewritten")
        reopened.close()
        final = ShardedTransactionManager.open(tmp_path)
        assert scan_all(final, "A")[0] == "rewritten"
        final.close()

    def test_post_recovery_checkpoint_reports_truncated_tail(self, tmp_path):
        proc = run_crash_child(_MID_LOAD_SCRIPT, tmp_path, "0", "30")
        assert proc.returncode == 42, proc.stderr
        reopened = ShardedTransactionManager.open(tmp_path)
        report = reopened.last_recovery
        assert report.truncated_records == report.tail_records > 0
        reopened.close()


# ------------------------------------------- checkpoint vs in-flight publish


class TestCheckpointPublishRace:
    def test_checkpoint_waits_for_inflight_lastcts_publish(self, tmp_path):
        """A committer releases its table latches *before* the durability
        barrier and the LastCTS publish.  A checkpoint sneaking into that
        window used to flush the record durable, snapshot a stale last_cts
        and truncate the record — after a crash recovery, which restores
        LastCTS from the commit WAL alone, would restore it below an
        acknowledged commit.  The checkpoint must refuse to cut instead."""
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 0, "base")  # shard 0

        shard0 = smgr.shards[0]
        entered, gate = threading.Event(), threading.Event()
        real_publish = shard0.context.publish_group_commit

        def stalled_publish(group_id, commit_ts):
            entered.set()
            assert gate.wait(10)
            real_publish(group_id, commit_ts)

        shard0.context.publish_group_commit = stalled_publish
        smgr.daemons[0].publish_drain_timeout = 0.2
        done: dict = {}

        def committer():
            txn = smgr.begin()
            smgr.write(txn, "A", 2, "in-flight")  # shard 0
            done["ts"] = smgr.commit(txn)

        worker = threading.Thread(target=committer)
        worker.start()
        try:
            assert entered.wait(10)
            # record durable (the committer flushed its own batch), publish
            # stalled: cutting now would truncate an uncovered record
            with pytest.raises(WALError):
                smgr.checkpoint_shard(0)
            _, tail = commit_wal_tail(smgr.commit_wal_path(tmp_path, 0))
            assert any(isinstance(r, CommitLogRecord) for r in tail)
        finally:
            gate.set()
            worker.join(10)
        shard0.context.publish_group_commit = real_publish
        # once the publish lands the checkpoint covers it
        assert smgr.checkpoint_shard(0) >= 1
        marker, tail = commit_wal_tail(smgr.commit_wal_path(tmp_path, 0))
        assert marker is not None and marker.checkpoint_ts >= done["ts"]
        assert not tail
        smgr.close()


# --------------------------------------------------- phase-two failure modes


def _cross_shard_txn(smgr):
    txn = smgr.begin()
    smgr.write(txn, "A", 10, "cross")  # shard 0
    smgr.write(txn, "A", 11, "cross")  # shard 1
    return txn


class TestPhaseTwoFailure:
    def test_failure_after_durable_decision_fences_manager(self, tmp_path):
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 0, "base0")
            smgr.write(txn, "A", 1, "base1")
        txn = _cross_shard_txn(smgr)
        smgr.faults.register(
            "decision",
            lambda txn_id: (_ for _ in ()).throw(RuntimeError("phase-two died")),
        )
        with pytest.raises(RuntimeError):
            smgr.commit(txn)
        # the decision was durable: the handle reports the durable truth
        assert txn.status is TxnStatus.COMMITTED
        assert smgr.fenced
        # no commit may build on the now-diverged in-memory state ...
        txn2 = smgr.begin()
        smgr.write(txn2, "A", 20, "post-fence")
        with pytest.raises(StorageError, match="fenced"):
            smgr.commit(txn2)
        smgr.abort(txn2)
        # ... and no checkpoint may flush tables missing the commit's
        # writes and truncate the WAL records recovery needs
        with pytest.raises(StorageError, match="fenced"):
            smgr.checkpoint_shard(0)
        with pytest.raises(StorageError, match="fenced"):
            smgr.bulk_load("A", [(30, "x")])
        smgr.close()  # skips the closing checkpoint, keeps the WAL tails

        reopened = ShardedTransactionManager.open(tmp_path)
        state = scan_all(reopened, "A")
        assert state[10] == state[11] == "cross"
        assert 20 not in state and 30 not in state
        assert not reopened.fenced
        reopened.close()

    def test_decision_log_failure_with_durable_records_reports_committed(
        self, tmp_path
    ):
        """Commit records are enqueued at reserve time, before log_commit.
        When the decision log dies but a record is confirmed durable,
        recovery will roll the transaction forward (any shard's commit
        record is decision evidence) — so the handle must not claim
        aborted."""
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        txn = _cross_shard_txn(smgr)

        def broken_log_commit(txn_id, commit_ts, shards):
            raise RuntimeError("decision log gone")

        smgr.coordinator_log.log_commit = broken_log_commit
        with pytest.raises(RuntimeError):
            smgr.commit(txn)
        assert txn.status is TxnStatus.COMMITTED
        assert smgr.fenced
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        state = scan_all(reopened, "A")
        assert state[10] == state[11] == "cross"
        reopened.close()

    def test_unconfirmable_outcome_is_reported_in_doubt(self, tmp_path):
        """When the decision point fails AND no commit record's durability
        can be confirmed (every WAL died), the outcome is unknowable in
        this process: the handle must say in-doubt, not aborted — a
        restart may legitimately resurrect the transaction as committed."""
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        txn = _cross_shard_txn(smgr)

        def total_outage(txn_id, commit_ts, shards):
            for daemon in smgr.daemons:
                with daemon._lock:
                    daemon._failure = OSError("disk gone")
            raise RuntimeError("decision log gone")

        smgr.coordinator_log.log_commit = total_outage
        with pytest.raises(RuntimeError):
            smgr.commit(txn)
        assert txn.status is TxnStatus.IN_DOUBT
        assert txn.is_finished()
        assert smgr.fenced
        assert smgr.stats()["cross_shard_in_doubt"] == 1
        smgr.close()

    def test_fenced_manager_keeps_reads_working_without_leaking(self, tmp_path):
        """A refused commit must abort the children before raising —
        transaction()/snapshot() commit on exit, so a bare raise would
        leak their pinned snapshots and locks — and read-only commits
        (which only release snapshots) must still succeed, or the
        documented 'reads still work' guarantee is false."""
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 0, "base0")
            smgr.write(txn, "A", 1, "base1")
        txn = _cross_shard_txn(smgr)
        smgr.faults.register(
            "decision",
            lambda txn_id: (_ for _ in ()).throw(RuntimeError("phase-two died")),
        )
        with pytest.raises(RuntimeError):
            smgr.commit(txn)
        assert smgr.fenced
        # read-only snapshot commits cleanly on exit
        with smgr.snapshot() as view:
            assert view.get("A", 0) == "base0"
        # a writing transaction() raises, but its children are finished —
        # nothing stays pinned
        with pytest.raises(StorageError, match="fenced"):
            with smgr.transaction() as t:
                smgr.write(t, "A", 21, "post-fence")
        assert t.status is TxnStatus.ABORTED
        for shard in smgr.shards:
            assert shard.context.active_count() == 0
        # the best-effort auto-checkpoint path skips instead of raising out
        # of a commit that already succeeded; explicit checkpoints raise
        assert smgr.checkpoint_shard(0, background=True) == 0
        with pytest.raises(StorageError, match="fenced"):
            smgr.checkpoint_shard(0)
        smgr.close()

    def test_fence_raised_during_prepare_refuses_commit_under_latches(
        self, tmp_path
    ):
        """TOCTOU closure on the commit path: a committer that passed the
        commit() entry check before the fence went up must re-check once
        it holds the commit latches — committing on in-memory state that
        misses a durably-decided transaction's writes could acknowledge a
        lost update that recovery then replays."""
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        txn = _cross_shard_txn(smgr)
        # simulate a concurrent phase-two failure landing mid-prepare
        smgr.faults.register(
            "prepare", lambda idx: smgr._fence("concurrent phase-two failure")
        )
        with pytest.raises(StorageError, match="fenced"):
            smgr.commit(txn)
        assert txn.status is TxnStatus.ABORTED
        for shard in smgr.shards:
            assert shard.context.active_count() == 0
        # the single-shard pipeline refuses through the protocol's commit
        # gate even when the facade's entry check is bypassed
        mgr0 = smgr.shards[0]
        child = mgr0.begin()
        mgr0.write(child, "A", 0, "direct")
        with pytest.raises(StorageError, match="fenced"):
            mgr0.commit(child)
        assert child.status is TxnStatus.ABORTED
        assert mgr0.context.active_count() == 0
        smgr.close()

    def test_volatile_manager_does_not_fence(self):
        """Without a commit WAL there is no durable truth the in-memory
        state could disagree with (and no recovery path a fence could
        direct to): a phase-two failure keeps the old abort report and
        the manager stays usable."""
        smgr = ShardedTransactionManager(num_shards=2)
        smgr.create_table("A")
        txn = _cross_shard_txn(smgr)
        orig = smgr.shards[1].coordinator.commit_prepared
        smgr.shards[1].coordinator.commit_prepared = (
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("phase-two bug"))
        )
        with pytest.raises(RuntimeError):
            smgr.commit(txn)
        assert txn.status is TxnStatus.ABORTED
        assert not smgr.fenced
        smgr.shards[1].coordinator.commit_prepared = orig
        with smgr.transaction() as t:
            smgr.write(t, "A", 10, "still-usable")
        assert t.status is TxnStatus.COMMITTED


# ------------------------------------------------- apply-phase failure modes


class TestApplyFailurePoisonsDaemon:
    def test_apply_failure_settles_publish_tracking_and_poisons(self, tmp_path):
        """A commit whose record is already enqueued but whose apply phase
        dies must settle its publish tracking (or every later checkpoint
        quiesce stalls to its drain timeout) and poison the daemon — the
        record may be durable while the tables and LastCTS miss it, so
        checkpoints and later commits must fail fast instead of
        truncating or sequencing past it."""
        smgr = ShardedTransactionManager(
            num_shards=1, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 0, "base")
        table = smgr.shards[0].table("A")

        def broken_apply(*args, **kwargs):
            raise OSError("disk full mid-apply")

        table.apply_write_set = broken_apply
        txn = smgr.begin()
        smgr.write(txn, "A", 1, "lost")
        with pytest.raises(OSError):
            smgr.commit(txn)
        # the record was already enqueued and may sit in a flushed batch:
        # the handle must say in-doubt, not a clean abort that recovery
        # (which may roll the record forward) could contradict
        assert txn.status is TxnStatus.IN_DOUBT
        assert txn.is_finished()
        daemon = smgr.daemons[0]
        # settled: nothing dangles in the checkpoint quiesce's tracker
        assert not daemon._unpublished
        # the best-effort auto-checkpoint path skips on the poisoned
        # daemon instead of raising out of a commit that succeeded ...
        assert smgr.checkpoint_shard(0, background=True) == 0
        # ... while poisoned explicit checkpoints and commits fail fast,
        # keeping the WAL tail intact
        with pytest.raises(WALError):
            smgr.checkpoint_shard(0)
        txn2 = smgr.begin()
        smgr.write(txn2, "A", 2, "refused")
        with pytest.raises(WALError):
            smgr.commit(txn2)
        # refused at enqueue (nothing reached the WAL): a clean abort
        assert txn2.status is TxnStatus.ABORTED
        # close() must not raise mid-shutdown: it skips the final
        # checkpoint (leaving the WAL tail as the durable truth) and
        # recovery resolves the torn commit from the WAL evidence
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        state = scan_all(reopened, "A")
        assert state[0] == "base"
        # the enqueued record either never became durable (no key) or is
        # rolled forward whole — never a torn half-applied state
        assert state.get(1) in (None, "lost")
        assert 2 not in state
        reopened.close()


# ------------------------------------------------------ schema adoption


class TestSchemaMismatchRejected:
    def test_mismatched_num_shards_does_not_clobber_catalog(self, tmp_path):
        smgr = ShardedTransactionManager(num_shards=2, data_dir=tmp_path)
        smgr.create_table("A")
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 1, "v")
        smgr.close()
        with pytest.raises(StorageError, match=r"open\(\)"):
            ShardedTransactionManager(num_shards=3, data_dir=tmp_path)
        with pytest.raises(StorageError, match="num_shards=2"):
            ShardedTransactionManager.open(tmp_path, num_shards=5)
        # the persisted catalog survived the rejected constructions
        assert ShardedSchema.load(tmp_path).num_shards == 2
        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.num_shards == 2
        assert scan_all(reopened, "A") == {1: "v"}
        reopened.close()

    def test_protocol_override_is_allowed(self, tmp_path):
        """The protocol is not data-affecting (redo records are protocol-
        agnostic): an explicit override on reopen is a catalog update."""
        smgr = ShardedTransactionManager(
            num_shards=2, protocol="mvcc", data_dir=tmp_path
        )
        smgr.create_table("A")
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 1, "v")
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path, protocol="s2pl")
        assert reopened.protocol_name == "s2pl"
        assert ShardedSchema.load(tmp_path).protocol == "s2pl"
        assert scan_all(reopened, "A") == {1: "v"}
        reopened.close()

    def test_reopen_without_protocol_adopts_persisted_engine(self, tmp_path):
        """Only an *explicit* protocol= rewrites the catalog; a reopen
        without one adopts the persisted engine instead of silently
        flipping it back to mvcc."""
        smgr = ShardedTransactionManager(
            num_shards=2, protocol="s2pl", data_dir=tmp_path
        )
        smgr.create_table("A")
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 1, "v")
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path, protocol=None)
        assert reopened.protocol_name == "s2pl"
        assert ShardedSchema.load(tmp_path).protocol == "s2pl"
        reopened.close()
        assert ShardedTransactionManager().protocol_name == "mvcc"


class TestCorruptCatalog:
    """A damaged ``schema.json`` is refused with a ``StorageError`` naming
    the file and never overwritten: open() names the damage, and the
    constructor, which only creates stores, refuses any existing one."""

    @staticmethod
    def _truncate(text: str) -> str:
        return text[: len(text) // 2]

    @staticmethod
    def _drop_states(text: str) -> str:
        payload = json.loads(text)
        del payload["states"]
        return json.dumps(payload)

    @pytest.mark.parametrize(
        "damage, problem",
        [(_truncate, "not valid JSON"), (_drop_states, "no 'states' field")],
        ids=["truncated", "missing-field"],
    )
    def test_both_entry_points_refuse_and_keep_the_bytes(
        self, tmp_path, damage, problem
    ):
        smgr = ShardedTransactionManager(num_shards=2, data_dir=tmp_path)
        smgr.create_table("A")
        smgr.close()
        path = schema_path(tmp_path)
        path.write_text(damage(path.read_text()))
        damaged = path.read_bytes()
        for open_store, refusal in (
            (
                lambda: ShardedTransactionManager(num_shards=2, data_dir=tmp_path),
                r"open\(\)",
            ),
            (lambda: ShardedTransactionManager.open(tmp_path), problem),
        ):
            with pytest.raises(StorageError, match=refusal) as info:
                open_store()
            assert str(path) in str(info.value)
            assert path.read_bytes() == damaged


# ------------------------------------------------- coordinator log lifecycle


class TestCoordinatorLog:
    def test_outcomes_survive_reopen(self, tmp_path):
        log = CoordinatorLog(tmp_path / "coordinator.log")
        log.log_commit(7, 11, [0, 2])
        log.log_commit(9, 15, [1, 3])
        log.close()
        outcomes = CoordinatorLog.read_outcomes(tmp_path / "coordinator.log")
        assert outcomes[7].commit_ts == 11 and outcomes[7].shards == (0, 2)
        assert outcomes[9].commit_ts == 15

    def test_compaction_drops_covered_outcomes(self, tmp_path):
        log = CoordinatorLog(tmp_path / "coordinator.log")
        for txn_id, ts in [(1, 5), (2, 10), (3, 20)]:
            log.log_commit(txn_id, ts, [0, 1])
        assert log.compact(min_checkpoint_ts=10) == 2
        assert set(log.outcomes()) == {3}
        log.close()
        # the truncation is durable, not just in-memory
        assert set(CoordinatorLog.read_outcomes(tmp_path / "coordinator.log")) == {3}

    def test_full_checkpoint_compacts_decisions(self, tmp_path):
        smgr = ShardedTransactionManager(num_shards=2, data_dir=tmp_path)
        smgr.create_table("A")
        for i in range(10):
            with smgr.transaction() as txn:
                smgr.write(txn, "A", 0 + 2 * i, "x")  # shard 0
                smgr.write(txn, "A", 1 + 2 * i, "y")  # shard 1
        assert len(smgr.coordinator_log) == 10
        smgr.checkpoint()
        assert len(smgr.coordinator_log) == 0
        smgr.close()


# ------------------------------------------------------------ LSM durability


class TestLSMCrashSurface:
    def test_context_manager_flushes_on_exit(self, tmp_path):
        with LSMStore(tmp_path / "db", LSMOptions(sync=False)) as store:
            store.put(b"k", b"v")
        # closed (and flushed to an SSTable): a fresh open sees the data
        # without any WAL replay
        reopened = LSMStore(tmp_path / "db")
        assert reopened.get(b"k") == b"v"
        assert reopened.table_count() >= 1
        reopened.close()

    def test_sstable_creation_fsyncs_directory_entry(self, tmp_path, monkeypatch):
        """Freshly flushed .sst files must be pinned by a directory fsync —
        file-content fsync alone does not make the *name* durable."""
        synced_dirs: list[str] = []
        import repro.storage.sstable as sstable_mod

        real = sstable_mod.fsync_dir
        monkeypatch.setattr(
            sstable_mod, "fsync_dir", lambda d: (synced_dirs.append(str(d)), real(d))
        )
        store = LSMStore(tmp_path / "db", LSMOptions(sync=False))
        store.put(b"k", b"v")
        store.flush()
        store.close()
        assert any(str(tmp_path / "db") in d for d in synced_dirs)


# ----------------------------------------------- coordinator-log batching


class TestCoordinatorBatching:
    def test_concurrent_batched_decisions_all_durable(self, tmp_path):
        """N threads log decisions through the batched path; every one is
        durable (readable by a fresh replay) and shared fsyncs happened."""
        log = CoordinatorLog(tmp_path / "coordinator.log")
        threads = [
            threading.Thread(
                target=lambda base: [
                    log.log_commit(base + i, base + i, [0, 1]) for i in range(25)
                ],
                args=(w * 1000,),
            )
            for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log) == 200
        log.close()
        recovered = CoordinatorLog.read_outcomes(tmp_path / "coordinator.log")
        assert len(recovered) == 200
        assert recovered[1005].commit_ts == 1005
        assert recovered[1005].shards == (0, 1)

    def test_log_commit_returns_only_after_durable(self, tmp_path):
        """The durable-decision-before-phase-two invariant: the record is
        replayable from disk the moment log_commit returns."""
        log = CoordinatorLog(tmp_path / "coordinator.log")
        log.log_commit(7, 99, [2, 3])
        on_disk = CoordinatorLog.read_outcomes(tmp_path / "coordinator.log")
        assert on_disk[7].commit_ts == 99
        log.close()

    def test_compact_preserves_batched_decisions_above_floor(self, tmp_path):
        log = CoordinatorLog(tmp_path / "coordinator.log")
        for txn_id, cts in ((1, 10), (2, 20), (3, 30)):
            log.log_commit(txn_id, cts, [0])
        assert log.compact(20) == 2
        log.close()
        recovered = CoordinatorLog.read_outcomes(tmp_path / "coordinator.log")
        assert set(recovered) == {3}

    def test_cross_shard_decisions_recover(self, tmp_path):
        """End to end: batched 2PC decisions survive close/reopen."""
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        for i in range(6):
            with smgr.transaction() as txn:
                smgr.write(txn, "A", 2 * i, "x")      # shard 0
                smgr.write(txn, "A", 2 * i + 1, "y")  # shard 1
        assert smgr.stats()["cross_shard_commits"] == 6
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        state = scan_all(reopened, "A")
        assert state == {2 * i: "x" for i in range(6)} | {
            2 * i + 1: "y" for i in range(6)
        }
        reopened.close()


# ------------------------------------------------------- parallel recovery


class TestParallelRecovery:
    def test_parallel_and_sequential_recover_identical_state(self, tmp_path):
        """Same crashed bytes in, same state out, whatever the fan-out."""
        import shutil

        proc = run_crash_child(_MID_LOAD_SCRIPT, tmp_path / "src", "0", "80")
        assert proc.returncode == 42, proc.stderr
        shutil.copytree(tmp_path / "src", tmp_path / "seq")
        shutil.copytree(tmp_path / "src", tmp_path / "par")

        sequential = ShardedTransactionManager.open(
            tmp_path / "seq", recovery_workers=1
        )
        parallel = ShardedTransactionManager.open(
            tmp_path / "par", recovery_workers=8
        )
        try:
            assert scan_all(parallel, "A") == scan_all(sequential, "A")
            assert scan_all(parallel, "B") == scan_all(sequential, "B")
            seq_report, par_report = (
                sequential.last_recovery,
                parallel.last_recovery,
            )
            assert par_report.commits_replayed == seq_report.commits_replayed
            assert par_report.last_cts == seq_report.last_cts
            assert (
                par_report.oracle_restarted_at == seq_report.oracle_restarted_at
            )
            assert [s.tail_records for s in par_report.shards] == [
                s.tail_records for s in seq_report.shards
            ]
        finally:
            sequential.close()
            parallel.close()

    def test_parallel_recovery_resolves_in_doubt_prepares(self, tmp_path):
        """The presumed-abort reading is fan-out independent."""
        proc = run_crash_child(_IN_DOUBT_SCRIPT, tmp_path, "no-decision")
        assert proc.returncode == 42, proc.stderr
        reopened = ShardedTransactionManager.open(tmp_path, recovery_workers=4)
        report = reopened.last_recovery
        assert report.prepares_rolled_back == 2
        state = scan_all(reopened, "A")
        assert 10 not in state and 11 not in state
        reopened.close()


_PARTIAL_PREPARE_SCRIPT = r"""
import os, sys
from repro.core import ShardedTransactionManager

smgr = ShardedTransactionManager(num_shards=2, protocol="mvcc", data_dir=sys.argv[1])
smgr.create_table("A")
for k in range(4):
    with smgr.transaction() as txn:
        smgr.write(txn, "A", k, f"base{k}")

txn = smgr.begin()
smgr.write(txn, "A", 10, "cross")  # shard 0
smgr.write(txn, "A", 11, "cross")  # shard 1

def crash_after_first_vote(idx):
    if idx == 0:
        # crash with a durable vote on shard 0 ONLY: shard 1 never
        # prepared — the partial-prepare crash image
        smgr.daemons[0].flush()
        os._exit(42)

smgr.faults.register("vote", crash_after_first_vote)
smgr.commit(txn)
os._exit(9)  # must not get here
"""


class TestPartialPrepare:
    def test_partial_prepare_rolls_back(self, tmp_path):
        """A crash between participants' votes (durable prepare on a
        strict subset) must resolve presumed-abort on recovery."""
        proc = run_crash_child(_PARTIAL_PREPARE_SCRIPT, tmp_path)
        assert proc.returncode == 42, proc.stderr
        reopened = ShardedTransactionManager.open(tmp_path)
        report = reopened.last_recovery
        assert report.prepares_rolled_back == 1  # shard 0's lone vote
        assert report.prepares_rolled_forward == 0
        state = scan_all(reopened, "A")
        assert 10 not in state and 11 not in state
        assert state == {k: f"base{k}" for k in range(4)}
        reopened.close()
