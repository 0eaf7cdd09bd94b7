"""Async group commit: batched-fsync pipeline, WAL batching, crash safety.

Covers the PR-2 durability subsystem end to end:

* ``WriteAheadLog.append_many`` — one fsync per batch, per-record CRC
  framing preserved, idempotent/thread-safe ``close``;
* WAL tail-corruption recovery (truncated final record, corrupted CRC);
* :class:`~repro.core.durability.GroupFsyncDaemon` — leader/follower and
  dedicated-flusher batching, durable watermark + ``flush()`` semantics
  under ``durability="async"``;
* the visibility contract: in ``sync`` mode ``LastCTS`` never exposes a
  commit whose record is not yet on stable storage;
* crash consistency: a hard-killed process loses nothing it acknowledged
  (single-shard and cross-shard 2PC, prepare records included).
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from helpers import PROTOCOLS, scan_all

from repro.core import (
    CheckpointLogRecord,
    CommitLogRecord,
    PrepareLogRecord,
    ShardedTransactionManager,
    TransactionManager,
    commit_wal_tail,
    recovered_commits,
    replay_commit_wal,
)
from repro.core.durability import (
    GroupFsyncDaemon,
    apply_recovered_commit,
    decode_commit_record,
    encode_checkpoint_record,
    encode_commit_record,
)
from repro.core.transactions import TxnStatus
from repro.core.write_set import WriteKind, WriteSet
from repro.errors import WALError
from repro.storage.wal import (
    KIND_COMMIT,
    KIND_PUT,
    KIND_TXN_COMMIT,
    WriteAheadLog,
)

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def wal_manager(path: Path, mode: str = "sync") -> TransactionManager:
    """A single-site manager committing through a group-fsync daemon over
    the commit WAL at ``path``."""
    return TransactionManager(
        protocol="mvcc",
        durability_daemon=GroupFsyncDaemon(WriteAheadLog(path, sync=False), mode=mode),
    )


# ---------------------------------------------------------------- append_many


class TestAppendMany:
    def test_batch_framing_identical_to_individual_appends(self, tmp_path):
        """append_many keeps per-record CRC frames: replay cannot tell a
        batch from individual appends, byte for byte."""
        one = tmp_path / "one.wal"
        many = tmp_path / "many.wal"
        records = [(KIND_PUT, b"abc"), (KIND_COMMIT, b"\x01" * 8), (KIND_PUT, b"")]
        with WriteAheadLog(one, sync=False) as wal:
            for kind, payload in records:
                wal.append(kind, payload)
        with WriteAheadLog(many, sync=False) as wal:
            assert wal.append_many(records) == len(records)
        assert one.read_bytes() == many.read_bytes()
        assert list(WriteAheadLog.replay(many)) == records

    def test_one_fsync_per_batch(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
        wal = WriteAheadLog(tmp_path / "w.wal", sync=True)
        baseline = len(calls)
        wal.append_many([(KIND_PUT, bytes([i])) for i in range(50)])
        assert len(calls) == baseline + 1
        wal.close()

    def test_append_many_respects_sync_override(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
        wal = WriteAheadLog(tmp_path / "w.wal", sync=False)
        wal.append_many([(KIND_PUT, b"x")])  # follows instance knob: no fsync
        assert not calls
        wal.append_many([(KIND_PUT, b"y")], sync=True)
        assert len(calls) == 1
        wal.close()

    def test_empty_batch_is_noop(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.wal", sync=True)
        assert wal.append_many([]) == 0
        wal.close()
        assert list(WriteAheadLog.replay(tmp_path / "w.wal")) == []

    def test_append_many_on_closed_wal_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.wal", sync=False)
        wal.close()
        with pytest.raises(WALError):
            wal.append_many([(KIND_PUT, b"x")])


class TestCloseIdempotence:
    def test_close_idempotent_with_interleaved_sync(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.wal", sync=False)
        wal.append(KIND_PUT, b"x")
        wal.close()
        wal.sync()  # no-op after close, must not raise
        wal.close()  # second close is a no-op
        assert wal.closed

    def test_concurrent_sync_and_close_threads(self, tmp_path):
        """A syncing thread racing close() must never touch a closed file."""
        wal = WriteAheadLog(tmp_path / "w.wal", sync=False)
        wal.append(KIND_PUT, b"x")
        errors: list[BaseException] = []
        stop = threading.Event()

        def syncer():
            while not stop.is_set():
                try:
                    wal.sync()
                except BaseException as exc:  # pragma: no cover - the bug
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=syncer) for _ in range(4)]
        for t in threads:
            t.start()
        wal.close()
        stop.set()
        for t in threads:
            t.join()
        assert not errors


# --------------------------------------------------------- tail corruption


class TestTailCorruptionRecovery:
    def _write_three(self, path) -> list[tuple[int, bytes]]:
        records = [(KIND_PUT, b"first"), (KIND_PUT, b"second"), (KIND_PUT, b"third")]
        with WriteAheadLog(path, sync=False) as wal:
            wal.append_many(records)
        return records

    def test_truncated_final_record_yields_intact_prefix(self, tmp_path):
        path = tmp_path / "w.wal"
        records = self._write_three(path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # torn tail: final record loses 3 bytes
        assert list(WriteAheadLog.replay(path)) == records[:2]

    def test_truncated_final_header_yields_intact_prefix(self, tmp_path):
        path = tmp_path / "w.wal"
        records = self._write_three(path)
        data = path.read_bytes()
        last_len = struct.calcsize("<IIB") + len(records[-1][1])
        path.write_bytes(data[: -last_len + 2])  # only 2 header bytes remain
        assert list(WriteAheadLog.replay(path)) == records[:2]

    def test_corrupt_final_crc_yields_intact_prefix(self, tmp_path):
        path = tmp_path / "w.wal"
        records = self._write_three(path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the final record
        path.write_bytes(bytes(data))
        assert list(WriteAheadLog.replay(path)) == records[:2]

    def test_commit_wal_replay_skips_torn_tail(self, tmp_path):
        path = tmp_path / "commit.wal"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(KIND_TXN_COMMIT, encode_commit_record(1, 2, {}))
            wal.append(KIND_TXN_COMMIT, encode_commit_record(3, 4, {}))
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        recovered = recovered_commits(path)
        assert [r.txn_id for r in recovered] == [1]


# ----------------------------------------------------------- record codecs


class TestCommitRecords:
    def test_roundtrip_with_upserts_and_deletes(self, tmp_path):
        mgr = wal_manager(tmp_path / "c.wal")
        mgr.create_table("A")
        mgr.table("A").bulk_load([(2, "doomed")])
        txn = mgr.begin()
        mgr.write(txn, "A", 1, {"v": 42})
        mgr.delete(txn, "A", 2)
        commit_ts = mgr.commit(txn)
        mgr.close()
        [record] = recovered_commits(tmp_path / "c.wal")
        assert record == decode_commit_record(
            encode_commit_record(record.txn_id, record.commit_ts, {})
        ) or isinstance(record, CommitLogRecord)
        assert record.commit_ts == commit_ts
        write_sets = apply_recovered_commit(record)
        assert write_sets["A"].entries[1].value == {"v": 42}
        assert write_sets["A"].entries[2].kind is WriteKind.DELETE


# ------------------------------------------------------------- the daemon


class TestGroupFsyncDaemon:
    @pytest.mark.parametrize("flusher", [False, True], ids=["leader", "flusher"])
    def test_concurrent_commits_share_fsyncs(self, tmp_path, flusher):
        daemon = GroupFsyncDaemon(
            WriteAheadLog(tmp_path / "c.wal", sync=False), flusher=flusher
        )
        mgr = TransactionManager(protocol="mvcc", durability_daemon=daemon)
        mgr.create_table("A")

        def worker(wid: int) -> None:
            for i in range(25):
                txn = mgr.begin()
                mgr.write(txn, "A", wid * 1000 + i, i)
                mgr.commit(txn)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = mgr.stats()
        assert stats["durable_records"] == 200
        # batching must actually happen: strictly fewer fsyncs than commits
        assert stats["fsync_batches"] < 200
        assert stats["largest_fsync_batch"] > 1
        mgr.close()
        assert len(recovered_commits(tmp_path / "c.wal")) == 200

    def test_max_batch_one_means_one_fsync_per_commit(self, tmp_path):
        daemon = GroupFsyncDaemon(
            WriteAheadLog(tmp_path / "c.wal", sync=False), max_batch=1
        )
        mgr = TransactionManager(protocol="mvcc", durability_daemon=daemon)
        mgr.create_table("A")
        for i in range(10):
            txn = mgr.begin()
            mgr.write(txn, "A", i, i)
            mgr.commit(txn)
        assert mgr.stats()["fsync_batches"] == 10
        mgr.close()

    def test_commit_ts_order_equals_wal_order(self, tmp_path):
        """The ordering invariant: per-shard WAL order == commit-ts order."""
        mgr = wal_manager(tmp_path / "c.wal")
        mgr.create_table("A")

        def worker(wid: int) -> None:
            for i in range(20):
                txn = mgr.begin()
                mgr.write(txn, "A", wid * 1000 + i, i)
                mgr.commit(txn)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        mgr.close()
        commit_ts = [r.commit_ts for r in recovered_commits(tmp_path / "c.wal")]
        assert commit_ts == sorted(commit_ts)

    def test_close_is_idempotent(self, tmp_path):
        daemon = GroupFsyncDaemon(WriteAheadLog(tmp_path / "c.wal", sync=False))
        daemon.submit(KIND_TXN_COMMIT, encode_commit_record(1, 1, {}))
        daemon.close()
        daemon.close()
        with pytest.raises(WALError):
            daemon.submit(KIND_TXN_COMMIT, b"")


class TestAsyncDurability:
    def test_async_acknowledges_before_durable(self, tmp_path):
        mgr = wal_manager(tmp_path / "c.wal", mode="async")
        mgr.create_table("A")
        txn = mgr.begin()
        mgr.write(txn, "A", 1, "v")
        commit_ts = mgr.commit(txn)  # returns without waiting for fsync
        assert commit_ts > 0
        # the commit is already visible (async acknowledges immediately)
        with mgr.snapshot() as view:
            assert view.get("A", 1) == "v"
        # the durable watermark catches up no later than an explicit flush
        target = mgr.flush_durability()
        assert mgr.durable_watermark() >= target >= 1
        mgr.close()
        assert len(recovered_commits(tmp_path / "c.wal")) == 1

    def test_watermark_monotone_and_complete_after_flush(self, tmp_path):
        mgr = wal_manager(tmp_path / "c.wal", mode="async")
        mgr.create_table("A")
        marks = [mgr.durable_watermark()]
        for i in range(30):
            txn = mgr.begin()
            mgr.write(txn, "A", i, i)
            mgr.commit(txn)
            marks.append(mgr.durable_watermark())
        assert all(b >= a for a, b in zip(marks, marks[1:]))
        mgr.flush_durability()
        assert mgr.durable_watermark() == 30
        backlog = mgr.stats()["durability_backlog"]
        assert backlog == 0
        mgr.close()
        assert len(recovered_commits(tmp_path / "c.wal")) == 30


# --------------------------------------------------- visibility vs. durability


class _GatedWAL(WriteAheadLog):
    """WAL whose batch append blocks until the test opens the gate."""

    def __init__(self, path):
        super().__init__(path, sync=False)
        self.gate = threading.Event()

    def append_many(self, records, sync=None):
        self.gate.wait(timeout=10.0)
        return super().append_many(records, sync)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_last_cts_not_published_before_durable(tmp_path, protocol):
    """The crash-consistency visibility contract, per protocol: while the
    commit record's fsync is stuck, ``LastCTS`` must not move."""
    wal = _GatedWAL(tmp_path / "c.wal")
    daemon = GroupFsyncDaemon(wal)
    mgr = TransactionManager(protocol=protocol, durability_daemon=daemon)
    mgr.create_table("A")
    group_id = mgr.context.group_of("A").group_id
    before = mgr.context.last_cts(group_id)

    done = threading.Event()

    def committer():
        txn = mgr.begin()
        mgr.write(txn, "A", 1, "v")
        mgr.commit(txn)
        done.set()

    thread = threading.Thread(target=committer)
    thread.start()
    # the committer reaches the durability barrier and parks there
    assert not done.wait(timeout=0.15)
    assert mgr.context.last_cts(group_id) == before, (
        "LastCTS exposed a commit whose record is not durable"
    )
    wal.gate.set()
    assert done.wait(timeout=5.0)
    thread.join()
    assert mgr.context.last_cts(group_id) > before
    mgr.close()


# --------------------------------------------------------- crash consistency


_CRASH_SCRIPT = """
import os, sys
from repro.core import ShardedTransactionManager

smgr = ShardedTransactionManager(num_shards=2, protocol="mvcc", data_dir=sys.argv[1])
smgr.create_table("A")

acked = []
# single-shard commits on both shards
for key in (0, 1, 2, 3):
    txn = smgr.begin()
    smgr.write(txn, "A", key, f"v{key}")
    smgr.commit(txn)
    acked.append(txn.txn_id)
# a cross-shard 2PC commit (keys 4 and 5 live on different shards)
txn = smgr.begin()
smgr.write(txn, "A", 4, "x")
smgr.write(txn, "A", 5, "y")
smgr.commit(txn)
acked.append(txn.txn_id)

sys.stdout.write(",".join(map(str, acked)))
sys.stdout.flush()
os._exit(42)  # crash: no close(), no flush, no atexit
"""


def test_crash_after_ack_loses_no_sync_commit(tmp_path):
    """Kill -9 semantics: everything acknowledged under ``sync`` durability
    is recoverable from the per-shard commit WALs."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", _CRASH_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 42, proc.stderr
    acked = [int(x) for x in proc.stdout.split(",")]
    assert len(acked) == 5

    recovered: set[int] = set()
    prepares: set[int] = set()
    for shard in range(2):
        path = ShardedTransactionManager.commit_wal_path(tmp_path, shard)
        for record in replay_commit_wal(path):
            if isinstance(record, CommitLogRecord):
                recovered.add(record.txn_id)
            elif isinstance(record, PrepareLogRecord):
                prepares.add(record.txn_id)
    # every acknowledged commit is durable; the cross-shard one voted with
    # durable prepare records before the commit point
    cross_txn = acked[-1]
    assert set(acked) <= recovered
    assert cross_txn in prepares


def test_cross_shard_commit_record_per_writing_shard(tmp_path):
    smgr = ShardedTransactionManager(num_shards=2, protocol="mvcc", data_dir=tmp_path)
    smgr.create_table("A")
    with smgr.transaction() as txn:
        smgr.write(txn, "A", 0, "a")  # shard 0
        smgr.write(txn, "A", 1, "b")  # shard 1
    txn_id = txn.txn_id
    commit_ts = txn.commit_ts
    # read the WALs before close(): its final checkpoint truncates them
    smgr.flush_durability()
    for shard in range(2):
        path = ShardedTransactionManager.commit_wal_path(tmp_path, shard)
        commits = recovered_commits(path)
        assert [r.txn_id for r in commits].count(txn_id) == 1
        [record] = [r for r in commits if r.txn_id == txn_id]
        assert record.commit_ts == commit_ts
    smgr.close()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_sharded_durability_all_protocols(tmp_path, protocol):
    """Smoke per protocol: sync durability through the sharded manager."""
    smgr = ShardedTransactionManager(
        num_shards=2, protocol=protocol, data_dir=tmp_path
    )
    smgr.create_table("A")
    for key in range(6):
        with smgr.transaction() as txn:
            smgr.write(txn, "A", key, key * 10)
    with smgr.transaction() as txn:  # cross-shard
        smgr.write(txn, "A", 10, "x")
        smgr.write(txn, "A", 11, "y")
    watermarks = smgr.durable_watermarks()
    # count the WAL records before close(): its final checkpoint truncates
    smgr.flush_durability()
    total = sum(
        len(recovered_commits(ShardedTransactionManager.commit_wal_path(tmp_path, s)))
        for s in range(2)
    )
    smgr.close()
    assert set(watermarks) == {0, 1}
    # 6 single-shard commits + one commit record per writing shard of the 2PC
    assert total == 8


# -------------------------------------------------------- checkpoint markers


class TestCheckpointMarkers:
    """Commit-WAL lifecycle: marker cut + prefix truncation on the daemon."""

    def _commit_some(self, mgr: TransactionManager, start: int, n: int) -> None:
        for i in range(start, start + n):
            txn = mgr.begin()
            mgr.write(txn, "A", i, i)
            mgr.commit(txn)

    def test_write_checkpoint_truncates_prefix_and_seeds_marker(self, tmp_path):
        mgr = wal_manager(tmp_path / "c.wal")
        mgr.create_table("A")
        self._commit_some(mgr, 0, 12)
        daemon = mgr.durability
        assert daemon.records_since_checkpoint() == 12
        dropped = daemon.write_checkpoint(99, {"g": 99}, daemon.last_enqueued())
        assert dropped == 12
        assert daemon.records_since_checkpoint() == 0
        # the truncated log holds exactly the marker
        records = list(replay_commit_wal(tmp_path / "c.wal"))
        assert records == [CheckpointLogRecord(99, {"g": 99})]
        # new commits form the fresh tail after the marker
        self._commit_some(mgr, 100, 3)
        mgr.flush_durability()
        marker, tail = commit_wal_tail(tmp_path / "c.wal")
        assert marker == CheckpointLogRecord(99, {"g": 99})
        assert [type(r) for r in tail] == [CommitLogRecord] * 3
        assert daemon.stats()["checkpoints"] == 1
        mgr.close()

    def test_commit_wal_tail_without_marker_returns_everything(self, tmp_path):
        mgr = wal_manager(tmp_path / "c.wal")
        mgr.create_table("A")
        self._commit_some(mgr, 0, 5)
        mgr.close()
        marker, tail = commit_wal_tail(tmp_path / "c.wal")
        assert marker is None
        assert len(tail) == 5

    def test_torn_trailing_marker_is_not_a_cut(self, tmp_path):
        path = tmp_path / "c.wal"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(KIND_TXN_COMMIT, encode_commit_record(1, 2, {}))
            wal.append(KIND_TXN_COMMIT, encode_commit_record(3, 4, {}))
            frame = wal._frame(
                4, encode_checkpoint_record(10, {})
            )  # KIND_CHECKPOINT == 4
            # simulate the crash tearing the marker mid-write
            wal._file.write(frame[:-2])
        marker, tail = commit_wal_tail(path)
        assert marker is None
        assert [r.txn_id for r in tail] == [1, 3]

    def test_reset_to_is_atomic_and_replayable(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = WriteAheadLog(path, sync=False)
        wal.append_many([(KIND_PUT, bytes([i])) for i in range(10)])
        kept = [(KIND_PUT, b"survivor")]
        assert wal.reset_to(kept) == 1
        # the live handle keeps appending to the *new* file
        wal.append(KIND_PUT, b"after")
        wal.close()
        assert list(WriteAheadLog.replay(path)) == kept + [(KIND_PUT, b"after")]


class TestFuzzyCheckpoint:
    """The one checkpoint cut: the marker covers only ``covered_seq``; the
    uncovered suffix stays in the WAL (replayable) and still-pending
    records are absorbed by the rewrite's own fsync.  A full cut is the
    case with everything covered."""

    def test_fuzzy_cut_keeps_uncovered_suffix(self, tmp_path):
        daemon = GroupFsyncDaemon(WriteAheadLog(tmp_path / "c.wal", sync=False))
        for i in range(5):
            daemon.submit(KIND_TXN_COMMIT, encode_commit_record(i, i + 1, {}))
        daemon.flush()
        # covered_seq=3: records 4 and 5 were enqueued "during the
        # pre-flush" and must survive the truncation
        dropped = daemon.write_checkpoint(90, {"g": 90}, covered_seq=3)
        assert dropped == 3
        assert daemon.records_since_checkpoint() == 2
        marker, tail = commit_wal_tail(tmp_path / "c.wal")
        assert marker == CheckpointLogRecord(90, {"g": 90})
        assert [r.txn_id for r in tail] == [3, 4]
        daemon.close()

    def test_fuzzy_cut_absorbs_pending_records(self, tmp_path):
        """Nothing flushed before the cut: the rewrite itself makes the
        kept records durable and wakes their waiters — zero extra fsyncs
        inside the quiesced window."""
        daemon = GroupFsyncDaemon(WriteAheadLog(tmp_path / "c.wal", sync=False))
        tickets = [
            daemon.submit(KIND_TXN_COMMIT, encode_commit_record(i, i + 1, {}))
            for i in range(4)
        ]
        assert daemon.durable_watermark() == 0  # nobody flushed
        dropped = daemon.write_checkpoint(50, {"g": 50}, covered_seq=1)
        assert dropped == 1
        # every submitted record is durable after the rewrite's fsync
        assert daemon.durable_watermark() == 4
        assert all(t.durable for t in tickets)
        marker, tail = commit_wal_tail(tmp_path / "c.wal")
        assert marker == CheckpointLogRecord(50, {"g": 50})
        # record 1 (covered: its data would be in the flushed SSTables)
        # was dropped; 2..4 were absorbed into the new tail
        assert [r.txn_id for r in tail] == [1, 2, 3]
        daemon.close()

    def test_fuzzy_cut_with_everything_covered_equals_classic_shape(self, tmp_path):
        daemon = GroupFsyncDaemon(WriteAheadLog(tmp_path / "c.wal", sync=False))
        for i in range(3):
            daemon.submit(KIND_TXN_COMMIT, encode_commit_record(i, i + 1, {}))
        daemon.flush()
        dropped = daemon.write_checkpoint(30, {"g": 30}, covered_seq=3)
        assert dropped == 3
        assert daemon.records_since_checkpoint() == 0
        assert list(replay_commit_wal(tmp_path / "c.wal")) == [
            CheckpointLogRecord(30, {"g": 30})
        ]
        daemon.close()

    def test_fuzzy_tail_replays_after_crash(self, tmp_path):
        """The kept suffix is real redo: a fresh replay sees marker + tail
        exactly as a restart would (idempotent re-application)."""
        daemon = GroupFsyncDaemon(WriteAheadLog(tmp_path / "c.wal", sync=False))
        ws = WriteSet()
        ws.upsert(1, "v")
        for i in range(4):
            daemon.submit(
                KIND_TXN_COMMIT, encode_commit_record(i, i + 1, {"A": ws})
            )
        daemon.write_checkpoint(2, {"g": 2}, covered_seq=2)
        daemon.close()  # simulated crash boundary: reopen the file cold
        marker, tail = commit_wal_tail(tmp_path / "c.wal")
        assert marker.checkpoint_ts == 2
        assert [r.commit_ts for r in tail] == [3, 4]
        redone = apply_recovered_commit(tail[0])
        assert list(redone["A"].entries) == [1]


# ------------------------------------------------- failure-path resource safety


class TestDurabilityFailureCleanup:
    """A failing durability pipeline must never leak commit latches or
    context slots (code-review regression tests)."""

    def test_closed_daemon_releases_latches_and_slot(self, tmp_path):
        mgr = wal_manager(tmp_path / "c.wal")
        mgr.create_table("A")
        txn = mgr.begin()
        mgr.write(txn, "A", 1, "v")
        mgr.durability.close()  # e.g. shutdown racing an in-flight commit
        with pytest.raises(WALError):
            mgr.commit(txn)
        # the handle is finished: no active-transaction/slot leak
        assert txn.is_finished()
        assert mgr.context.active_count() == 0
        # the table commit latch was released: a fresh manager-less commit
        # on the same table must not deadlock
        mgr.durability = None
        mgr.protocol.durability = None
        txn2 = mgr.begin()
        mgr.write(txn2, "A", 2, "w")
        assert mgr.commit(txn2) > 0

    def test_cross_shard_reserve_failure_aborts_all_participants(self, tmp_path):
        smgr = ShardedTransactionManager(
            num_shards=2, protocol="mvcc", data_dir=tmp_path
        )
        smgr.create_table("A")
        txn = smgr.begin()
        smgr.write(txn, "A", 0, "a")
        smgr.write(txn, "A", 1, "b")
        # daemon 1 dies between prepare and the commit point: prepare
        # records are on shard 0's WAL... close both AFTER writes so the
        # reservation (phase two) is what fails
        for daemon in smgr.daemons:
            daemon.close()
        with pytest.raises(WALError):
            smgr.commit(txn)
        assert txn.is_finished()
        for shard in smgr.shards:
            assert shard.context.active_count() == 0
        # both shards still commit new transactions (latches were released)
        smgr2_daemons_dead = smgr  # same instance, daemons closed
        for shard_mgr in smgr2_daemons_dead.shards:
            shard_mgr.durability = None
            shard_mgr.protocol.durability = None
        smgr2_daemons_dead.daemons = [None, None]
        with smgr2_daemons_dead.transaction() as txn2:
            smgr2_daemons_dead.write(txn2, "A", 2, "x")
            smgr2_daemons_dead.write(txn2, "A", 3, "y")
        assert txn2.status is TxnStatus.COMMITTED
        smgr.close()


class TestCoveredWatermark:
    """The fuzzy cut's cover must track settled publishes, not enqueues:
    commits enqueue their record *before* applying, so an in-flight
    commit's seq is enqueued while its writes may still be missing from
    the memtable a concurrent pre-flush seals — covering it would
    truncate redo for data that exists nowhere durable."""

    def test_enqueued_but_unsettled_commit_is_not_covered(self, tmp_path):
        from repro.core.timestamps import TimestampOracle

        daemon = GroupFsyncDaemon(WriteAheadLog(tmp_path / "c.wal", sync=False))
        oracle = TimestampOracle()
        settled = daemon.submit_commit(oracle, encode_commit_record(1, 0, {})[8:])
        settled.wait()
        settled.settle_publish()
        in_flight = daemon.submit_commit(
            oracle, encode_commit_record(2, 0, {})[8:]
        )
        # the in-flight commit (enqueued, applied-or-not, unpublished)
        # must be excluded from the cover — and everything after it too
        assert daemon.last_enqueued() == 2
        assert daemon.covered_watermark() == 1
        later = daemon.submit(KIND_TXN_COMMIT, encode_commit_record(3, 9, {}))
        assert daemon.covered_watermark() == 1  # gap pins the prefix
        in_flight.settle_publish()
        assert daemon.covered_watermark() == 3
        later.wait()
        daemon.close()

    def test_in_flight_commit_survives_fuzzy_cut_in_wal(self, tmp_path):
        """End to end through the commit pipeline: a commit blocked
        between enqueue and apply keeps its record across a concurrent
        background cut (it lands in the kept tail, never under the
        marker)."""
        smgr = ShardedTransactionManager(
            num_shards=1, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        for i in range(6):
            txn = smgr.begin()
            smgr.write(txn, "A", i, i)
            smgr.commit(txn)

        table = smgr.shards[0].table("A")
        orig_apply = table.apply_write_set
        enqueued = threading.Event()
        release = threading.Event()

        def stalled_apply(write_set, commit_ts, oldest):
            # runs after _sequence_commit enqueued the record
            enqueued.set()
            assert release.wait(timeout=10.0)
            return orig_apply(write_set, commit_ts, oldest)

        table.apply_write_set = stalled_apply
        worker_error = []

        def committer():
            try:
                txn = smgr.begin()
                smgr.write(txn, "A", 99, "in-flight")
                smgr.commit(txn)
            except BaseException as exc:  # pragma: no cover
                worker_error.append(exc)

        worker = threading.Thread(target=committer)
        worker.start()
        assert enqueued.wait(timeout=10.0)
        # the stalled commit holds the latches: a full cut would
        # deadlock, but the cover decision is what's under test
        daemon = smgr.daemons[0]
        covered = daemon.covered_watermark()
        assert covered < daemon.last_enqueued()
        table.apply_write_set = orig_apply
        release.set()
        worker.join(timeout=10.0)
        assert not worker_error
        # now the background-style cut runs: the in-flight record from
        # the race window would have been truncated under last_enqueued
        smgr.checkpoint_shard(0, background=True)
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        state = scan_all(reopened, "A")
        assert state[99] == "in-flight"
        reopened.close()
