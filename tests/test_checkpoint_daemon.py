"""Background checkpoint daemon: lifecycle races, crash windows, bounds.

The durability-offload subsystem (:class:`repro.core.sharding.
CheckpointDaemon` + the fuzzy cut in :meth:`GroupFsyncDaemon.
write_checkpoint`) moves auto-checkpoints off the commit path.
Everything here is about what can go wrong *around* that thread:

* trigger storms must coalesce (a thousand requests ≠ a thousand cuts);
* the on-disk WAL bound (``tail <= checkpoint_interval + one in-flight
  commit``) must survive the move off the commit path (backpressure);
* ``os._exit`` while the daemon is mid-flush must recover to exactly the
  acknowledged state (the sealed-WAL sidecar and the kept fuzzy tail are
  both crash windows);
* shutdown with a wedged WAL (an fsync that never returns) must be a
  bounded join, never a hang — and ``close()`` must skip the final
  checkpoints on a fenced or poisoned manager, keeping the WAL tails for
  restart recovery.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import ShardedTransactionManager, commit_wal_tail
from repro.errors import StorageError

from helpers import run_crash_child, scan_all


def _commit(smgr, key, value):
    txn = smgr.begin()
    smgr.write(txn, "A", key, value)
    smgr.commit(txn)
    return txn


class TestBackgroundMode:
    def test_durable_manager_with_interval_always_has_daemon(self, tmp_path):
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=16
        )
        try:
            assert smgr.checkpoint_daemon is not None
        finally:
            smgr.close()

    def test_no_daemon_without_auto_checkpointing(self, tmp_path):
        """interval=0 (and volatile managers) never spawn the thread."""
        disabled = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=0
        )
        volatile = ShardedTransactionManager(num_shards=2)
        try:
            assert disabled.checkpoint_daemon is None
            assert volatile.checkpoint_daemon is None
        finally:
            disabled.close()
            volatile.close()

    def test_commits_trigger_cuts_and_bound_holds(self, tmp_path):
        """The WAL bound survives the move off the commit path."""
        interval = 10
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=interval
        )
        smgr.create_table("A")
        for i in range(120):
            _commit(smgr, i, f"v{i}")
            for daemon in smgr.daemons:
                # the backpressure guarantee, observed continuously: a
                # commit never leaves a tail past interval + its own
                # records (single-threaded: +2)
                assert daemon.records_since_checkpoint() <= interval + 2
        assert smgr.checkpoint_daemon.wait_idle(timeout=10.0)
        stats = smgr.stats()
        assert stats["background_checkpoints"] > 0
        assert stats["checkpoint_records_truncated"] > 0
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        assert scan_all(reopened, "A") == {i: f"v{i}" for i in range(120)}
        reopened.close()

    def test_trigger_storm_coalesces(self, tmp_path):
        """A request flood collapses into few cuts (set-based pending)."""
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=8
        )
        smgr.create_table("A")
        for i in range(20):
            _commit(smgr, i, i)
        daemon = smgr.checkpoint_daemon
        for _ in range(1000):
            daemon.request(0)
            daemon.request(1)
        assert daemon.wait_idle(timeout=10.0)
        assert daemon.triggers >= 2000
        # every productive cut truncated something; the flood of
        # already-empty requests was skipped, not executed
        assert daemon.cuts <= 12, daemon.stats()
        smgr.close()

    def test_manual_parallel_checkpoint_truncates_all_shards(self, tmp_path):
        smgr = ShardedTransactionManager(
            num_shards=4, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        for i in range(40):
            _commit(smgr, i, i)
        dropped = smgr.checkpoint()  # concurrent all-shards path
        assert dropped == 40
        for shard in range(4):
            marker, tail = commit_wal_tail(
                ShardedTransactionManager.commit_wal_path(tmp_path, shard)
            )
            assert marker is not None and tail == []
        # sequential reference produces the same on-disk shape
        assert smgr.checkpoint(parallel=False) == 0
        smgr.close()


# --------------------------------------------------- crash mid-background-cut


_DAEMON_CRASH_SCRIPT = r"""
import os, sys, threading
from repro.core import ShardedTransactionManager
from repro.storage.lsm import LSMStore

smgr = ShardedTransactionManager(
    num_shards=2, protocol="mvcc", data_dir=sys.argv[1], checkpoint_interval=8
)
smgr.create_table("A")

crash_in = sys.argv[2]
orig_flush = LSMStore.flush
def crashing_flush(self):
    if threading.current_thread().name.startswith("checkpoint-daemon"):
        os._exit(42)  # die inside the daemon's pre-flush, commits mid-air
    return orig_flush(self)
LSMStore.flush = crashing_flush

if crash_in == "reset":
    # deeper window: pre-flush succeeded, crash inside the latched rewrite
    LSMStore.flush = orig_flush
    from repro.storage.wal import WriteAheadLog
    orig_reset = WriteAheadLog.reset_to
    def crashing_reset(self, records):
        if threading.current_thread().name.startswith("checkpoint-daemon"):
            os._exit(42)
        return orig_reset(self, records)
    WriteAheadLog.reset_to = crashing_reset

for i in range(60):
    txn = smgr.begin()
    smgr.write(txn, "A", i, f"v{i}")
    smgr.commit(txn)
    sys.stdout.write(f"{i}\n")
    sys.stdout.flush()
os._exit(41)  # the daemon never fired: the test would be vacuous
"""


class TestDaemonCrashWindows:
    @pytest.mark.parametrize("crash_in", ["flush", "reset"])
    def test_crash_mid_background_cut_recovers_acknowledged_state(
        self, tmp_path, crash_in
    ):
        """os._exit on the daemon thread mid-cut loses nothing acked."""
        proc = run_crash_child(_DAEMON_CRASH_SCRIPT, tmp_path, crash_in)
        assert proc.returncode == 42, (proc.returncode, proc.stderr)
        acked = [int(line) for line in proc.stdout.split() if line.strip()]
        assert acked, "child crashed before acknowledging anything"
        reopened = ShardedTransactionManager.open(tmp_path)
        state = scan_all(reopened, "A")
        # sync durability: every acknowledged commit is recovered exactly
        for i in acked:
            assert state[i] == f"v{i}", i
        # at most one in-flight commit beyond the acknowledged prefix may
        # have reached the WAL before the crash
        assert len(state) - len(acked) <= 1
        # the reopened manager keeps checkpointing in the background
        for i in range(1000, 1030):
            _commit(reopened, i, i)
        assert reopened.checkpoint_daemon.wait_idle(timeout=10.0)
        reopened.close()


# -------------------------------------------------------- wedged / poisoned


class TestBoundedShutdown:
    def test_close_bounded_join_with_wedged_wal(self, tmp_path):
        """A cut stuck in an fsync that never returns must not hang
        shutdown: the daemon's close() gives up after its join timeout
        and reports the abandoned worker."""
        smgr = ShardedTransactionManager(
            num_shards=1, data_dir=tmp_path, checkpoint_interval=4
        )
        smgr.create_table("A")
        for i in range(3):
            _commit(smgr, i, i)
        daemon = smgr.daemons[0]
        gate = threading.Event()
        wedged = threading.Event()
        orig_reset = daemon.wal.reset_to

        def wedged_reset(records):
            wedged.set()
            gate.wait(timeout=30.0)  # an fsync that "never" returns
            return orig_reset(records)

        daemon.wal.reset_to = wedged_reset
        ckpt_daemon = smgr.checkpoint_daemon
        ckpt_daemon.join_timeout = 1.0
        ckpt_daemon.request(0)
        assert wedged.wait(timeout=10.0), "cut never reached the WAL rewrite"
        t0 = time.monotonic()
        drained = ckpt_daemon.close()
        elapsed = time.monotonic() - t0
        assert not drained  # the wedged worker was abandoned, not joined
        assert elapsed < 8.0, f"close() took {elapsed:.1f}s"
        # un-wedge and shut the manager down normally
        gate.set()
        smgr.close()

    def test_close_skips_final_checkpoints_on_fenced_manager(self, tmp_path):
        """Satellite: the (now concurrent) final checkpoints must still be
        skipped when the manager is fenced — the WAL tails are recovery's
        only trustworthy source."""
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        for i in range(10):
            _commit(smgr, i, i)
        smgr._fence("test: simulated phase-two failure")
        with pytest.raises(StorageError):
            smgr.checkpoint()
        smgr.close()
        for shard in range(2):
            marker, tail = commit_wal_tail(
                ShardedTransactionManager.commit_wal_path(tmp_path, shard)
            )
            assert marker is None  # no final cut happened
            assert len(tail) == 5  # every commit record kept for recovery
        reopened = ShardedTransactionManager.open(tmp_path)
        assert scan_all(reopened, "A") == {i: i for i in range(10)}
        reopened.close()

    def test_close_skips_final_checkpoints_on_poisoned_pipeline(self, tmp_path):
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        for i in range(10):
            _commit(smgr, i, i)
        smgr.daemons[1].poison(RuntimeError("injected device failure"))
        smgr.close()  # must not raise, must not cut
        for shard in range(2):
            marker, tail = commit_wal_tail(
                ShardedTransactionManager.commit_wal_path(tmp_path, shard)
            )
            assert marker is None
            assert len(tail) == 5
        reopened = ShardedTransactionManager.open(tmp_path)
        assert scan_all(reopened, "A") == {i: i for i in range(10)}
        reopened.close()

    def test_daemon_skips_cuts_on_fenced_manager(self, tmp_path):
        """The daemon honors the fence: requests drain without touching
        the WALs."""
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=8
        )
        smgr.create_table("A")
        for i in range(10):
            _commit(smgr, i, i)
        assert smgr.checkpoint_daemon.wait_idle(timeout=10.0)
        tails_before = [
            len(commit_wal_tail(
                ShardedTransactionManager.commit_wal_path(tmp_path, s)
            )[1])
            for s in range(2)
        ]
        smgr._fence("test: simulated phase-two failure")
        smgr.checkpoint_daemon.request(0)
        smgr.checkpoint_daemon.request(1)
        assert smgr.checkpoint_daemon.wait_idle(timeout=10.0)
        tails_after = [
            len(commit_wal_tail(
                ShardedTransactionManager.commit_wal_path(tmp_path, s)
            )[1])
            for s in range(2)
        ]
        assert tails_after == tails_before
        smgr.close()


class TestCutFailureVisibility:
    def test_failed_cuts_are_counted_and_release_backpressure(self, tmp_path):
        """A cut dying outside the WAL path (e.g. OSError in the LSM
        pre-flush) must be visible in stats and must release throttled
        committers instead of stalling them out."""
        smgr = ShardedTransactionManager(
            num_shards=1, data_dir=tmp_path, checkpoint_interval=6
        )
        smgr.create_table("A")
        for i in range(4):
            _commit(smgr, i, i)
        assert smgr.checkpoint_daemon.wait_idle(timeout=10.0)

        backend = smgr.table(0, "A").backend
        orig_flush = backend.flush

        def broken_flush():
            raise OSError("injected pre-flush device error")

        backend.flush = broken_flush
        daemon = smgr.checkpoint_daemon
        daemon.throttle_timeout = 20.0
        # push the tail to the hard bound: the commit path throttles, the
        # daemon's cut fails, and the committer must come back promptly
        t0 = time.monotonic()
        for i in range(10, 30):
            _commit(smgr, i, i)
        elapsed = time.monotonic() - t0
        assert elapsed < 15.0, f"commits stalled {elapsed:.1f}s behind failed cuts"
        stats = smgr.stats()
        assert stats["checkpoint_cut_failures"] > 0
        assert isinstance(daemon.last_cut_error, OSError)

        # device heals: checkpoints resume and the bound recovers
        backend.flush = orig_flush
        daemon.request(0)
        assert daemon.wait_idle(timeout=10.0)
        assert smgr.daemons[0].records_since_checkpoint() <= 6
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        state = scan_all(reopened, "A")
        assert all(state[i] == i for i in list(range(4)) + list(range(10, 30)))
        reopened.close()

    def test_close_survives_failing_final_checkpoint(self, tmp_path):
        """A raising final checkpoint must not abort close() mid-shutdown
        — every resource still gets released and the WAL tail stays for
        restart recovery."""
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, checkpoint_interval=0
        )
        smgr.create_table("A")
        for i in range(6):
            _commit(smgr, i, i)

        def broken_checkpoint(parallel=True):
            raise TimeoutError("wedged device at shutdown")

        smgr.checkpoint = broken_checkpoint
        smgr.close()  # must not raise
        assert all(d.wal.closed for d in smgr.daemons)
        reopened = ShardedTransactionManager.open(tmp_path)
        assert scan_all(reopened, "A") == {i: i for i in range(6)}
        reopened.close()
