"""Global snapshot service: cross-shard reads are atomic (the ISSUE-6 fix).

The fractured-read window: cross-shard phase two publishes each shard's
``LastCTS`` sequentially, so a reader pinning per-shard snapshots between
the publishes used to observe half an atomic transaction.  The
:class:`~repro.core.snapshot.SnapshotCoordinator` closes it — readers cap
every pin at the newest timestamp with no cross-shard commit mid-apply.

Pinned here:

* the **pre-fix reproducer** (``global_snapshots=False``): the historical
  per-shard pinning demonstrably fractures a two-shard transfer under a
  deterministic interleaving — the regression test that proves the bug
  existed and the knob isolates;
* fixed mode never fractures: the same interleaving, threaded stress, and
  stress across a **live shard split**;
* the barrier is monotone under concurrent cross-shard committers, and
  the coordinator's registration ledger drains;
* the ``pinned_snapshots`` stats poll no longer races the owning reader
  (the dictionary-changed-size crash);
* a GC racing a first pin capped at a stale barrier keeps the version
  the pin reads, whichever of the two runs its barrier read first, and a
  split landing mid-scan does not break the gather.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import ShardedTransactionManager
from repro.core.context import StateContext
from repro.core.snapshot import SnapshotCoordinator
from repro.errors import TransactionAborted

#: Two-shard transfer invariant: key 0 lives on shard 0, key 1 on shard 1
#: (slot routing: slot = key % NUM_SLOTS, shard = slot % num_shards) and a
#: split of shard 0 moves every *second* owned slot — slots 0 and 1 never
#: migrate, so the invariant keys stay put even across a live split.
BALANCE = 100
TRANSFER = 5


def make_sharded(
    protocol: str,
    *,
    num_shards: int = 2,
    global_snapshots: bool = True,
    keys: tuple[int, ...] = (0, 1),
) -> ShardedTransactionManager:
    kwargs = {"lock_timeout": 5.0} if protocol == "s2pl" else {}
    smgr = ShardedTransactionManager(
        num_shards=num_shards,
        protocol=protocol,
        global_snapshots=global_snapshots,
        **kwargs,
    )
    smgr.create_table("S")
    # Seed every key in ONE transaction: the balances share a commit
    # timestamp, so any consistent snapshot sees either all or none.
    txn = smgr.begin()
    for key in keys:
        smgr.write(txn, "S", key, BALANCE)
    smgr.commit(txn)
    return smgr


def transfer(smgr: ShardedTransactionManager, amount: int = TRANSFER) -> None:
    """Move ``amount`` from key 0 to key 1 atomically (cross-shard 2PC)."""

    def work(txn):
        a = smgr.read(txn, "S", 0)
        b = smgr.read(txn, "S", 1)
        smgr.write(txn, "S", 0, a - amount)
        smgr.write(txn, "S", 1, b + amount)

    smgr.run_transaction(work, max_restarts=10_000)


class TestFracturedReadMatrix:
    """The deterministic interleaving: pin shard 0, commit a transfer,
    read shard 1.  Pre-fix mode fractures; fixed mode must not."""

    @pytest.mark.parametrize("protocol", ["mvcc", "bocc"])
    def test_prefix_mode_demonstrably_fractures(self, protocol):
        """Regression pin for the bug itself: with the coordinator off the
        reader sees the transfer's credit but not its debit."""
        smgr = make_sharded(protocol, global_snapshots=False)
        try:
            reader = smgr.begin()
            first = smgr.read(reader, "S", 0)  # pins shard 0 pre-transfer
            transfer(smgr)
            second = smgr.read(reader, "S", 1)  # shard 1 pinned post-transfer
            smgr.abort(reader)
            assert first + second == 2 * BALANCE + TRANSFER  # fractured!
        finally:
            smgr.close()

    @pytest.mark.parametrize("protocol", ["mvcc", "bocc"])
    def test_fixed_mode_is_atomic(self, protocol):
        """Same interleaving with the coordinator on: the second shard's
        pin is capped below the in-between transfer, the sum holds."""
        smgr = make_sharded(protocol)
        try:
            reader = smgr.begin()
            first = smgr.read(reader, "S", 0)
            transfer(smgr)
            second = smgr.read(reader, "S", 1)
            smgr.abort(reader)
            assert first + second == 2 * BALANCE
        finally:
            smgr.close()

    def test_fixed_mode_is_atomic_s2pl(self):
        """S2PL variant: the reader's S lock on key 0 blocks the transfer's
        write, so the transfer runs in a helper thread and the reader must
        observe the wholly pre-transfer state."""
        smgr = make_sharded("s2pl")
        try:
            reader = smgr.begin()
            first = smgr.read(reader, "S", 0)
            helper = threading.Thread(target=transfer, args=(smgr,))
            helper.start()
            time.sleep(0.05)  # let the transfer park on the lock
            second = smgr.read(reader, "S", 1)
            smgr.abort(reader)  # releases the lock; the transfer proceeds
            helper.join(timeout=10)
            assert not helper.is_alive()
            assert first + second == 2 * BALANCE
        finally:
            smgr.close()

    @pytest.mark.parametrize("protocol", ["mvcc", "bocc"])
    def test_freshness_preserved(self, protocol):
        """The cap must never sacrifice freshness: a snapshot begun after
        a commit (single- or cross-shard) sees it."""
        smgr = make_sharded(protocol)
        try:
            transfer(smgr)
            txn = smgr.begin()
            smgr.write(txn, "S", 2, 777)  # single-shard commit on shard 0
            smgr.commit(txn)
            with smgr.snapshot() as view:
                assert view.get("S", 0) == BALANCE - TRANSFER
                assert view.get("S", 1) == BALANCE + TRANSFER
                assert view.get("S", 2) == 777
        finally:
            smgr.close()

    def test_global_snapshot_reports_cap_and_vector(self):
        smgr = make_sharded("mvcc")
        try:
            with smgr.snapshot() as view:
                assert view.get("S", 0) == BALANCE
                snap = view.global_snapshot()
                assert snap.cap is None  # still single-shard
                assert view.get("S", 1) == BALANCE
                snap = view.global_snapshot()
                assert snap.cap is not None
                assert set(snap.vector) == {0, 1}
        finally:
            smgr.close()


class TestBarrierMonotonicity:
    def test_barrier_never_regresses_under_commits(self):
        smgr = make_sharded("mvcc")
        coordinator = smgr.snapshot_coordinator
        stop = threading.Event()

        def committer():
            while not stop.is_set():
                transfer(smgr)

        thread = threading.Thread(target=committer)
        thread.start()
        try:
            last = 0
            for _ in range(2_000):
                current = coordinator.barrier()
                assert current >= last, (current, last)
                last = current
        finally:
            stop.set()
            thread.join()
        smgr.close()

    def test_registration_ledger_drains(self):
        smgr = make_sharded("mvcc")
        for _ in range(5):
            transfer(smgr)
        stats = smgr.stats()
        assert stats["cross_shard_registered"] >= 5
        assert stats["cross_shard_registered"] == stats["cross_shard_completed"]
        assert stats["cross_shard_inflight"] == 0
        smgr.close()


class TestSnapshotAcrossSplit:
    def test_snapshot_pinned_before_split_stays_consistent(self):
        """Deterministic: pin shard 0, split it live, transfer, read shard
        1 — the pre-split snapshot must still see the pre-transfer pair."""
        smgr = make_sharded("mvcc")
        try:
            transfer(smgr)
            reader = smgr.begin()
            first = smgr.read(reader, "S", 0)
            smgr.split_shard(0)
            transfer(smgr)
            second = smgr.read(reader, "S", 1)
            smgr.abort(reader)
            assert first + second == 2 * BALANCE
        finally:
            smgr.close()

    @pytest.mark.parametrize("protocol", ["mvcc", "bocc"])
    def test_stress_no_fracture_across_live_split(self, protocol):
        """Threaded stress: transfers + fresh-snapshot readers + scans run
        through a live split of shard 0.  No reader may ever observe a
        half-applied transfer (keys 0/1 sit on never-moving slots)."""
        smgr = make_sharded(protocol)
        stop = threading.Event()
        failures: list[object] = []

        def writer():
            # A writer's capped read returning None would crash the work
            # function (None + int): funnel it into the failure list — a
            # silent thread death must fail the test, not warn.
            try:
                while not stop.is_set():
                    transfer(smgr)
            except BaseException as exc:
                failures.append(("writer", repr(exc)))

        def reader():
            # Same rule as the writers: anything but a retryable abort is
            # a failure, not a silently dead reader.
            try:
                while not stop.is_set():
                    try:
                        with smgr.snapshot() as view:
                            total = view.get("S", 0) + view.get("S", 1)
                            scanned = sum(v for _, v in view.scan("S"))
                    except TransactionAborted:
                        continue  # rebalance abort: retry with a fresh snapshot
                    if total != 2 * BALANCE:
                        failures.append(("get", total))
                        return
                    if scanned != 2 * BALANCE:
                        failures.append(("scan", scanned))
                        return
            except BaseException as exc:
                failures.append(("reader", repr(exc)))

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            time.sleep(0.15)
            smgr.split_shard(0)
            time.sleep(0.15)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert not failures, failures
        assert not any(t.is_alive() for t in threads)
        assert smgr.num_shards == 3
        smgr.close()


    @pytest.mark.parametrize("protocol", ["mvcc", "bocc"])
    def test_split_after_scan_opens_its_shards(self, protocol, monkeypatch):
        """Deterministic: a split that lands after a scan opened its
        per-shard children (here: right after the last one) must not make
        the gather index a shard the scan never opened."""
        smgr = make_sharded(protocol)
        original = ShardedTransactionManager._child
        split_after: list[int] = []

        def child(self, txn, shard, route_epoch=None):
            opened = original(self, txn, shard, route_epoch)
            if split_after and shard == split_after[0]:
                split_after.clear()
                self.split_shard(0)
            return opened

        monkeypatch.setattr(ShardedTransactionManager, "_child", child)
        try:
            with smgr.snapshot() as view:
                split_after.append(smgr.num_shards - 1)
                rows = dict(view.scan("S"))
            assert smgr.num_shards == 3
            assert rows == {0: BALANCE, 1: BALANCE}
        finally:
            smgr.close()


@pytest.mark.parametrize("protocol", ["mvcc", "bocc"])
class TestPinFloorRace:
    """A first pin capped at a stale live barrier sits below the reader's
    ``start_ts``.  A GC racing that pin used to reclaim the version the
    pin reads, and a committed key then read as absent.  Both orders are
    forced deterministically."""

    @pytest.fixture()
    def stale(self, protocol):
        """Key 0 holds ``BALANCE``; a newer version commits while a
        cross-shard commit held mid phase two keeps the barrier below it;
        then a reader begins."""
        smgr = make_sharded(protocol, keys=(0,))
        held = smgr.snapshot_coordinator.begin_commit()
        txn = smgr.begin()
        smgr.write(txn, "S", 0, BALANCE + TRANSFER)
        smgr.commit(txn)
        reader = smgr.begin()
        yield smgr, held, reader
        smgr.abort(reader)
        smgr.close()

    def test_gc_between_barrier_read_and_pin(self, stale, monkeypatch):
        """The GC runs after the reader read the barrier and before it
        stored the pin, so it sees neither."""
        smgr, held, reader = stale
        original = SnapshotCoordinator.barrier
        fired: list[int] = []

        def barrier(self):
            value = original(self)
            if not fired:  # the reader's read; the GC's own reads pass
                fired.append(value)
                self.complete(held)
                smgr.collect_garbage()
            return value

        monkeypatch.setattr(SnapshotCoordinator, "barrier", barrier)
        assert smgr.read(reader, "S", 0) == BALANCE
        assert fired == [held - 1]

    def test_pin_between_horizon_scan_and_barrier_read(self, stale, monkeypatch):
        """The reader pins after the GC's horizon scan passed it, and the
        held commit completes before the GC reads its barrier term."""
        smgr, held, reader = stale
        original = StateContext.local_oldest_active_version
        pinned: list[object] = []

        def local_oldest_active_version(self):
            value = original(self)
            if not pinned and self is smgr.shards[-1].context:
                pinned.append(smgr.read(reader, "S", 0))
                smgr.snapshot_coordinator.complete(held)
            return value

        monkeypatch.setattr(
            StateContext, "local_oldest_active_version", local_oldest_active_version
        )
        smgr.collect_garbage()
        assert pinned == [BALANCE]
        assert smgr.read(reader, "S", 0) == BALANCE


class TestPinnedSnapshotsRace:
    def test_stats_poll_never_crashes_while_pins_grow(self):
        """Satellite 1 canary: a stats thread polling ``pinned_snapshots``
        while the owning reader keeps adding children/pins must never hit
        ``RuntimeError: dictionary changed size during iteration``."""
        smgr = make_sharded("mvcc", num_shards=4, keys=tuple(range(64)))
        errors: list[BaseException] = []
        with smgr.snapshot() as view:
            done = threading.Event()

            def poll():
                try:
                    while not done.is_set():
                        snapshot = view.pinned_snapshots()
                        assert isinstance(snapshot, dict)
                except BaseException as exc:  # pragma: no cover - the bug
                    errors.append(exc)

            poller = threading.Thread(target=poll)
            poller.start()
            try:
                for key in range(64):
                    view.get("S", key)
            finally:
                done.set()
                poller.join(timeout=10)
        assert not errors, errors
        assert not poller.is_alive()
        smgr.close()
