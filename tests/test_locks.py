"""Tests for the lock manager: modes, compatibility, deadlock detection."""

import threading
import time

import pytest

from repro.core.locks import LockManager, LockMode, compatible, covers
from repro.errors import DeadlockDetected, LockTimeout


class TestCompatibility:
    def test_matrix(self):
        assert compatible(LockMode.IS, LockMode.IX)
        assert compatible(LockMode.IS, LockMode.S)
        assert compatible(LockMode.IX, LockMode.IX)
        assert not compatible(LockMode.IX, LockMode.S)
        assert compatible(LockMode.S, LockMode.S)
        assert not compatible(LockMode.S, LockMode.X)
        assert not compatible(LockMode.X, LockMode.X)
        assert not compatible(LockMode.IS, LockMode.X)

    def test_covers(self):
        assert covers(LockMode.X, LockMode.S)
        assert covers(LockMode.X, LockMode.IX)
        assert covers(LockMode.S, LockMode.IS)
        assert covers(LockMode.IX, LockMode.IS)
        assert not covers(LockMode.S, LockMode.X)
        assert not covers(LockMode.IS, LockMode.S)


class TestAcquireRelease:
    def test_acquire_grants_immediately_when_free(self):
        lm = LockManager()
        waited = lm.acquire(1, "r", LockMode.X)
        assert waited is False
        assert lm.holders("r") == {1: LockMode.X}

    def test_reacquire_covered_is_noop(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.X)
        assert lm.acquire(1, "r", LockMode.S) is False
        assert lm.holders("r") == {1: LockMode.X}

    def test_shared_lock_coexists(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(2, "r", LockMode.S)
        assert set(lm.holders("r")) == {1, 2}

    def test_upgrade_s_to_x_when_sole_holder(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(1, "r", LockMode.X)
        assert lm.holders("r") == {1: LockMode.X}

    def test_release_wakes_waiter(self):
        lm = LockManager(timeout=5)
        lm.acquire(1, "r", LockMode.X)
        granted = threading.Event()

        def waiter():
            lm.acquire(2, "r", LockMode.X)
            granted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not granted.is_set()
        lm.release(1, "r")
        assert granted.wait(timeout=5)
        thread.join()

    def test_release_all(self):
        lm = LockManager()
        lm.acquire(1, "a", LockMode.S)
        lm.acquire(1, "b", LockMode.X)
        assert lm.release_all(1) == 2
        assert lm.held_resources(1) == set()
        assert lm.lock_count() == 0

    def test_release_all_of_unknown_txn(self):
        assert LockManager().release_all(42) == 0

    def test_lock_table_shrinks(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.X)
        lm.release(1, "r")
        assert lm.lock_count() == 0


class TestTimeouts:
    def test_timeout_raises(self):
        lm = LockManager(timeout=0.05)
        lm.acquire(1, "r", LockMode.X)
        with pytest.raises(LockTimeout):
            lm.acquire(2, "r", LockMode.X)
        assert lm.timeouts == 1

    def test_per_call_timeout_override(self):
        lm = LockManager(timeout=60)
        lm.acquire(1, "r", LockMode.X)
        start = time.monotonic()
        with pytest.raises(LockTimeout):
            lm.acquire(2, "r", LockMode.X, timeout=0.05)
        assert time.monotonic() - start < 2


class TestDeadlockDetection:
    def test_two_party_cycle_detected(self):
        lm = LockManager(timeout=5)
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "b", LockMode.X)

        outcome: list = []

        def t2_wants_a():
            try:
                lm.acquire(2, "a", LockMode.X)
                outcome.append("granted")
            except (DeadlockDetected, LockTimeout) as exc:
                outcome.append(exc)

        thread = threading.Thread(target=t2_wants_a)
        thread.start()
        time.sleep(0.05)
        # closing the cycle: txn 1 wants b, held by waiting txn 2
        with pytest.raises(DeadlockDetected):
            lm.acquire(1, "b", LockMode.X)
        # unblock txn 2 (victim was the requester, txn 1)
        lm.release_all(1)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcome == ["granted"]
        assert lm.deadlocks >= 1

    def test_detection_can_be_disabled(self):
        lm = LockManager(timeout=0.05, deadlock_detection=False)
        lm.acquire(1, "a", LockMode.X)
        with pytest.raises(LockTimeout):  # falls back to timeout
            lm.acquire(2, "a", LockMode.X)

    def test_no_false_positive_on_simple_wait(self):
        lm = LockManager(timeout=1)
        lm.acquire(1, "r", LockMode.X)
        done = []

        def waiter():
            lm.acquire(2, "r", LockMode.S)
            done.append(True)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        lm.release_all(1)
        thread.join(timeout=5)
        assert done == [True]
        assert lm.deadlocks == 0


def _wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


class TestFifoGrants:
    """A queued writer is not overtaken by later readers (no starvation)."""

    def _acquire_in_thread(self, lm, txn, resource, mode, log, **kwargs):
        def run():
            try:
                lm.acquire(txn, resource, mode, **kwargs)
                log.append(txn)
            except (DeadlockDetected, LockTimeout) as exc:
                log.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        return thread

    def test_waiting_writer_is_granted_before_later_reader(self):
        lm = LockManager(timeout=5)
        lm.acquire(1, "r", LockMode.S)
        granted: list = []
        writer = self._acquire_in_thread(lm, 2, "r", LockMode.X, granted)
        _wait_until(lambda: lm.waits == 1)
        reader = self._acquire_in_thread(lm, 3, "r", LockMode.S, granted)
        # compatible with the S holder, but queued behind the writer
        _wait_until(lambda: lm.waits == 2)
        assert granted == []
        lm.release_all(1)
        writer.join(timeout=5)
        assert granted == [2]
        lm.release_all(2)
        reader.join(timeout=5)
        assert granted == [2, 3]

    def test_timed_out_writer_lets_queued_readers_through(self):
        lm = LockManager(timeout=5)
        lm.acquire(1, "r", LockMode.S)
        outcome: list = []
        writer = self._acquire_in_thread(
            lm, 2, "r", LockMode.X, outcome, timeout=0.2
        )
        _wait_until(lambda: lm.waits == 1)
        reader = self._acquire_in_thread(lm, 3, "r", LockMode.S, outcome)
        writer.join(timeout=5)
        reader.join(timeout=2)  # well before the reader's own 5 s timeout
        assert not reader.is_alive()
        assert isinstance(outcome[0], LockTimeout)
        assert outcome[1] == 3

    def test_cycle_through_a_queued_request_is_detected(self):
        lm = LockManager(timeout=5)
        lm.acquire(1, "a", LockMode.S)
        lm.acquire(3, "b", LockMode.X)
        outcome: list = []
        writer = self._acquire_in_thread(lm, 2, "a", LockMode.X, outcome)
        _wait_until(lambda: lm.waits == 1)
        # txn 3 waits behind txn 2's queued X, which waits for txn 1
        reader = self._acquire_in_thread(lm, 3, "a", LockMode.S, outcome)
        _wait_until(lambda: lm.waits == 2)
        with pytest.raises(DeadlockDetected):
            lm.acquire(1, "b", LockMode.S)
        lm.release_all(1)
        writer.join(timeout=5)
        lm.release_all(2)
        reader.join(timeout=5)
        assert outcome == [2, 3]


class TestConcurrentStress:
    def test_many_threads_disjoint_resources(self):
        lm = LockManager(timeout=5)
        errors = []

        def worker(txn_id):
            try:
                for i in range(50):
                    lm.acquire(txn_id, ("r", txn_id, i), LockMode.X)
                lm.release_all(txn_id)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert lm.lock_count() == 0

    def test_contended_counter_with_mutual_exclusion(self):
        lm = LockManager(timeout=10)
        counter = {"value": 0}

        def worker(txn_id):
            for _ in range(25):
                lm.acquire(txn_id, "counter", LockMode.X)
                current = counter["value"]
                time.sleep(0)  # force interleaving
                counter["value"] = current + 1
                lm.release(txn_id, "counter")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["value"] == 100
