"""Cross-protocol anomaly matrix: which protocol admits which anomaly.

Empirical pin-down of the guarantees the paper claims per protocol:

=============  ======  ======  ======
anomaly        mvcc    s2pl    bocc
=============  ======  ======  ======
dirty read     no      no      no
lost update    no      no      no
lost delete    no      --      no
write skew     **yes** no      no
=============  ======  ======  ======

A *lost delete* is a lost update whose first committer deleted the key: a
writer that read the key before the delete committed must abort, on
:class:`TransactionManager` and on a two-shard
:class:`ShardedTransactionManager` alike.  Under S2PL the interleaving
cannot arise (the delete waits for the reader's lock), so that cell is
not tested.

MVCC implements *snapshot isolation*: disjoint write sets pass
First-Committer-Wins, so the classic write-skew interleaving commits on
both sides — the one anomaly SI famously permits (asserted here as
*documented behaviour*, not a bug).  S2PL serialises through locks, BOCC
through backward validation of read sets; both reject the interleaving.
"""

from __future__ import annotations

import threading
import time

import pytest

from helpers import PROTOCOLS, preload

from repro.core import ShardedTransactionManager, TransactionManager
from repro.errors import TransactionAborted


def make_manager(protocol: str, rows: dict) -> TransactionManager:
    kwargs = {"lock_timeout": 5.0} if protocol == "s2pl" else {}
    manager = TransactionManager(protocol=protocol, **kwargs)
    manager.create_table("S")
    manager.table("S").bulk_load(list(rows.items()))
    return manager


def read_committed(manager: TransactionManager, key):
    with manager.snapshot() as view:
        return view.get("S", key)


class TestDirtyRead:
    """No protocol ever exposes an uncommitted write."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_uncommitted_write_is_invisible(self, protocol):
        manager = make_manager(protocol, {"x": 0})
        writer = manager.begin()
        manager.write(writer, "S", "x", 99)

        observed = []

        def reader():
            # under S2PL this read *blocks* on the writer's X lock until
            # the abort below releases it — still no dirty value.
            def work(txn):
                observed.append(manager.read(txn, "S", "x"))

            manager.run_transaction(work, max_restarts=100)

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        manager.abort(writer)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert observed == [0]


class TestLostUpdate:
    """Concurrent read-modify-write of one counter never loses an update."""

    @pytest.mark.parametrize("protocol", ["mvcc", "bocc"])
    def test_second_committer_aborts(self, protocol):
        """Deterministic interleaving: both read 0, both write, the second
        commit must die (FCW for MVCC, backward validation for BOCC)."""
        manager = make_manager(protocol, {"x": 0})
        t1 = manager.begin()
        t2 = manager.begin()
        v1 = manager.read(t1, "S", "x")
        v2 = manager.read(t2, "S", "x")
        manager.write(t1, "S", "x", v1 + 1)
        manager.write(t2, "S", "x", v2 + 1)
        manager.commit(t1)
        with pytest.raises(TransactionAborted):
            manager.commit(t2)
        assert read_committed(manager, "x") == 1

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_threaded_counter_is_exact(self, protocol):
        """All protocols: retried increments from 3 threads all stick.

        (S2PL resolves the upgrade deadlock via its detector, so the same
        retry loop covers it — no separate interleaving needed.)
        """
        manager = make_manager(protocol, {"x": 0})
        per_thread = 15

        def incrementer():
            for _ in range(per_thread):
                def work(txn):
                    value = manager.read(txn, "S", "x")
                    manager.write(txn, "S", "x", value + 1)

                manager.run_transaction(work, max_restarts=10_000)

        threads = [threading.Thread(target=incrementer) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert read_committed(manager, "x") == 3 * per_thread


class TestLostDelete:
    """A committed delete is a write First-Committer-Wins must see."""

    @pytest.mark.parametrize("protocol", ["mvcc", "bocc"])
    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    def test_write_after_concurrent_delete_aborts(self, protocol, sharded):
        """t1 reads the key, t2 deletes it and commits, then t1 writes it:
        t1's commit must die, or t2's delete is silently undone."""
        manager = (
            ShardedTransactionManager(num_shards=2, protocol=protocol)
            if sharded
            else TransactionManager(protocol=protocol)
        )
        manager.create_table("S")
        try:
            preload(manager, "S", [(1, "a")])
            t1 = manager.begin()
            assert manager.read(t1, "S", 1) == "a"
            t2 = manager.begin()
            manager.delete(t2, "S", 1)
            manager.commit(t2)
            manager.write(t1, "S", 1, "b")
            with pytest.raises(TransactionAborted):
                manager.commit(t1)
            assert read_committed(manager, 1) is None
        finally:
            manager.close()


class TestWriteSkew:
    """x + y >= 1 constraint, each txn zeroes one variable if x + y >= 2."""

    def test_mvcc_permits_write_skew(self):
        """Snapshot isolation's documented anomaly: disjoint write sets
        pass First-Committer-Wins, so both commits succeed and the
        constraint breaks.  This is by design — the paper's MVCC provides
        SI, not serialisability."""
        manager = make_manager("mvcc", {"x": 1, "y": 1})
        t1 = manager.begin()
        t2 = manager.begin()
        assert manager.read(t1, "S", "x") + manager.read(t1, "S", "y") >= 2
        assert manager.read(t2, "S", "x") + manager.read(t2, "S", "y") >= 2
        manager.write(t1, "S", "x", 0)
        manager.write(t2, "S", "y", 0)
        manager.commit(t1)
        manager.commit(t2)  # SI: no write-write overlap, both survive
        assert read_committed(manager, "x") + read_committed(manager, "y") == 0

    def test_bocc_rejects_write_skew(self):
        """Backward validation sees t2's read set intersect t1's write set
        and kills t2 — BOCC is serialisable."""
        manager = make_manager("bocc", {"x": 1, "y": 1})
        t1 = manager.begin()
        t2 = manager.begin()
        assert manager.read(t1, "S", "x") + manager.read(t1, "S", "y") >= 2
        assert manager.read(t2, "S", "x") + manager.read(t2, "S", "y") >= 2
        manager.write(t1, "S", "x", 0)
        manager.write(t2, "S", "y", 0)
        manager.commit(t1)
        with pytest.raises(TransactionAborted):
            manager.commit(t2)
        assert read_committed(manager, "x") + read_committed(manager, "y") == 1

    @pytest.mark.parametrize("protocol", ["s2pl", "bocc"])
    def test_constraint_preserved_under_concurrency(self, protocol):
        """The serialisable protocols keep the constraint under the real
        threaded race (S2PL via lock conflicts + deadlock victimisation,
        BOCC via validation): after both withdrawals ran, x + y >= 1."""
        manager = make_manager(protocol, {"x": 1, "y": 1})

        def withdraw(my_key):
            def work(txn):
                total = manager.read(txn, "S", "x") + manager.read(txn, "S", "y")
                if total >= 2:
                    manager.write(txn, "S", my_key, 0)

            manager.run_transaction(work, max_restarts=10_000)

        threads = [
            threading.Thread(target=withdraw, args=(key,)) for key in ("x", "y")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert read_committed(manager, "x") + read_committed(manager, "y") >= 1
