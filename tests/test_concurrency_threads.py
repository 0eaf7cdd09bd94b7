"""Real-thread concurrency tests of the protocol implementations.

These are the *correctness* side of the paper's evaluation: wall-clock
throughput under threads is meaningless in CPython (GIL), but isolation
and consistency guarantees must hold under genuine thread interleavings.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core import GCPolicy, TransactionManager
from repro.errors import TransactionAborted


def run_threads(workers):
    threads = [threading.Thread(target=w) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestMultiStateConsistency:
    @pytest.mark.parametrize("protocol", ["mvcc", "s2pl", "bocc"])
    def test_readers_never_observe_torn_group_commit(self, protocol):
        """The paper's benchmark scenario, miniature: one writer stream over
        two grouped states, concurrent snapshot readers asserting both
        states always carry the same batch number."""
        mgr = TransactionManager(protocol=protocol)
        mgr.create_table("A")
        mgr.create_table("B")
        mgr.register_group("g", ["A", "B"])
        keys = list(range(8))
        mgr.table("A").bulk_load([(k, 0) for k in keys])
        mgr.table("B").bulk_load([(k, 0) for k in keys])

        stop = threading.Event()
        started = threading.Barrier(4)
        violations: list = []
        reader_rounds = [0]

        def writer():
            import time

            started.wait()
            for batch in range(1, 40):
                def work(txn, batch=batch):
                    for k in keys:
                        mgr.write(txn, "A", k, batch)
                        mgr.write(txn, "B", k, batch)

                mgr.run_transaction(work, states=["A", "B"])
                # a short pause gives readers clean windows in which a
                # whole snapshot round can commit (BOCC would otherwise
                # invalidate every round under a back-to-back writer)
                time.sleep(0.002)
            stop.set()

        def reader():
            started.wait()
            while not stop.is_set():
                try:
                    with mgr.snapshot() as view:
                        pairs = [
                            view.multi_get(["A", "B"], k) for k in keys
                        ]
                except TransactionAborted:
                    continue
                reader_rounds[0] += 1
                batches = {p["A"] for p in pairs} | {p["B"] for p in pairs}
                if len(batches) != 1:
                    violations.append(pairs)

        run_threads([writer] + [reader] * 3)
        assert reader_rounds[0] > 0
        assert not violations, violations[:2]

    def test_mvcc_concurrent_disjoint_writers(self):
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table("S")
        errors: list = []

        def writer(base):
            try:
                for i in range(50):
                    with mgr.transaction() as txn:
                        mgr.write(txn, "S", base * 1000 + i, i)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        run_threads([lambda b=b: writer(b) for b in range(4)])
        assert not errors
        with mgr.snapshot() as view:
            assert sum(1 for _ in view.scan("S")) == 200

    def test_mvcc_contended_counter_with_retries(self):
        """Increment one counter from many threads: FCW + retry must not
        lose a single update (snapshot isolation's lost-update guard)."""
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table("S")
        mgr.table("S").bulk_load([("counter", 0)])
        increments_per_thread = 25
        thread_count = 4

        def incrementer():
            for _ in range(increments_per_thread):
                def work(txn):
                    value = mgr.read(txn, "S", "counter")
                    mgr.write(txn, "S", "counter", value + 1)

                mgr.run_transaction(work, max_restarts=10_000)

        run_threads([incrementer] * thread_count)
        with mgr.snapshot() as view:
            assert view.get("S", "counter") == increments_per_thread * thread_count

    def test_bocc_contended_counter_with_retries(self):
        mgr = TransactionManager(protocol="bocc")
        mgr.create_table("S")
        mgr.table("S").bulk_load([("counter", 0)])

        def incrementer():
            for _ in range(20):
                def work(txn):
                    value = mgr.read(txn, "S", "counter")
                    mgr.write(txn, "S", "counter", value + 1)

                mgr.run_transaction(work, max_restarts=10_000)

        run_threads([incrementer] * 3)
        with mgr.snapshot() as view:
            assert view.get("S", "counter") == 60

    def test_s2pl_contended_counter_no_retries_needed(self):
        mgr = TransactionManager(protocol="s2pl", lock_timeout=30.0)
        mgr.create_table("S")
        mgr.table("S").bulk_load([("counter", 0)])

        def incrementer():
            for _ in range(20):
                def work(txn):
                    value = mgr.read(txn, "S", "counter")
                    mgr.write(txn, "S", "counter", value + 1)

                # deadlock aborts possible under upgrade races: retry loop
                mgr.run_transaction(work, max_restarts=10_000)

        run_threads([incrementer] * 3)
        with mgr.snapshot() as view:
            assert view.get("S", "counter") == 60


class TestReadersVersusWriter:
    def test_mvcc_readers_uninterrupted_by_writer(self):
        """MVCC readers must complete without a single abort while the
        writer commits continuously (reads never block, never fail)."""
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table("A")
        mgr.table("A").bulk_load([(k, 0) for k in range(16)])
        stop = threading.Event()
        #: the writer waits for this so at least one reader pass overlaps
        #: its commits — without it a fast writer can finish all 60
        #: batches before the reader threads are even scheduled, and the
        #: reads > 0 assertion flakes on a zero.
        readers_running = threading.Event()
        aborts = [0]
        reads = [0]

        def writer():
            readers_running.wait(5.0)
            for batch in range(60):
                with mgr.transaction() as txn:
                    for k in range(16):
                        mgr.write(txn, "A", k, batch)
            stop.set()

        def reader():
            while not stop.is_set():
                try:
                    with mgr.snapshot() as view:
                        for k in range(16):
                            view.get("A", k)
                            reads[0] += 1
                    readers_running.set()
                except TransactionAborted:
                    aborts[0] += 1

        run_threads([writer, reader, reader])
        assert reads[0] > 0
        assert aborts[0] == 0

    def test_version_garbage_bounded_under_churn(self):
        """On-demand GC keeps hot-key version counts bounded while readers
        continuously pin fresh snapshots."""
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table("A", version_slots=8)
        mgr.table("A").bulk_load([(0, 0)])
        stop = threading.Event()

        def writer():
            for i in range(300):
                with mgr.transaction() as txn:
                    mgr.write(txn, "A", 0, i)
            stop.set()

        def reader():
            while not stop.is_set():
                with mgr.snapshot() as view:
                    view.get("A", 0)

        run_threads([writer, reader])
        mgr.collect_garbage()
        obj = mgr.table("A").mvcc_object(0)
        # bounded: slots + whatever the last snapshots still pin
        assert obj.version_count() <= 16


class TestGCPendingSet:
    def test_concurrent_sweeps_lose_no_registration(self):
        """Writers commit (every third commit runs a periodic sweep) while
        a sweeper thread collects too: no sweep may iterate a set a writer
        inserts into, and no registration may be lost — afterwards a walk
        over every array finds nothing left to reclaim."""
        mgr = TransactionManager(
            protocol="mvcc", gc_policy=GCPolicy.PERIODIC, gc_interval=3
        )
        table = mgr.create_table("A", version_slots=4)
        table.bulk_load([(k, 0) for k in range(64)])
        stop = threading.Event()

        def writer(seed):
            rng = random.Random(seed)
            for i in range(150):
                try:
                    with mgr.transaction() as txn:
                        for key in rng.sample(range(64), 4):
                            mgr.write(txn, "A", key, i)
                except TransactionAborted:
                    pass

        def sweeper():
            while not stop.is_set():
                mgr.collect_garbage()

        writers = [threading.Thread(target=writer, args=(s,)) for s in range(4)]
        sweep_thread = threading.Thread(target=sweeper)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sweep_thread.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            stop.set()
            sweep_thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + [sweep_thread])
        mgr.collect_garbage()
        horizon = mgr.context.oldest_active_version()
        assert sum(
            table.mvcc_object(key).collect(horizon) for key in table.keys()
        ) == 0
