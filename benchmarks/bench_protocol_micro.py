"""Microbenchmarks of the real (threaded) protocol operations.

These complement the simulated Figure-4 study with wall-clock costs of the
actual implementation: per-read, per-write and per-commit latency of each
protocol, single-threaded (CPython threads serialise on the GIL, so
multi-threaded wall-clock numbers would measure the interpreter lock, not
the protocols — the reason Figure 4 is simulated in :mod:`repro.sim`).

Run:  pytest benchmarks/bench_protocol_micro.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.core import TransactionManager

PROTOCOLS = ["mvcc", "s2pl", "bocc"]
ROWS = 1_000


def make_manager(protocol: str) -> TransactionManager:
    manager = TransactionManager(protocol=protocol)
    manager.create_table("A")
    manager.create_table("B")
    manager.register_group("g", ["A", "B"])
    manager.table("A").bulk_load([(i, i) for i in range(ROWS)])
    manager.table("B").bulk_load([(i, i) for i in range(ROWS)])
    return manager


@pytest.mark.benchmark(group="micro-read")
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_read_txn_cost(benchmark, protocol):
    """One 10-read transaction (the paper's medium reader)."""
    manager = make_manager(protocol)
    counter = iter(range(100_000_000))

    def reader_txn():
        base = next(counter) * 10
        with manager.snapshot() as view:
            for i in range(10):
                view.get("A" if i % 2 == 0 else "B", (base + i) % ROWS)

    benchmark(reader_txn)


@pytest.mark.benchmark(group="micro-write")
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_write_txn_cost(benchmark, protocol):
    """One 10-write transaction over both grouped states."""
    manager = make_manager(protocol)
    counter = iter(range(100_000_000))

    def writer_txn():
        base = next(counter) * 10
        with manager.transaction() as txn:
            for i in range(10):
                manager.write(
                    txn, "A" if i % 2 == 0 else "B", (base + i) % ROWS, i
                )

    benchmark(writer_txn)


@pytest.mark.benchmark(group="micro-commit")
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_commit_only_cost(benchmark, protocol):
    """Commit cost isolated: writes prepared outside the measured region."""
    manager = make_manager(protocol)
    counter = iter(range(100_000_000))

    def commit_prepared():
        base = next(counter) * 10
        txn = manager.begin()
        for i in range(10):
            manager.write(txn, "A", (base + i) % ROWS, i)
        return txn

    def run():
        txn = commit_prepared()
        manager.commit(txn)

    benchmark(run)


@pytest.mark.benchmark(group="micro-abort")
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_abort_cost(benchmark, protocol):
    """Abort is just write-set disposal — no undo in any protocol."""
    manager = make_manager(protocol)

    def run():
        txn = manager.begin()
        for i in range(10):
            manager.write(txn, "A", i, i)
        manager.abort(txn)

    benchmark(run)
