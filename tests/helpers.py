"""Shared helpers for the test suite, imported explicitly by test modules.

Lives in its own module (not ``conftest.py``) on purpose: test modules
used to do ``from conftest import load_initial``, which resolves to
*whichever* ``conftest.py`` pytest imported first under the bare module
name — ``benchmarks/conftest.py`` when both directories are collected —
and five modules failed collection.  ``helpers`` exists only under
``tests/``, so ``from helpers import ...`` cannot be shadowed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.core import ShardedTransactionManager, TransactionManager

#: All three concurrency-control protocols under test.
PROTOCOLS = ["mvcc", "s2pl", "bocc"]

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def load_initial(manager: TransactionManager, n: int = 10) -> None:
    """Bulk-load n rows (key i -> i * 10 / i * 100) into states A and B."""
    manager.table("A").bulk_load([(i, i * 10) for i in range(n)])
    manager.table("B").bulk_load([(i, i * 100) for i in range(n)])


def run_crash_child(script: str, data_dir, *args: str) -> subprocess.CompletedProcess:
    """Run an inline crash-test script (``os._exit`` expected) as a real
    subprocess against ``data_dir``; shared by the durable-storage crash
    suites."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    return subprocess.run(
        [sys.executable, "-c", script, str(data_dir), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def preload(manager, state_id: str, rows: list) -> None:
    """Bulk-load ``rows`` into ``state_id`` on either manager."""
    if isinstance(manager, ShardedTransactionManager):
        manager.bulk_load(state_id, rows)
    else:
        manager.table(state_id).bulk_load(rows)


def context_of(manager):
    """The state context holding ``manager``'s groups (a sharded manager
    registers every group on each shard alike)."""
    if isinstance(manager, ShardedTransactionManager):
        return manager.shards[0].context
    return manager.context


def scan_all(smgr: ShardedTransactionManager, state_id: str) -> dict:
    """Full contents of ``state_id`` across every shard, via a snapshot."""
    with smgr.snapshot() as view:
        return dict(view.scan(state_id))
