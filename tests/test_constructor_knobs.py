"""Pin the constructor parameters of the engine's three central classes.

Every option doubles the configurations tests and benchmarks must cover,
so adding one has to be a deliberate, reviewed edit to this list.
"""

from __future__ import annotations

import inspect

from repro.core import ShardedTransactionManager, TransactionManager
from repro.core.durability import GroupFsyncDaemon


def test_constructor_parameters_are_pinned():
    def params(cls) -> list[str]:
        return list(inspect.signature(cls.__init__).parameters)[1:]

    assert params(ShardedTransactionManager) == [
        "num_shards",
        "protocol",
        "gc_policy",
        "gc_interval",
        "data_dir",
        "durability",
        "fsync_batch_window",
        "checkpoint_interval",
        "checkpoint_mode",
        "coordinator_batching",
        "lsm_options",
        "global_snapshots",
        "storage_maintenance",
        "cache_budget",
        "state_residency",
        "memory_budget",
        "replication_factor",
        "ack",
        "replica_ack_timeout",
        "protocol_kwargs",
    ]
    assert params(TransactionManager) == [
        "protocol",
        "context",
        "gc_policy",
        "gc_interval",
        "oracle",
        "wal_path",
        "durability",
        "durability_daemon",
        "protocol_kwargs",
    ]
    assert params(GroupFsyncDaemon) == [
        "wal",
        "mode",
        "max_batch",
        "batch_window",
        "flush_interval",
        "flusher",
        "wait_in_latch",
        "lock_index",
    ]
