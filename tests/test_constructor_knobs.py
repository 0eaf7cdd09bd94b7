"""Pin the constructor parameters of the engine's central classes.

Every option doubles the configurations tests and benchmarks must cover,
so adding one has to be a deliberate, reviewed edit to this list.
"""

from __future__ import annotations

import dataclasses
import inspect

from repro.core import (
    MVCCObject,
    ShardedTransactionManager,
    StateContext,
    StateTable,
    TransactionManager,
)
from repro.core.durability import GroupFsyncDaemon
from repro.core.sharding import CheckpointDaemon
from repro.errors import ABORT_USER
from repro.recovery.sharded import CoordinatorLog, recover_sharded
from repro.sim import CostModel


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
        "durability_daemon",
        "protocol_kwargs",
    ]
    assert params(GroupFsyncDaemon) == [
        "wal",
        "mode",
        "max_batch",
        "batch_window",
        "flusher",
        "wait_in_latch",
        "lock_index",
    ]
    # The active set is a dict keyed by transaction id: no slot vector to
    # size.  ``capacity`` is the version count that triggers on-demand GC.
    assert params(StateContext) == ["oracle"]
    assert params(MVCCObject) == ["capacity"]
    assert params(CoordinatorLog) == ["path", "batch_window"]
    assert params(CheckpointDaemon) == ["manager"]
    # One switch picks how a checkpoint is cut: the daemon's best-effort
    # background cut or the full one.
    assert list(
        inspect.signature(ShardedTransactionManager.checkpoint_shard).parameters
    )[1:] == ["idx", "background", "during_migration"]
    # One way to reopen a store, and its recovery always ends in a
    # checkpoint: no switch skips either.
    assert list(inspect.signature(ShardedTransactionManager.open).parameters) == [
        "data_dir",
        "recovery_workers",
        "kwargs",
    ]
    assert list(inspect.signature(recover_sharded).parameters) == [
        "manager",
        "max_workers",
    ]
    # Every partition uses the one key and value encoding the catalog
    # records: no per-state codec a reopen could not recreate.
    assert list(
        inspect.signature(ShardedTransactionManager.create_table).parameters
    )[1:] == ["state_id", "backend_factory", "version_slots"]
    # One residency eviction path: the faulting reader's backstop.  No
    # second-chance mode, so no switch between sweeps.
    assert list(inspect.signature(StateTable.evict_cold_versions).parameters)[1:] == [
        "limit",
        "horizon",
        "spare",
    ]
    assert list(inspect.signature(MVCCObject.evictable).parameters)[1:] == ["horizon"]


def test_vote_signatures_match_across_managers():
    # A stream topology casts the same per-state votes on either manager.
    for cls in (TransactionManager, ShardedTransactionManager):
        assert list(inspect.signature(cls.commit_state).parameters)[1:] == [
            "txn",
            "state_id",
        ]
        abort = inspect.signature(cls.abort_state).parameters
        assert list(abort)[1:] == ["txn", "state_id", "reason"]
        assert abort["reason"].default == ABORT_USER


def test_cost_model_fields_are_pinned():
    # The Figure-4 simulator charges exactly these costs; a field nothing
    # in ``repro.sim.clients`` reads is a model of a feature the simulator
    # no longer has.
    assert [f.name for f in dataclasses.fields(CostModel)] == [
        "read_hit_us",
        "read_miss_us",
        "mvcc_read_overhead_us",
        "mvcc_pin_us",
        "write_buffer_us",
        "lock_acquire_us",
        "lock_release_all_us",
        "validate_base_us",
        "validate_per_record_us",
        "latch_us",
        "apply_per_key_us",
        "commit_base_us",
        "commit_sync_io_us",
        "begin_us",
        "cache_capacity",
    ]
