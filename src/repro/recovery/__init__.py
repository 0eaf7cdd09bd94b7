"""Recovery: persistent metadata and restart procedures.

Architecture overview — what is durable, who owns it, and how a crashed
process gets back to its exact committed state:

```
            single-site (DurableSystem)        sharded (data_dir= mode)
            ---------------------------        -------------------------------
  redo      LSM per state (sync=True):         commit WAL per shard (batched
  authority every commit batch fsynced         fsync; repro.core.durability) +
            into the base table                LSM per state per shard
                                               (sync=False, flushed at
                                               checkpoints)
  LastCTS   ContextStore (sync=True            ContextStore per shard
            write-through per publish)         (sync=False hint) + checkpoint
                                               marker + replayed commit ts
  2PC       —                                  coordinator.log: durable commit
                                               decisions, presumed-abort
  create    DurableSystem(dir)                 ShardedTransactionManager(
                                               data_dir=...): new stores only;
                                               refuses an existing schema.json
  restart   DurableSystem.recover()            ShardedTransactionManager.open()
                                               -> load_catalog() (checks, no
                                               writes) -> recover_sharded()
                                               -> post-recovery checkpoint
```

Module map:

* :mod:`~repro.recovery.redo` — :class:`ContextStore`, the durable
  group -> ``LastCTS`` map the paper requires ("the last committed
  transaction (LastCTS) per group ... needs to be persistent", §4.1).
* :mod:`~repro.recovery.recovery` — :class:`DurableSystem`, the
  single-site durable manager: one LSM directory per state, restart =
  restore ``LastCTS`` + rebuild version indexes from the base tables.
* :mod:`~repro.recovery.sharded` — the sharded restart procedure:
  per-shard commit-WAL tail replay on top of the LSM state, in-doubt 2PC
  resolution against the global :class:`CoordinatorLog` (presumed-abort),
  ``LastCTS``/oracle restoration, version-index bootstrap, and the
  post-recovery checkpoint that truncates the replayed tails.  Also owns
  the on-disk layout helpers, the persisted :class:`ShardedSchema` and
  :func:`load_catalog`, the one place a reopen checks it.

Recovery invariants (both procedures):

1. every state table's content equals the last durable committed prefix —
   base tables only ever receive whole committed batches, and redo replay
   applies whole write sets in commit-timestamp order;
2. ``LastCTS`` never moves backwards across a restart: it is restored from
   the max of every durable source (context store, checkpoint marker,
   replayed records);
3. the timestamp oracle restarts above every persisted timestamp;
4. uncommitted work is gone (write sets were volatile; an in-doubt 2PC
   prepare without a durable commit decision is presumed aborted).
"""

from .recovery import DurableSystem, RecoveryReport
from .redo import ContextStore
from .sharded import (
    CoordinatorLog,
    CoordinatorOutcome,
    ShardRecovery,
    ShardedRecoveryReport,
    ShardedSchema,
    load_catalog,
    recover_sharded,
)

__all__ = [
    "ContextStore",
    "CoordinatorLog",
    "CoordinatorOutcome",
    "DurableSystem",
    "RecoveryReport",
    "ShardRecovery",
    "ShardedRecoveryReport",
    "ShardedSchema",
    "load_catalog",
    "recover_sharded",
]
