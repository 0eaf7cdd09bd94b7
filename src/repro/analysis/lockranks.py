"""The canonical lock-rank registry of the sharded engine.

One source of truth for both halves of the concurrency tooling:

* the **runtime sanitizer** (:mod:`repro.analysis.lockcheck`) asserts every
  acquisition against these ranks when ``REPRO_LOCKCHECK=1``;
* the **static pass** (``tools/reprolint`` rule RL001) resolves
  ``with self._lock:`` nestings against :data:`STATIC_LOCK_RANKS`.

Discipline
----------

Ranks ascend **outward**: the innermost leaf (the timestamp oracle) has the
lowest rank, the outermost serialiser (the migration lock) the highest.  A
thread may acquire a lock only while every lock it already holds has a
*strictly higher* rank — i.e. acquisition always moves leafward.  Two
refinements:

* **same-rank classes are indexed** and must be acquired in strictly
  ascending index order (shard fsync-daemon mutexes by shard index in
  ``reserve_group_commit``, LSM per-level locks by level, checkpoint locks
  by shard index);
* **RLock re-entry** on the same object is always allowed.

The ISSUE's seven named classes (oracle, snapshot ledger, shard latch,
daemon mutex, LSM store lock, per-level locks, WAL lock) all appear below;
their relative order is the one the code actually implements (derived from
every nesting on the commit, checkpoint, flush, compaction, replication and
migration paths) — see ``docs/concurrency.md`` for the derivation table.
"""

from __future__ import annotations

# --------------------------------------------------------------------- ranks
# Leaf (acquired last, innermost) .... outermost (acquired first).

#: :class:`~repro.core.timestamps.TimestampOracle` — the global clock; a
#: single increment, nested inside everything that draws a timestamp.
ORACLE = 10
#: :class:`~repro.core.snapshot.SnapshotCoordinator` ledger — documented
#: leaf below the daemon mutexes; takes the oracle inside ``begin_commit``.
SNAPSHOT_LEDGER = 20
#: :class:`~repro.core.replication.ShardReplica` — in-memory version lists
#: of one replica; takes only their unranked per-key latches while held.
REPLICA = 30
#: :class:`~repro.storage.wal.WriteAheadLog` — serialises appends/fsyncs;
#: nested inside the store lock (LSM appends) and the daemon mutex (the
#: fuzzy checkpoint's ``reset_to``).
WAL = 40
#: LSM write-stall condition — a pure parking leaf, but ranked *below* the
#: store and flush locks: parked writers hold nothing, while notifiers may
#: still hold ``_flush_lock`` (a seal install notifies from inside the
#: build loop) or the level locks.
LSM_STALL = 45
#: :class:`~repro.storage.lsm.LSMStore` store lock — memtable/table-list
#: pivots; takes only the WAL lock inside.
LSM_STORE = 50
#: LSM manifest I/O lock — serialises manifest file writes so installs can
#: persist the manifest *outside* the store lock without reordering.
LSM_MANIFEST = 55
#: LSM per-level compaction locks — ascending level order by contract.
LSM_LEVEL = 60
#: :class:`~repro.storage.maintenance.StorageMaintenanceDaemon` condition —
#: boxed in from both sides: the scheduler reads store debt (store lock,
#: 50) while holding it, and ``close`` -> ``flush`` -> ``_kick_maintenance``
#: acquires it while holding the flush lock (70).
MAINTENANCE = 65
#: LSM flush lock — oldest-seal-first build order; taken before the level
#: and store locks by every builder.
LSM_FLUSH = 70
#: :class:`~repro.core.durability.GroupFsyncDaemon` mutex (indexed by shard)
#: — ``reserve_group_commit`` holds every participant's in ascending shard
#: order, then draws the timestamp through the ledger.
DAEMON = 80
#: :class:`~repro.core.replication.ReplicationDaemon` mutex — may take its
#: shard's fsync-daemon mutex (ack confirmation) while held.
REPL_DAEMON = 85
#: :class:`~repro.core.sharding.CheckpointDaemon` condition — the auto-cut
#: throttle reads fsync-daemon counters (rank 80) while holding it.
CKPT_DAEMON = 90
#: Per-table commit latches (quiesced in state-id order per shard,
#: ascending shard order across shards).  Registered for the static rule;
#: the runtime half deliberately leaves them unwrapped (they are the
#: outermost hot-path latches and every checked chain nests inside them).
SHARD_LATCH = 95
#: Per-shard checkpoint locks (indexed by shard) — bracket a whole cut.
CKPT = 100
#: Migration lock — one split/merge/rebalance at a time, outermost.
MIGRATION = 110

#: Rank value -> human-readable class name (cycle reports, graph nodes).
RANK_NAMES: dict[int, str] = {
    ORACLE: "oracle",
    SNAPSHOT_LEDGER: "snapshot-ledger",
    REPLICA: "replica",
    WAL: "wal",
    LSM_STORE: "lsm-store",
    LSM_MANIFEST: "lsm-manifest",
    LSM_LEVEL: "lsm-level",
    LSM_FLUSH: "lsm-flush",
    LSM_STALL: "lsm-stall",
    MAINTENANCE: "maintenance-daemon",
    DAEMON: "fsync-daemon",
    REPL_DAEMON: "replication-daemon",
    CKPT_DAEMON: "ckpt-daemon",
    SHARD_LATCH: "shard-latch",
    CKPT: "checkpoint",
    MIGRATION: "migration",
}


def rank_name(rank: int) -> str:
    """Readable name for a rank value (falls back to the number)."""
    return RANK_NAMES.get(rank, f"rank-{rank}")


# ------------------------------------------------------------- static names
# (class name, attribute name) -> rank, for the reprolint RL001 resolver.
# The attribute-only fallback below covers unambiguous names referenced
# through a local variable (``store._flush_lock``) or from outside the
# defining class.

STATIC_LOCK_RANKS: dict[tuple[str, str], int] = {
    ("TimestampOracle", "_lock"): ORACLE,
    ("SnapshotCoordinator", "_lock"): SNAPSHOT_LEDGER,
    ("ShardReplica", "_lock"): REPLICA,
    ("WriteAheadLog", "_lock"): WAL,
    ("LSMStore", "_lock"): LSM_STORE,
    ("LSMStore", "_manifest_lock"): LSM_MANIFEST,
    ("LSMStore", "_level_locks"): LSM_LEVEL,
    ("LSMStore", "_flush_lock"): LSM_FLUSH,
    ("LSMStore", "_stall_cond"): LSM_STALL,
    ("GroupFsyncDaemon", "_lock"): DAEMON,
    ("GroupFsyncDaemon", "_work"): DAEMON,
    ("GroupFsyncDaemon", "_publish_cv"): DAEMON,
    ("GroupFsyncDaemon", "_replica_cv"): DAEMON,
    ("ReplicationDaemon", "_lock"): REPL_DAEMON,
    ("ReplicationDaemon", "_work"): REPL_DAEMON,
    ("CheckpointDaemon", "_cond"): CKPT_DAEMON,
    ("StorageMaintenanceDaemon", "_cond"): MAINTENANCE,
    ("StateTable", "commit_latch"): SHARD_LATCH,
    ("ShardedTransactionManager", "_ckpt_locks"): CKPT,
    ("ShardedTransactionManager", "_migration_lock"): MIGRATION,
}

#: Attribute names unambiguous across the codebase (usable without the
#: enclosing class, e.g. through a local ``store`` variable).
ATTR_RANK_FALLBACK: dict[str, int] = {
    "_manifest_lock": LSM_MANIFEST,
    "_flush_lock": LSM_FLUSH,
    "_level_locks": LSM_LEVEL,
    "_stall_cond": LSM_STALL,
    "_publish_cv": DAEMON,
    "_replica_cv": DAEMON,
    "commit_latch": SHARD_LATCH,
    "_ckpt_locks": CKPT,
    "_migration_lock": MIGRATION,
}
