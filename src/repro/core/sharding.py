"""Sharded transaction manager: slot-routed states, cross-shard 2PC,
online shard split/merge.

Scaling step beyond the paper's single-site design: every registered state
is hash-partitioned by key across ``num_shards`` independent shards —
through the slot-map indirection of :mod:`repro.core.slots` (keys hash to
a fixed slot space, slots map to shards), so shards can split and merge
*online* (:meth:`ShardedTransactionManager.split_shard` /
:meth:`~ShardedTransactionManager.merge_shard`) without re-routing the
rest of the key space.  Split, merge and replica failover
(:meth:`~ShardedTransactionManager.failover`) are one slot handover —
quiesce, hand each moved key's live version over at its original commit
timestamp, log one durable ``SlotFlip``, purge the source — that differ
only in where the moved image comes from (the source shard or a
replica).  Each
shard is a complete single-site stack — its own :class:`StateContext`, its
own concurrency-control protocol instance, group-commit coordinator and
garbage collector — so shards never contend on latches, lock tables or
validation sections.  All shards share one :class:`TimestampOracle`, which
keeps transaction ids and commit timestamps in a single total order across
the whole system.

Transaction routing:

* a transaction that only touches keys of **one** shard commits through
  that shard's existing single-site pipeline, completely untouched (the
  fast path — zero overhead versus an unsharded manager);
* a transaction whose read/write set **spans** shards commits through
  two-phase commit built on the protocols' prepare/commit-prepared surface
  (:mod:`repro.core.protocol`): every participant shard prepares (validates
  and pins its commit resources) in ascending shard order, then one commit
  timestamp is drawn from the shared oracle and applied on every shard.
  A prepare failure on any participant aborts all of them — nothing is
  ever applied partially.

Deadlock freedom of the 2PC path: participants always prepare in ascending
shard order, so two cross-shard commits can never hold-and-wait on each
other's prepare resources in a cycle.  (For S2PL, *data-path* key locks are
still acquired in client order on each shard; a lock cycle spanning two
shards is invisible to the per-shard deadlock detectors and is resolved by
the lock timeout — prefer MVCC/BOCC for cross-shard-heavy workloads.)

Cross-shard snapshot consistency (the global snapshot service): a
cross-shard 2PC decision publishes per-shard ``LastCTS`` one shard at a
time, so per-shard snapshot pins alone could land between two publishes
and observe half of an atomic transaction.  The manager therefore owns a
:class:`~repro.core.snapshot.SnapshotCoordinator` that registers every
cross-shard commit timestamp from draw to last publish and exposes a
*barrier* — the newest timestamp at which no cross-shard commit is
mid-apply.  Every sharded child transaction caps its snapshot pins at the
live barrier, and on first touch of a **second** shard the transaction
freezes a :class:`~repro.core.snapshot.GlobalSnapshot` cap (the minimum of
the barrier and every pin already taken) that all shards then read at —
one global ReadCTS vector, acquired lazily so the single-shard fast path
stays allocation-free.  Cross-shard transactions are thus either entirely
visible or entirely invisible to every reader; cross-shard *writes* were
already all-or-nothing.  Interaction with rebalancing: slot migration
hands over only the newest committed version per key, so a snapshot
pinned *before* a split that reads a moved key *after* the flip still sees
it as of the handover version or absent (the pinned-snapshot relaxation
of :meth:`ShardedTransactionManager.split_shard`); vectors acquired after
the flip are unaffected.

Durable mode (``data_dir=``): every shard becomes durable end-to-end.  Each
shard owns an :class:`~repro.storage.lsm.LSMStore` directory per state
(the base tables) and a commit WAL driven by the batched-fsync daemon,
whose checkpoint markers and commit records also persist group
``LastCTS``; cross-shard commits additionally log their decision to a global
coordinator outcome log (batched: concurrent 2PC coordinators share one
decision fsync) so recovery can resolve in-doubt prepares
(presumed-abort).  Commit WALs stay bounded through checkpoints: before
a shard's tail outgrows ``checkpoint_interval`` records the background
:class:`CheckpointDaemon` (committers only signal it) pre-flushes the
shard's LSM stores without latches, quiesces it briefly (all commit
latches) and rewrites the WAL to a checkpoint marker plus the few
records the pre-flush did not cover — an ARIES-style fuzzy checkpoint.
Manual, closing, migration and post-recovery cuts take the same path
with everything covered, leaving just the marker.  The constructor only
creates a store; a crashed or closed one reopens with
:meth:`ShardedTransactionManager.open`, which replays only the tails,
shards in parallel (:mod:`repro.recovery.sharded`).

Replication and ack policies (``replication_factor=``/``ack=``): each
durable primary shard can ship its committed WAL tail to
``replication_factor`` local :class:`~repro.core.replication.ShardReplica`
instances through an async :class:`~repro.core.replication.ReplicationDaemon`
(bootstrap from a checkpoint image, then contiguous shipped-batch apply).
The ``ack`` knob decides what a returned commit *guarantees*:

* ``ack="local"`` (default) — the commit returns once its record is
  durable in the **primary's** WAL; replica shipping is fully
  asynchronous.  A machine loss (primary WAL gone) may lose the newest
  commits that had not shipped yet; a process crash loses nothing.
* ``ack="quorum"`` — the commit additionally waits until
  ``ceil((replication_factor + 1) / 2)`` replicas (primary included)
  confirm the record durable in their replica WALs, via the
  replica-durable watermark the fsync daemon keeps next to its local one.
  An acked commit survives the loss of the primary's storage entirely:
  :meth:`ShardedTransactionManager.failover` promotes the most-caught-up
  replica over a durable SlotFlip in the coordinator log.  The wait is
  *bounded*: if the quorum cannot confirm within ``replica_ack_timeout``
  (replicas lagging or retired), the commit — which is already durable
  and visible locally — raises :class:`~repro.errors.ReplicaAckTimeout`
  **after** settling, degrading the acknowledgement instead of wedging
  committers (cancel-sync-standby semantics).

Follower reads compose with the global snapshot service:
:meth:`ShardedTransactionManager.read_follower` serves a key from one of
its shard's replicas at :meth:`~ShardedTransactionManager.follower_read_ts`
— the cross-shard barrier capped by the replicas' applied watermarks — so
a scatter of follower reads never observes a fractured cross-shard commit.

Locking discipline: every hot-path mutex in this module carries a rank
from :mod:`repro.analysis.lockranks`; acquisition order, the deadlock
argument, the runtime sanitizer (``REPRO_LOCKCHECK=1``) and the
``reprolint`` static pass are documented in ``docs/concurrency.md``.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from collections.abc import Iterable, Iterator
from heapq import merge as _heap_merge
from pathlib import Path
from typing import Any, Callable

from ..analysis import lockranks
from ..analysis.lockcheck import lock_graph, make_condition, make_lock
from ..errors import (
    ABORT_GROUP,
    ABORT_REBALANCE,
    ABORT_USER,
    ReplicaAckTimeout,
    SnapshotTooOld,
    StorageError,
    TransactionAborted,
    WALError,
)
from ..faults import FaultInjector
from ..storage.kvstore import KVStore
from ..storage.lsm import MAINTENANCE_BACKGROUND, MAINTENANCE_INLINE, LSMOptions, LSMStore
from ..storage.maintenance import StorageMaintenanceDaemon
from ..storage.wal import KIND_TXN_COMMIT, WriteAheadLog
from .codecs import ORDERED_KEY_CODEC, PICKLE_CODEC
from .durability import (
    DURABILITY_SYNC,
    CommitLogRecord,
    DurabilityTicket,
    GroupFsyncDaemon,
    apply_recovered_commit,
    encode_commit_body,
    reserve_group_commit,
    stamp_commit_record,
)
from .gc import GCPolicy
from .isolation import IsolationLevel
from .manager import TransactionFacade, TransactionManager
from .protocol import PreparedCommit
from .replication import FollowerReadTs, ReplicationDaemon, ShardReplica
from .slots import SlotFlip, SlotMap, slot_of_key
from .snapshot import GlobalSnapshot, SnapshotCoordinator
from .table import RESIDENCY_FULL, RESIDENCY_LAZY, RESIDENCY_MODES, StateTable
from .timestamps import TimestampOracle
from .transactions import (
    FLAG_ABORT,
    FLAG_ACTIVE,
    FLAG_COMMIT,
    TXN_ABORTED,
    TXN_IN_DOUBT,
    Transaction,
    TransactionHandle,
)
from .version_store import DEFAULT_SLOTS
from .write_set import WriteSet


def shard_of_key(key: Any, num_shards: int) -> int:
    """Stable shard assignment for ``key`` under the *uniform* slot map.

    Routing is slot-based (:mod:`repro.core.slots`): the key hashes to one
    of :data:`~repro.core.slots.NUM_SLOTS` permanent slots, and the slot
    maps to a shard.  This function composes :func:`slot_of_key` with the
    round-robin default assignment (slot ``s`` -> shard ``s % N``), which
    for every shard count dividing the slot space — all powers of two up
    to 256, every configuration the benchmarks use — equals the historical
    ``key % num_shards`` integer routing, so workload generators can still
    *target* a shard by choosing a residue class.  A manager whose slots
    have migrated routes through its own live :class:`SlotMap` instead.

    Any numeric key with an integral value routes by that integer —
    ``2``, ``2.0`` and ``True``/``1`` always co-locate, because the
    per-shard tables (like any dict) treat equal keys as one key.

    Negative integers are in range by construction: Python's ``%`` with a
    positive modulus always returns a value in ``[0, num_shards)`` (e.g.
    ``-1 % 4 == 3``), unlike C-style remainder which can go negative —
    ``tests/test_sharding.py`` pins the full-domain property explicitly.
    """
    if num_shards <= 1:
        return 0
    return slot_of_key(key) % num_shards


class ShardedTransaction(TransactionHandle):
    """Handle for a transaction that may span several shards.

    Child transactions on the individual shards are begun lazily on first
    touch; their handles live in :attr:`children` keyed by shard index.
    Like every transaction handle it is driven by one client thread —
    for a stream topology, the thread pushing its elements — so the
    per-state votes in :attr:`state_flags` need no mutex.
    """

    __slots__ = (
        "children",
        "declared_states",
        "state_flags",
        "isolation",
        "snapshot_cap",
    )

    def __init__(
        self,
        txn_id: int,
        declared_states: list[str] | None = None,
        isolation: IsolationLevel = IsolationLevel.SNAPSHOT,
    ) -> None:
        TransactionHandle.__init__(self, txn_id)
        #: shard index -> child transaction handle (lazily created).
        self.children: dict[int, Transaction] = {}
        self.declared_states = list(declared_states or [])
        #: state id -> per-state vote (:meth:`ShardedTransactionManager.
        #: commit_state`); every declared state starts ``ACTIVE``.
        self.state_flags = dict.fromkeys(self.declared_states, FLAG_ACTIVE)
        self.isolation = isolation
        #: Frozen global-snapshot cap, acquired lazily on first touch of a
        #: second shard (``None`` while the transaction is single-shard).
        self.snapshot_cap: int | None = None

    def shards(self) -> list[int]:
        """Ascending indices of the shards this transaction touched."""
        return sorted(self.children)

    def is_cross_shard(self) -> bool:
        return len(self.children) > 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedTransaction(id={self.txn_id}, status={self.status.value}, "
            f"shards={self.shards()})"
        )


class ShardedSnapshotView:
    """Read-only view over every shard, capped at the global barrier."""

    def __init__(self, manager: "ShardedTransactionManager", txn: ShardedTransaction) -> None:
        self._manager = manager
        self._txn = txn

    @property
    def txn(self) -> ShardedTransaction:
        return self._txn

    def get(self, state_id: str, key: Any) -> Any | None:
        return self._manager.read(self._txn, state_id, key)

    def multi_get(self, state_ids: list[str], key: Any) -> dict[str, Any | None]:
        """Read ``key`` from several states; one shard, one snapshot."""
        return {sid: self.get(sid, key) for sid in state_ids}

    def scan(
        self, state_id: str, low: Any = None, high: Any = None
    ) -> Iterator[tuple[Any, Any]]:
        """Key-ordered scan merged across every shard's partition."""
        return self._manager.scan(self._txn, state_id, low, high)

    def pinned_snapshots(self) -> dict[int, dict[str, int]]:
        """Shard index -> (group id -> pinned ReadCTS), diagnostics.

        ``pin_snapshot`` inserts into a child's ``read_cts`` without the
        context lock (see :meth:`StateContext.oldest_active_version` for the
        same hazard), and a concurrent read may also add a child — so a
        stats poll racing the owning client thread can hit CPython's
        ``RuntimeError: dictionary changed size during iteration``.  Retry
        until a consistent copy lands; both dicts only ever grow, so the
        retry terminates as soon as the racing insert finishes.
        """
        while True:
            try:
                return {
                    idx: dict(child.read_cts)
                    for idx, child in self._txn.children.items()
                }
            except RuntimeError:
                continue

    def global_snapshot(self) -> "GlobalSnapshot":
        """The transaction's :class:`~repro.core.snapshot.GlobalSnapshot`:
        the frozen cross-shard cap (``None`` while single-shard) plus the
        per-shard ReadCTS vector enforced on the read path."""
        return GlobalSnapshot(self._txn.snapshot_cap, self.pinned_snapshots())


#: Upper bound on the worker pools used for all-shards maintenance
#: (manual/final checkpoints): enough to overlap the per-shard fsyncs,
#: small enough not to swamp the interpreter with GIL-bound threads.
_SHARD_POOL_LIMIT = 8

#: Deadline for the WAL drain inside a checkpoint cut: a wedged device
#: fails the cut (``WALError``/``TimeoutError``) instead of parking the
#: checkpointing thread in it forever.
CHECKPOINT_FLUSH_TIMEOUT = 30.0


class CheckpointDaemon:
    """Background checkpoint thread of one sharded manager.

    Committers never run ``checkpoint_shard`` themselves: when a shard's
    commit-WAL tail crosses the trigger they :meth:`request` a cut (one set
    insert under a mutex) and return — the LSM flush, marker and truncation
    all happen on this thread, off the commit path's tail latency.
    Requests coalesce: a trigger storm on one shard collapses into a single
    cut.  Fence and poison are honored by the cut itself
    (``checkpoint_shard(idx, background=True)`` skips on both), so the
    daemon can never flush base tables on a manager whose in-memory state
    is not trustworthy.

    The on-disk WAL bound survives the move off the commit path through
    :meth:`throttle`: a committer about to push a shard's tail past
    ``checkpoint_interval`` parks until the daemon's cut brings it back
    under.  The wait is bounded — on a wedged pipeline the committer is
    released after ``throttle_timeout`` and the device failure surfaces on
    the commit's own durability path instead.

    Cuts of *different* shards are independent (each quiesces only its own
    tables and truncates its own WAL), so the daemon runs a small worker
    pool of half the shards (rounded up, at most ``_SHARD_POOL_LIMIT``):
    when several shards trip together — the common case under a uniform
    load — their marker/SSTable fsyncs overlap on the device instead of
    forming one long serial stall that commits behind the last shard's
    latches would feel, while commits on the uncut half keep flowing.

    Lifecycle: :meth:`close` drains the pending set (outstanding requests
    are still cut), then joins with a bounded timeout so a wedged WAL (an
    ``fsync`` that never returns) cannot hang shutdown — the daemonic
    workers are abandoned in the syscall instead.  :meth:`wait_idle` lets
    tests (and the final checkpoint) synchronise with the queue.
    """

    def __init__(self, manager: "ShardedTransactionManager") -> None:
        self._manager = manager
        # Ranked above the per-shard fsync-daemon mutex: the auto-cut
        # throttle samples ``records_since_checkpoint()`` (daemon lock)
        # while holding this condition's lock.
        self._cond = make_condition(lockranks.CKPT_DAEMON, name="ckpt-daemon")
        self._pending: set[int] = set()
        #: Shard indices currently being cut (at most one worker each).
        self._active: set[int] = set()
        self._closed = False
        #: Backpressured committers give up after this long (seconds): the
        #: WAL bound is best-effort once the pipeline is wedged.
        self.throttle_timeout = 30.0
        #: How long :meth:`close` waits before abandoning the workers.
        self.join_timeout = 10.0
        # stats
        self.triggers = 0
        self.cuts = 0
        self.records_truncated = 0
        #: Cuts that raised out of ``checkpoint_shard`` (anything beyond
        #: the WALError/TimeoutError a background cut absorbs — e.g.
        #: an OSError from the LSM pre-flush).  Kept visible instead of
        #: swallowed: diagnosable via :meth:`stats`, and committers
        #: parked in :meth:`throttle` are released when the cut they are
        #: waiting for fails, rather than stalling out their timeout.
        self.failed_cuts = 0  #: guarded_by(_cond)
        self.last_cut_error: BaseException | None = None  #: guarded_by(_cond)
        #: Per-shard failure epochs: throttled committers give up only
        #: when a cut of *their* shard fails, not any shard's.
        self._shard_cut_failures: dict[int, int] = {}
        workers = min((manager.num_shards + 1) // 2, _SHARD_POOL_LIMIT)
        self._threads = [
            threading.Thread(
                target=self._run, name=f"checkpoint-daemon-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def request(self, idx: int) -> None:
        """Ask for a cut of shard ``idx``; coalesced, never blocks."""
        with self._cond:
            if self._closed:
                return
            self.triggers += 1
            if idx not in self._pending:
                self._pending.add(idx)
                self._cond.notify_all()

    def throttle(self, idx: int, limit: int) -> None:
        """Park the caller while shard ``idx``'s tail is at/over ``limit``.

        The backpressure that keeps ``tail <= checkpoint_interval + one
        in-flight commit`` deterministic even though the cut runs on this
        daemon's thread.  Returns immediately on a fenced manager or a
        failed pipeline — the commit surfaces those failures itself — and
        after ``throttle_timeout`` on a cut that never completes.
        """
        manager = self._manager  # None once closed
        daemon = None if manager is None else manager.daemons[idx]
        if daemon is None:
            return
        deadline = time.monotonic() + self.throttle_timeout
        with self._cond:
            failures_seen = self._shard_cut_failures.get(idx, 0)
            while not self._closed:
                if manager.fenced or daemon.failed:
                    return
                if idx in manager._migrating:
                    # Checkpoints of this shard are suspended for a slot
                    # migration, so no cut can bring the tail back under
                    # the bound — parking here would stall every writer on
                    # the source for the whole copy phase.  The WAL bound
                    # is relaxed to `interval + migration length` until
                    # the flip's own cut truncates it.
                    return
                if daemon.records_since_checkpoint() < limit:
                    return
                if self._shard_cut_failures.get(idx, 0) != failures_seen:
                    # The cut this commit was waiting on died (device
                    # error outside the WAL path): the bound is
                    # best-effort on a failing store — proceed and let
                    # the commit surface its own durability error.
                    # (Per-shard epoch: a failure on an unrelated shard
                    # does not void this shard's bound.)
                    return
                if idx not in self._pending and idx not in self._active:
                    self.triggers += 1
                    self._pending.add(idx)
                    self._cond.notify_all()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._cond.wait(min(remaining, 0.05))

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until nothing is pending and no cut is in flight.

        Test/shutdown synchronisation point; returns ``False`` on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._pending or self._active:
                wait_s = 0.1
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    wait_s = min(wait_s, remaining)
                self._cond.wait(wait_s)
        return True

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:  # closed and drained
                    self._cond.notify_all()
                    return
                # Workers never double up on one shard: a background cut
                # skips a held lock, so the second would be a no-op anyway.
                idx = min(self._pending)
                self._pending.discard(idx)
                self._active.add(idx)
            try:
                shard_daemon = self._manager.daemons[idx]
                # A coalesced storm can leave requests behind for a shard
                # an earlier cut already emptied — skip the no-op cut
                # (which would still pay the marker rewrite I/O).
                dropped = 0
                if (
                    shard_daemon is not None
                    and shard_daemon.records_since_checkpoint() > 0
                ):
                    dropped = self._manager.checkpoint_shard(idx, background=True)
                if dropped:
                    with self._cond:
                        self.cuts += 1
                        self.records_truncated += dropped
            except Exception as exc:
                # Beyond the WALError/TimeoutError the background cut
                # absorbs (e.g. OSError from the LSM pre-flush).  Record
                # it — stats() surfaces the count, throttle() releases
                # the committers parked on this cut — and keep serving:
                # a transient device error must not kill the daemon.
                with self._cond:
                    self.failed_cuts += 1
                    self._shard_cut_failures[idx] = (
                        self._shard_cut_failures.get(idx, 0) + 1
                    )
                    self.last_cut_error = exc
            with self._cond:
                self._active.discard(idx)
                self._cond.notify_all()

    def close(self) -> bool:
        """Drain outstanding requests, then join (bounded).

        Returns ``True`` when every worker exited within ``join_timeout``
        — ``False`` means a cut is wedged (an fsync that never returns)
        and its daemonic worker was abandoned rather than hanging
        shutdown; the caller must then skip work that needs the
        checkpoint locks.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        deadline = time.monotonic() + self.join_timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in self._threads):
            return False
        # the manager holds this daemon: drop the back reference so a
        # closed manager is freed without the cyclic collector
        self._manager = None
        return True

    def stats(self) -> dict[str, int]:
        with self._cond:
            return {
                "checkpoint_triggers": self.triggers,
                "background_checkpoints": self.cuts,
                "checkpoint_records_truncated": self.records_truncated,
                "checkpoint_cut_failures": self.failed_cuts,
            }


class ShardedTransactionManager(TransactionFacade):
    """N independent shard managers behind one transaction facade.

    Offers the :class:`TransactionManager` API (``create_table`` /
    ``begin`` / ``read`` / ``write`` / ``commit``), routing each key to its
    home shard and upgrading the commit to two-phase only when a
    transaction actually spans shards.  ``transaction()``, ``snapshot()``
    and ``run_transaction()`` are the shared :class:`TransactionFacade`
    helpers over a :class:`ShardedSnapshotView`.

    Two entry points, one job each: the constructor builds a volatile
    manager or, with ``data_dir=``, *creates* a durable store — it raises
    :class:`~repro.errors.StorageError` before touching a file when
    ``data_dir`` already holds a ``schema.json``; :meth:`open` is the only
    way to reopen one, because only it recovers the committed state.
    """

    def __init__(
        self,
        num_shards: int = 4,
        protocol: str | None = None,
        gc_policy: GCPolicy = GCPolicy.ON_DEMAND,
        gc_interval: int = 1000,
        data_dir: str | os.PathLike[str] | None = None,
        durability: str = DURABILITY_SYNC,
        fsync_batch_window: float = 0.0,
        checkpoint_interval: int = 4096,
        lsm_options: LSMOptions | None = None,
        global_snapshots: bool = True,
        storage_maintenance: str = MAINTENANCE_BACKGROUND,
        cache_budget: int | None = None,
        state_residency: str | None = None,
        memory_budget: int | None = None,
        replication_factor: int | None = None,
        ack: str | None = None,
        replica_ack_timeout: float = 5.0,
        **protocol_kwargs: Any,
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive: {num_shards}")
        if storage_maintenance not in (MAINTENANCE_BACKGROUND, MAINTENANCE_INLINE):
            raise ValueError(
                f"storage_maintenance must be 'background' or 'inline': "
                f"{storage_maintenance!r}"
            )
        if state_residency is not None and state_residency not in RESIDENCY_MODES:
            raise ValueError(
                f"state_residency must be one of {RESIDENCY_MODES}: "
                f"{state_residency!r}"
            )
        if ack is not None and ack not in ("local", "quorum"):
            raise ValueError(f"ack must be 'local' or 'quorum': {ack!r}")
        if replication_factor is not None and replication_factor < 0:
            raise ValueError(
                f"replication_factor must be >= 0: {replication_factor}"
            )
        if replication_factor and data_dir is None:
            raise ValueError(
                "replication_factor needs data_dir= (replica WALs live "
                "under the shard directories)"
            )
        self.num_shards = num_shards
        #: Root of the durable shard layout (``None`` = volatile shards:
        #: no commit WALs, no fencing, nothing to recover).
        self.data_dir = Path(data_dir) if data_dir is not None else None
        #: state id -> backend factory (``None`` = default), so a
        #: split can create the new shard's partitions the same way
        #: :meth:`create_table` created the originals.
        self._backend_factories: dict[str, Callable[[int], KVStore] | None] = {}
        #: Auto-checkpoint bound: a shard's commit WAL is cut before its
        #: tail outgrows this many records (0 disables; explicit
        #: :meth:`checkpoint` always works).
        self.checkpoint_interval = checkpoint_interval
        #: Soft trigger: a cut is *requested* once a tail is within 1/8
        #: interval (≥2 records) of the bound, so it normally completes
        #: before the hard bound engages commit backpressure without
        #: cutting much more often than once per interval (a background
        #: cut leaves a small residual tail behind).
        self._soft_trigger = max(
            1, checkpoint_interval - max(2, checkpoint_interval // 8)
        )
        #: LSM tuning for the shard base tables.  Default ``sync=False``:
        #: the commit WAL is the durable redo authority for the tail, so the
        #: per-table LSM WAL does not need its own fsync per write — the
        #: checkpoint protocol flushes memtables to fsynced SSTables before
        #: any commit-WAL prefix is dropped.  The manager-level
        #: ``storage_maintenance`` knob is authoritative over the options'
        #: ``maintenance`` field (so benchmarks flip one argument): in
        #: durable mode every base table is stamped with it and, for
        #: ``"background"``, attached to the shared
        #: :class:`~repro.storage.maintenance.StorageMaintenanceDaemon`.
        self.storage_maintenance = storage_maintenance
        base_lsm_options = lsm_options or LSMOptions(sync=False)
        if data_dir is not None:
            base_lsm_options = dataclasses.replace(
                base_lsm_options, maintenance=storage_maintenance
            )
        self.lsm_options = base_lsm_options
        #: Fleet-wide cap on LRU value-cache entries, divided evenly across
        #: every LSM base table the manager owns (``None`` = the historical
        #: per-store default, 65536 entries *each* — unbounded fleet-wide).
        self.cache_budget = cache_budget
        #: Fleet-wide cap on *resident version arrays* for lazy tables,
        #: divided across the lazy partitions of slot-owning shards the
        #: same way ``cache_budget`` is (``None`` = unbounded residency).
        self.memory_budget = memory_budget
        #: One oracle shared by every shard: global timestamp total order.
        self.oracle = TimestampOracle()
        #: Global snapshot service (see the module docstring): registers
        #: every cross-shard commit from timestamp draw to last per-shard
        #: publish and hands readers the barrier their snapshot pins are
        #: capped at.  ``global_snapshots=False`` restores the historical
        #: per-shard pinning (the fractured-read window) for regression
        #: tests and benchmarks.
        self.snapshot_coordinator: SnapshotCoordinator | None = (
            SnapshotCoordinator(self.oracle) if global_snapshots else None
        )
        #: The persisted catalog (durable mode only): what a reopen
        #: recreates before replay.  :meth:`open` sets the one it loaded
        #: and checked before it runs this constructor, with the catalog's
        #: settings as arguments; every other call creates a new store,
        #: and refuses a directory that already holds one before touching
        #: a file — reopening is :meth:`open`'s job alone, since only it
        #: recovers the committed state.
        self._schema: Any | None = vars(self).get("_schema")
        created = self._schema is None
        if self.data_dir is not None and created:
            from ..recovery.sharded import ShardedSchema, schema_path

            path = schema_path(self.data_dir)
            if path.exists():
                raise StorageError(
                    f"{path} already holds a sharded store; the constructor "
                    "only creates stores — reopen it with "
                    "ShardedTransactionManager.open()"
                )
            self._schema = ShardedSchema(
                num_shards,
                protocol or "mvcc",
                list(SlotMap.uniform(num_shards).slots),
                state_residency=state_residency or RESIDENCY_FULL,
                replication_factor=replication_factor or 0,
                ack=ack or "local",
            )
        #: Default residency mode stamped on every partition
        #: :meth:`create_table` creates (``"full"`` bootstraps the whole
        #: version index at open; ``"lazy"`` faults rows in on first read
        #: — see :mod:`repro.core.table`).  Persisted in ``schema.json``
        #: like ``protocol`` so a plain reopen keeps the store's mode.
        self.state_residency = state_residency or RESIDENCY_FULL
        #: Replicas per shard (0 = replication off) and the commit-ack
        #: policy — see the module-docstring "ack policies" section.  Both
        #: persist in ``schema.json`` like ``protocol``.
        self.replication_factor = replication_factor or 0
        self.ack = ack or "local"
        #: Bound on a ``ack="quorum"`` commit's wait for its replica
        #: quorum; past it the commit raises
        #: :class:`~repro.errors.ReplicaAckTimeout` *after* settling.
        self.replica_ack_timeout = replica_ack_timeout
        if self.ack == "quorum" and self.replication_factor < 1:
            raise ValueError(
                "ack='quorum' needs replication_factor >= 1 — there is no "
                "replica quorum to wait for"
            )
        #: Live slot -> shard routing table: the catalog's in durable mode
        #: (a reopened one is rolled forward and checked by :meth:`open`),
        #: the uniform map otherwise.
        self.slot_map = (
            SlotMap(self._schema.slot_map, self._schema.slot_epoch)
            if self._schema is not None
            else SlotMap.uniform(num_shards)
        )
        #: Durably ``True`` before the first migration's copy phase can
        #: touch disk: recovery's slot-ownership sweep evicts misrouted
        #: keys only on managers that have migrated — on any other store
        #: a misrouted key means a damaged layout, and recovery refuses it.
        self.migrations_started = bool(
            self._schema is not None and self._schema.migrations_started
        )
        #: Slot epoch of the last *durably saved* schema.  Coordinator-log
        #: compaction may only retire flip records at or below this — the
        #: in-memory ``_schema.slot_epoch`` briefly runs ahead during a
        #: migration's schema rewrite, and compacting against it could
        #: drop a flip the on-disk schema does not cover yet.
        self._durable_slot_epoch = self.slot_map.epoch
        #: Engine name resolved against the persisted catalog (``"mvcc"``
        #: when neither an argument nor a catalog supplies one).
        protocol = protocol or "mvcc"
        self.protocol_name = protocol
        #: Constructors for one shard's batched-fsync daemon and its
        #: single-site stack, bound to this constructor's arguments so
        #: :meth:`_build_shard` stamps out split-created shards exactly
        #: like the originals.
        self._new_fsync_daemon = functools.partial(
            GroupFsyncDaemon, mode=durability, batch_window=fsync_batch_window
        )
        self._new_shard_manager = functools.partial(
            TransactionManager,
            protocol=protocol,
            oracle=self.oracle,
            gc_policy=gc_policy,
            gc_interval=gc_interval,
            **protocol_kwargs,
        )
        self.shards: list[TransactionManager] = [
            self._build_shard(idx) for idx in range(num_shards)
        ]
        #: Per-shard commit durability pipeline (durable mode only): each
        #: shard owns its commit WAL + batched-fsync daemon, so shards
        #: never contend on each other's durability I/O.
        self.daemons: list[GroupFsyncDaemon | None] = [
            shard.durability for shard in self.shards
        ]
        #: The global 2PC outcome log (durable mode only).
        self.coordinator_log: Any | None = None
        self._ckpt_locks = [
            make_lock(lockranks.CKPT, index=i, name=f"ckpt[{i}]")
            for i in range(num_shards)
        ]
        self._last_checkpoint_ts = [0] * num_shards
        #: Per-shard flag: has this *process* issued a background trigger
        #: for the shard yet?  The first trigger per shard uses a
        #: staggered threshold (see :meth:`_maybe_checkpoint`); counting
        #: the shard daemon's checkpoints instead would disarm the
        #: stagger on every reopened manager, whose recovery checkpoint
        #: resets all tails at the same instant — exactly the in-phase
        #: fleet the offset exists to break up.
        self._auto_cut_seeded = [False] * num_shards
        self._closed = False
        #: Set after a failed cross-shard phase two: the in-memory state
        #: may disagree with the durable truth, so commits and checkpoints
        #: are refused until close-and-recover (see :meth:`_fence`).
        self._fence_reason: str | None = None
        #: Shards with a slot migration in flight: auto/manual checkpoints
        #: of these shards skip (the migration owns the marker — a foreign
        #: cut would truncate the catch-up suffix the flip still needs).
        self._migrating: set[int] = set()
        #: Serialises migrations (one split/merge at a time).  The
        #: outermost rank: a migration quiesces shards by taking their
        #: checkpoint locks (one at a time) while holding this.
        self._migration_lock = make_lock(lockranks.MIGRATION, name="migration")
        if self.data_dir is not None:
            from ..recovery.sharded import CoordinatorLog, coordinator_log_path

            self.data_dir.mkdir(parents=True, exist_ok=True)
            # Cross-shard 2PC decisions batch their fsync exactly like the
            # shard commit WALs do: concurrent coordinators share one
            # decision flush instead of serialising on a private fsync
            # under the log's lock.
            self.coordinator_log = CoordinatorLog(
                coordinator_log_path(self.data_dir),
                batch_window=fsync_batch_window,
            )
            # Persists a new catalog, or the rolled-forward slot map and
            # explicit settings of a reopened one.
            self._save_slot_map()
        #: Background checkpoint thread (durable managers with an
        #: auto-checkpoint interval only): commits signal it.
        self.checkpoint_daemon: CheckpointDaemon | None = None
        if self.data_dir is not None and checkpoint_interval > 0:
            self.checkpoint_daemon = CheckpointDaemon(self)
        #: Shared background flush/compaction pool for every LSM base
        #: table (durable ``storage_maintenance="background"`` mode only):
        #: committers that trip a memtable threshold pay a seal pivot and
        #: signal it; the daemon's debt scheduler builds SSTables and runs
        #: the highest-debt merges, concurrently across stores and levels.
        self.maintenance_daemon: StorageMaintenanceDaemon | None = None
        if (
            self.data_dir is not None
            and storage_maintenance == MAINTENANCE_BACKGROUND
        ):
            self.maintenance_daemon = StorageMaintenanceDaemon(
                workers=min(max(2, (num_shards + 1) // 2), _SHARD_POOL_LIMIT)
            )
        # sharded-commit counters (beyond the per-shard protocol stats)
        self.single_shard_commits = 0
        self.cross_shard_commits = 0
        self.cross_shard_aborts = 0
        self.cross_shard_in_doubt = 0
        # slot-migration counters
        self.slot_migrations = 0
        self.slots_moved = 0
        self.keys_migrated = 0
        self.rebalance_aborts = 0
        # replication counters
        #: Completed :meth:`failover` promotions.
        self.failovers = 0
        #: Commits that published without their replica quorum confirming
        #: in time (each raised :class:`~repro.errors.ReplicaAckTimeout`
        #: after settling).
        self.ack_degraded_commits = 0
        #: Reads served from a shard replica by :meth:`read_follower`.
        self.follower_reads = 0
        #: Fault-injection registry; :mod:`repro.faults` lists the points
        #: this manager fires and their hook signatures.
        self.faults = FaultInjector()
        #: Per-shard replication daemons (``None`` when the shard ships to
        #: no replicas); filled by :meth:`_attach_replication` and grown
        #: alongside :meth:`_add_shard`.
        self._replication: list[ReplicationDaemon | None] = [
            None for _ in range(num_shards)
        ]
        #: Round-robin cursor for :meth:`read_follower` replica choice.
        self._follower_rr = 0
        #: Timestamps :meth:`follower_read_ts` handed out that callers
        #: still hold (token -> ts); no replica floor passes them.
        self._follower_pins: dict[object, int] = {}
        #: Report of the :meth:`open` that built this manager (``None``
        #: for a new store).
        self.last_recovery: Any | None = None
        # A new store's shards are empty, so its replicas bootstrap now;
        # open() bootstraps them once recovery has refilled the shards.
        if created:
            self._attach_replication()

    # ------------------------------------------------------------- schema

    @staticmethod
    def commit_wal_path(data_dir: str | os.PathLike[str], shard: int) -> Path:
        """Canonical location of one shard's commit WAL under ``data_dir``
        (recovery tooling replays these per shard)."""
        return Path(data_dir) / f"shard-{shard:02d}" / "commit.wal"

    def _build_shard(self, idx: int) -> TransactionManager:
        """Build shard ``idx``'s single-site stack, without tables.

        The one construction path for the constructor and
        :meth:`_add_shard`.  Durable mode gives the shard its commit WAL +
        batched-fsync daemon.
        """
        daemon: GroupFsyncDaemon | None = None
        if self.data_dir is not None:
            daemon = self._new_fsync_daemon(
                WriteAheadLog(self.commit_wal_path(self.data_dir, idx), sync=False),
                lock_index=idx,
            )
        shard = self._new_shard_manager(durability_daemon=daemon)
        # Close two TOCTOUs on the single-shard commit path with one
        # under-latch gate: (a) fence — a committer blocked on a commit
        # latch held by a transaction whose phase two then fails must
        # re-check the fence once it acquires the latches (the same
        # under-latch re-check checkpoint_shard does), or it would commit
        # on in-memory state missing that transaction's durably-decided
        # writes; (b) routing — a slot-map flip holds every source-shard
        # latch while it bumps the epoch, so a committer whose buffered
        # keys just moved re-checks its routing under the latches and
        # aborts instead of applying writes to a shard that no longer
        # owns them.
        shard.protocol.commit_gate = self._make_commit_gate(idx)
        # With global snapshots on, a shard's GC must respect the *global*
        # horizon: a cross-shard reader's capped pin can be older than any
        # pin or begin timestamp the local context knows (the cap derives
        # from a sibling shard's pin or from the coordinator barrier), so
        # purging by the local horizon alone would destroy versions a
        # capped read still resolves (see :meth:`_global_horizon`).
        if self.snapshot_coordinator is not None:
            shard.context.horizon_hook = self._global_horizon
        return shard

    def _save_slot_map(self) -> None:
        """Persist the live slot map in the schema.  ``_durable_slot_epoch``
        advances only after the rewrite's rename lands, never ahead of it
        (coordinator-log compaction retires flips up to it)."""
        self._schema.slot_map = list(self.slot_map.slots)
        self._schema.slot_epoch = self.slot_map.epoch
        self._schema.save(self.data_dir)
        self._durable_slot_epoch = self.slot_map.epoch

    def shard_of(self, key: Any) -> int:
        """Current home shard of ``key`` (one slot lookup; the map
        reference is swapped atomically by migrations, so this is safe to
        call lock-free from any thread)."""
        return self.slot_map.shard_of(key)

    # -------------------------------------------------------------- fencing

    @property
    def fenced(self) -> bool:
        """``True`` after a failed cross-shard phase two: some participants
        may miss a durably-decided transaction in memory, so the manager
        refuses commits, bulk loads and checkpoints (a checkpoint would
        flush base tables *missing* those writes and truncate the WAL
        records recovery needs).  Reads still work; :meth:`close` skips the
        final checkpoint; reopen via :meth:`open` to recover."""
        return self._fence_reason is not None

    def _fence(self, reason: str) -> None:
        # Only a durable manager can fence: only there can the in-memory
        # state disagree with a durable truth that restart recovery could
        # restore.  A volatile manager keeps reporting aborts instead of
        # bricking itself.
        if self.data_dir is not None and self._fence_reason is None:
            self._fence_reason = reason

    def _ensure_not_fenced(self) -> None:
        if self._fence_reason is not None:
            raise StorageError(
                "sharded manager is fenced after a failed cross-shard "
                f"phase two ({self._fence_reason}); the in-memory state "
                "may miss a durably committed transaction — close() and "
                "recover via ShardedTransactionManager.open()"
            )

    def _make_commit_gate(self, idx: int) -> Callable[[Transaction], None]:
        """Per-shard under-latch admission check: fence + slot routing."""

        def gate(child: Transaction) -> None:
            self._ensure_not_fenced()
            self._ensure_child_routing(child, idx)

        return gate

    def _global_horizon(self) -> int:
        """Cross-shard GC horizon (installed as every context's
        ``horizon_hook`` when global snapshots are on).

        Two bounds beyond a shard's local active set:

        * **sibling pins** — a reader active on shard A with pin ``p`` may
          later touch shard B with its cap clamped to ``p`` (the stale-pin
          clamp in ``_child``), so B must keep every version visible at
          ``p``: the min over all shards' local horizons covers it;
        * **the barrier** — a future first pin is capped at the live
          barrier, and a fully-published cross-shard commit whose
          ``complete()`` has not run yet holds the barrier below its
          timestamp *after* its children deregistered, so the barrier term
          cannot be inferred from active transactions alone.

        Any later pin is ≥ this value (pins only derive from existing pins
        and barriers, both covered), so versions above it are never purged
        out from under a capped read.

        The barrier is read **before** the local scans.  A first pin
        publishes a floor in ``read_cts`` and only then reads the barrier
        (``StateContext.pin_snapshot``): a scan that sees the floor is
        bounded by it, and a scan that misses it began before the floor
        was published, so the barrier read here came before the pin's
        barrier read and — the barrier being monotone — is not above it.
        """
        barrier = self.snapshot_coordinator.barrier()
        horizon = min(
            shard.context.local_oldest_active_version() for shard in self.shards
        )
        return barrier if barrier < horizon else horizon

    def _ensure_child_routing(self, child: Transaction, idx: int) -> None:
        """Abort a writer whose buffered keys a slot flip has re-homed.

        One epoch compare on the unmigrated fast path.  After a flip, any
        write key of this child that no longer routes to shard ``idx``
        would be applied to a partition that no reader will ever consult
        again — a silently lost update — so the commit aborts retryably
        (:data:`~repro.errors.ABORT_REBALANCE`) and the retry re-buffers
        against the new owner.  Race-free under the commit latches: the
        flip bumps the epoch while holding every source-shard latch.
        """
        if child.route_epoch is None or child.route_epoch == self.slot_map.epoch:
            return
        for write_set in child.write_sets.values():
            for key in write_set.entries:
                if self.slot_map.shard_of(key) != idx:
                    self.rebalance_aborts += 1
                    raise TransactionAborted(
                        f"slot of key {key!r} migrated off shard {idx} "
                        "while transaction "
                        f"{child.wal_txn_id} had it buffered; restart "
                        "against the new owner",
                        txn_id=child.wal_txn_id,
                        reason=ABORT_REBALANCE,
                    )
        # Every buffered key still lives here: adopt the current epoch so
        # the scan is not repeated on the next gate pass.
        child.route_epoch = self.slot_map.epoch

    def create_table(
        self,
        state_id: str,
        backend_factory: Callable[[int], KVStore] | None = None,
        version_slots: int = DEFAULT_SLOTS,
    ) -> list[StateTable]:
        """Register ``state_id`` on every shard; returns the partitions.

        ``backend_factory`` (not a backend instance, called with the shard
        index) because each shard needs its *own* base-table backend.
        Every partition keys its rows with ``ORDERED_KEY_CODEC`` and
        pickles its values: the catalog records that one store-wide
        encoding, so a reopen decodes every table the same way.
        In durable mode (``data_dir=``) the default factory
        routes each partition to its own LSM directory under
        ``data_dir/shard-NN/tables/<state_id>``; commits write through to
        it via :meth:`~repro.core.table.StateTable.apply_write_set`.
        """
        if backend_factory is None and self.data_dir is not None:
            from ..recovery.sharded import table_dir

            data_dir, options = self.data_dir, self.lsm_options

            def backend_factory(idx: int) -> KVStore:
                return LSMStore(table_dir(data_dir, idx, state_id), options)

        # Remembered so an online split can stamp out the new shard's
        # partition the same way (the factories above accept any index).
        self._backend_factories[state_id] = backend_factory
        tables = [
            shard.create_table(
                state_id,
                backend=backend_factory(idx) if backend_factory else None,
                key_codec=ORDERED_KEY_CODEC,
                value_codec=PICKLE_CODEC,
                version_slots=version_slots,
                location=f"shard-{idx}",
                residency=self.state_residency,
            )
            for idx, shard in enumerate(self.shards)
        ]
        for idx, table in enumerate(tables):
            self._wire_residency(idx, table)
        if self._schema is not None:
            self._schema.states[state_id] = version_slots
            self._schema.save(self.data_dir)
        self._adopt_lsm_backends()
        return tables

    def _lsm_backends(self, shard: int | None = None) -> list[LSMStore]:
        """Every LSM base table of ``shard`` (or the whole fleet)."""
        shards = self.shards if shard is None else [self.shards[shard]]
        return [
            table.backend
            for mgr in shards
            for table in mgr.tables()
            if isinstance(table.backend, LSMStore)
        ]

    def _wire_residency(self, idx: int, table: StateTable) -> None:
        """Hook one lazy partition to its shard's GC horizon.

        The hook keeps eviction snapshot-safe: an array may only be
        dropped once no reader (local or capped cross-shard — the
        context's ``horizon_hook`` folds the global barrier in) could
        still resolve any version but its clean live one.  The table's
        own fault-in backstop does the evicting.
        """
        if table.residency == RESIDENCY_LAZY:
            table.gc_horizon_hook = self.shards[idx].context.oldest_active_version

    def _active_shards(self) -> list[int]:
        """Shards that still own slots.  A merged-away shard keeps its
        stores open for in-flight readers but takes no new traffic, so it
        drops out of every budget division once it retires."""
        active = [
            idx
            for idx in range(self.num_shards)
            if self.slot_map.slots_of(idx)
        ]
        return active or list(range(self.num_shards))

    def _adopt_lsm_backends(self) -> None:
        """Attach new LSM base tables to the maintenance daemon and
        re-divide the fleet-wide budgets (called after every
        ``create_table``, after a split stamps out a new shard, and after
        a merge retires one — so the survivors reclaim the retired
        shard's share instead of running under-provisioned forever)."""
        stores = self._lsm_backends()
        if self.maintenance_daemon is not None:
            for store in stores:
                self.maintenance_daemon.register(store)
        active = set(self._active_shards())
        if self.cache_budget is not None:
            active_stores = [
                store
                for idx in active
                for store in self._lsm_backends(idx)
            ]
            if active_stores:
                per_store = max(1, self.cache_budget // len(active_stores))
                active_ids = {id(store) for store in active_stores}
                for store in stores:
                    # Husk stores shrink to a floor of one entry: they only
                    # serve the dwindling pre-merge reader population.
                    store.set_cache_capacity(
                        per_store if id(store) in active_ids else 1
                    )
        if self.memory_budget is not None:
            lazy_tables = [
                table
                for idx in active
                for table in self.shards[idx].tables()
                if table.residency == RESIDENCY_LAZY
            ]
            if lazy_tables:
                per_table = max(1, self.memory_budget // len(lazy_tables))
                for table in lazy_tables:
                    table.residency_budget = per_table
            # Husk partitions get NO residency budget: their backend rows
            # were purged by the migration, so an evicted array could not
            # re-hydrate for the in-flight readers still pinned to them.
            for idx in range(self.num_shards):
                if idx in active:
                    continue
                for table in self.shards[idx].tables():
                    table.residency_budget = None

    def register_group(self, group_id: str, state_ids: list[str]) -> None:
        """Group ``state_ids`` on every shard (and in the catalog).

        Registering a group again with the same member states is a no-op,
        so a topology rebuilt on a reopened store (whose catalog restored
        its group) builds; other members raise
        :class:`~repro.errors.StateError`.
        """
        context = self.shards[0].context
        if group_id in context.group_ids() and set(
            context.group(group_id).state_ids
        ) == set(state_ids):
            return
        for shard in self.shards:
            shard.register_group(group_id, state_ids)
        if self._schema is not None:
            # The members leave their previous groups, as in the context:
            # a reopen registers the catalog's groups in key order, so a
            # stale entry would take the states back.
            groups = {
                gid: [s for s in members if s not in state_ids]
                for gid, members in self._schema.groups.items()
            }
            groups = {gid: members for gid, members in groups.items() if members}
            groups[group_id] = list(state_ids)
            self._schema.groups = groups
            self._schema.save(self.data_dir)

    def bulk_load(self, state_id: str, rows: list[tuple[Any, Any]]) -> None:
        """Partition ``rows`` by key and bulk-load each shard's table.

        In durable mode each partition's rows are also logged to the
        shard's commit WAL (as a bootstrap commit record, ts 0) and the
        WALs are flushed, so bulk-loaded data survives a crash that hits
        before the first checkpoint — the LSM base tables buffer their own
        WAL (``sync=False``) and cannot be relied on for the tail.  Every
        partition is checked (:meth:`StateTable.check_bulk_loadable`)
        before any is loaded or logged.
        """
        self._ensure_not_fenced()
        for shard in self.shards:
            shard.table(state_id).check_bulk_loadable()
        parts: dict[int, list[tuple[Any, Any]]] = {}
        for key, value in rows:
            parts.setdefault(self.shard_of(key), []).append((key, value))
        for idx, part in parts.items():
            self.shards[idx].table(state_id).bulk_load(part)
            daemon = self.daemons[idx]
            if daemon is not None:
                write_set = WriteSet()
                for key, value in part:
                    write_set.upsert(key, value)
                daemon.submit(
                    KIND_TXN_COMMIT,
                    stamp_commit_record(
                        0, encode_commit_body(0, {state_id: write_set})
                    ),
                )
        self.flush_durability()

    def table(self, shard: int, state_id: str) -> StateTable:
        """The partition of ``state_id`` living on shard ``shard``."""
        return self.shards[shard].table(state_id)

    # -------------------------------------------------------- transactions

    def begin(
        self,
        states: list[str] | None = None,
        isolation: IsolationLevel | None = None,
    ) -> ShardedTransaction:
        """Start a sharded transaction.

        ``states`` are remembered and pre-registered on every child the
        transaction later opens (states span all shards, so children cannot
        be pre-created without knowing which keys will be touched).
        """
        return ShardedTransaction(
            self.oracle.next(), states, isolation or IsolationLevel.SNAPSHOT
        )

    def _child(
        self,
        txn: ShardedTransaction,
        shard: int,
        route_epoch: int | None = None,
    ) -> Transaction:
        child = txn.children.get(shard)
        if child is None:
            child = self.shards[shard].begin(
                states=txn.declared_states or None, isolation=txn.isolation
            )
            # The child begins lazily, possibly long after the logical
            # transaction: floor its begin timestamp at the sharded begin so
            # commit-time validation (MVCC First-Committer-Wins for blind
            # writes, BOCC's backward horizon) covers everything committed
            # since the *logical* begin — same rule as the unsharded
            # manager.  All timestamps come from the one shared oracle, so
            # the two are directly comparable.
            child.start_ts = min(child.start_ts, txn.txn_id)
            # WAL records (commit + 2PC prepare) carry the global sharded
            # transaction id so per-shard logs correlate during recovery.
            child.wal_txn_id = txn.txn_id
            # Routing provenance: the commit gate re-checks, under the
            # latches, that a slot flip has not re-homed this child's
            # buffered keys since it was opened (cheap: one epoch compare
            # unless a migration actually happened).  Callers pass the
            # epoch of the map that made the routing decision — reading
            # the live epoch here instead would open a TOCTOU: a flip
            # landing between the caller's shard_of() and this stamp
            # would brand a misrouted child with the *new* epoch, letting
            # the gate's fast path wave its writes through.
            child.route_epoch = (
                self.slot_map.epoch if route_epoch is None else route_epoch
            )
            guard = self.snapshot_coordinator
            if guard is not None:
                # Every sharded child caps its pins at the live cross-shard
                # barrier (guard), so even the reads taken *before* the
                # vector is acquired can never admit a half-published
                # cross-shard commit.
                child.snapshot_guard = guard
                if txn.children and txn.snapshot_cap is None:
                    # Second shard touched: acquire the global snapshot
                    # vector lazily (the single-shard fast path never gets
                    # here).  Start from the live barrier and clamp to an
                    # earlier pin only when that shard-group has published
                    # commits *past* the pin — a pin its group never moved
                    # beyond is compatible with any newer snapshot, so a
                    # quiet first shard does not drag the vector (and with
                    # it the freshness of every other shard) backwards.
                    # Read order is load-bearing, mirroring barrier(): the
                    # barrier is read FIRST, so any cross-shard commit it
                    # admits completed — fully published — before the pin
                    # staleness check below, and a pin it bypassed would
                    # show as stale and clamp the cap.  The children are
                    # driven by one client thread, so iterating their pins
                    # here is race-free.
                    cap = guard.barrier()
                    for idx, sibling in txn.children.items():
                        context = self.shards[idx].context
                        for gid, ts in sibling.read_cts.items():
                            if ts < cap and context.last_cts(gid) > ts:
                                cap = ts
                    txn.snapshot_cap = cap
                    for sibling in txn.children.values():
                        sibling.snapshot_cap = cap
                child.snapshot_cap = txn.snapshot_cap
            txn.children[shard] = child
        return child

    # data path -----------------------------------------------------------

    def read(self, txn: ShardedTransaction, state_id: str, key: Any) -> Any | None:
        txn.ensure_active()
        smap = self.slot_map
        shard = smap.shard_of(key)
        return self.shards[shard].read(
            self._child(txn, shard, smap.epoch), state_id, key
        )

    def read_many(
        self, txn: ShardedTransaction, state_id: str, keys: list[Any]
    ) -> dict[Any, Any | None]:
        """Batched point read: ``{key: value_or_None}`` for every key.

        Routing is amortised — the batch is partitioned per shard under
        one slot-map snapshot, each shard's child is opened once, and on
        lazy partitions the cold keys of the batch are pre-faulted with a
        single :meth:`~repro.storage.kvstore.KVStore.multi_get` (one
        cache pass per key, one bloom probe per key and table, one block
        ``pread`` per SSTable probe) instead of one backend point-get per
        miss.  Reads then resolve through the
        normal protocol path, so visibility, read-set tracking and
        snapshot caps behave exactly like N separate :meth:`read` calls.
        """
        txn.ensure_active()
        smap = self.slot_map
        parts: dict[int, list[Any]] = {}
        for key in keys:
            parts.setdefault(smap.shard_of(key), []).append(key)
        out: dict[Any, Any | None] = {}
        for shard, part in parts.items():
            mgr = self.shards[shard]
            child = self._child(txn, shard, smap.epoch)
            table = mgr.table(state_id)
            table.hydrate_many(part)
            for key in part:
                out[key] = mgr.read(child, state_id, key)
        return out

    def write(self, txn: ShardedTransaction, state_id: str, key: Any, value: Any) -> None:
        txn.ensure_active()
        smap = self.slot_map
        shard = smap.shard_of(key)
        self.shards[shard].write(
            self._child(txn, shard, smap.epoch), state_id, key, value
        )

    def delete(self, txn: ShardedTransaction, state_id: str, key: Any) -> None:
        txn.ensure_active()
        smap = self.slot_map
        shard = smap.shard_of(key)
        self.shards[shard].delete(
            self._child(txn, shard, smap.epoch), state_id, key
        )

    def scan(
        self, txn: ShardedTransaction, state_id: str, low: Any = None, high: Any = None
    ) -> Iterator[tuple[Any, Any]]:
        """Merged key-ordered scan over every shard's partition.

        Each shard's stream is filtered to the keys its slots own under
        the map snapshotted *with* the parts list.  The filter is what
        keeps a moved key from appearing twice: a migration leaves the
        source's in-memory copy in place for latch-free in-flight readers
        (and a crash window can leave a durable stale copy), while the
        target holds the live one.  Snapshotting matters twice over —
        consulting the live map per key would make a scan straddling a
        concurrent flip *drop* the moved keys (their new owner's stream
        is not among the snapshotted parts), and skipping the filter on a
        not-yet-migrated manager would double-yield if its first
        migration's install window overlaps a lazily-consumed scan.  The
        per-row cost is one modulo+index for integer keys (every
        benchmark workload); only non-numeric keys pay a CRC.

        Scatter-gather: touching every shard acquires the global snapshot
        vector (see :meth:`_child`), then each shard's partition is
        materialised at that vector and the sorted runs are heap-merged —
        a consistent cross-shard analytics read.  Every partition, lazy
        or fully resident, is materialised on the caller's thread: the
        scan is interpreter-bound (a lazy partition's base-table reads are
        one ``pread`` per block, from the page cache when warm), so a
        worker pool bought no overlap, and every hand-off to a pool thread
        let a busy background daemon hold the interpreter lock for a whole
        switch interval, which made scan latency swing between runs.
        """
        txn.ensure_active()
        smap = self.slot_map
        # The children dict and the lazy vector acquisition are not
        # thread-safe: the scan stays on the transaction's own thread.
        children = [
            self._child(txn, idx, smap.epoch) for idx in range(self.num_shards)
        ]
        # Gather over the shards opened above, not ``self.num_shards``
        # again: a concurrent split may have added a shard since, and the
        # snapshotted map routes no key to it.
        filtered = [
            [
                kv
                for kv in self.shards[idx].scan(child, state_id, low, high)
                if smap.shard_of(kv[0]) == idx
            ]
            for idx, child in enumerate(children)
        ]
        return _heap_merge(*filtered, key=lambda kv: kv[0])

    # txn ending ----------------------------------------------------------

    def commit(self, txn: ShardedTransaction) -> int:
        """Commit; fast path for ≤1 shard, two-phase across shards."""
        txn.ensure_active()
        has_writes = any(
            any(ws for ws in child.write_sets.values())
            for child in txn.children.values()
        )
        if self.fenced and has_writes:
            # A writing commit may not build on in-memory state that
            # disagrees with the durable truth.  Abort the children BEFORE
            # raising: transaction()/snapshot() commit on exit, so a bare
            # raise would leak their pinned snapshots and locks.  Read-only
            # commits fall through — they only release snapshots, which
            # stays safe (and keeps reads working) on a fenced manager.
            self.abort(txn, ABORT_GROUP)
            self._ensure_not_fenced()
        if has_writes and self.checkpoint_daemon is not None:
            # Hard WAL bound under background checkpointing: a commit that
            # would push a shard's tail past the interval parks (outside
            # any latch — the daemon needs those to cut) until the
            # in-flight cut lands.  With the soft trigger at 3/4 of the
            # interval this is normally a no-op counter read per shard.
            for idx in txn.shards():
                child = txn.children[idx]
                if any(ws for ws in child.write_sets.values()):
                    self.checkpoint_daemon.throttle(idx, self.checkpoint_interval)
        participants = txn.shards()
        if not participants:
            # Never touched data: trivially committed at the current clock.
            commit_ts = self.oracle.current()
            txn.mark_committed(commit_ts)
            return commit_ts
        if len(participants) == 1:
            return self._commit_single(txn, participants[0])
        if not has_writes:
            return self._commit_read_only(txn, participants)
        return self._commit_cross_shard(txn, participants)

    def _commit_read_only(self, txn: ShardedTransaction, participants: list[int]) -> int:
        """Multi-shard but read-only: no atomicity needed, commit each child
        through its own pipeline (BOCC still validates per shard; a failed
        validation aborts the whole transaction — nothing was applied)."""
        commit_ts = 0
        try:
            for idx in participants:
                commit_ts = max(commit_ts, self.shards[idx].commit(txn.children[idx]))
        except TransactionAborted as exc:
            for idx in participants:
                child = txn.children[idx]
                if not child.is_finished():
                    self.shards[idx].coordinator.abort_transaction(child, exc.reason)
            txn.mark_aborted(exc.reason)
            raise
        txn.mark_committed(commit_ts)
        return commit_ts

    def _commit_single(self, txn: ShardedTransaction, shard: int) -> int:
        """Fast path: delegate to the shard's unmodified commit pipeline."""
        try:
            commit_ts = self.shards[shard].commit(txn.children[shard])
        except TransactionAborted as exc:
            txn.mark_aborted(exc.reason)
            raise
        except BaseException:
            # Fence refusal by the commit gate, a WAL failure, or an
            # apply-phase error: the shard pipeline finished the child
            # (abort_prepared / failed-commit handling); mirror its
            # terminal state onto the facade handle so it does not linger
            # unfinished.  IN_DOUBT stays IN_DOUBT — the enqueued commit
            # record may be durable and recovery may roll it forward, so
            # a clean abort report would be a lie the restart could
            # contradict.
            child = txn.children[shard]
            if child.status is TXN_ABORTED:
                txn.mark_aborted(ABORT_GROUP)
            elif child.status is TXN_IN_DOUBT:
                txn.mark_in_doubt(ABORT_GROUP)
            raise
        txn.mark_committed(commit_ts)
        self.single_shard_commits += 1
        self._maybe_checkpoint([shard])
        self._settle_replica_ack(txn)
        return commit_ts

    def _commit_cross_shard(self, txn: ShardedTransaction, participants: list[int]) -> int:
        """Two-phase commit across the participant shards.

        Phase one prepares in ascending shard order (global order =>
        deadlock freedom); each prepared participant's redo record is
        enqueued on its shard's commit WAL during ``prepare_all`` and all
        the vote fsyncs are awaited in **one** shared barrier after the
        last prepare (``wait_vote=False``): the shards' prepare batches
        flush concurrently instead of one serial durability barrier per
        participant, and every vote is still durable before the commit
        point below.  Phase two draws one shared commit timestamp and
        — when the durability pipeline is on — enqueues every writing
        participant's commit record under *all* participant daemon mutexes
        at once (:func:`repro.core.durability.reserve_group_commit`), so
        each shard's WAL-order == ts-order invariant survives the external
        timestamp.  Any prepare failure aborts every participant — the
        commit is all-or-nothing.
        """
        prepared: list[tuple[int, PreparedCommit]] = []
        try:
            for idx in participants:
                handle = self.shards[idx].coordinator.prepare_all(
                    txn.children[idx], wait_vote=False
                )
                prepared.append((idx, handle))
                self.faults.fire("vote", idx)
            # The shared vote barrier: every participant's prepare record
            # must be durable before the commit point (the timestamp draw
            # enqueues commit records that double as decision evidence).
            # A failed vote fsync aborts all participants, exactly like a
            # prepare failure — nothing has committed yet.
            for _idx, handle in prepared:
                if handle.prepare_ticket is not None:
                    handle.prepare_ticket.wait()
            # Fires once every vote is durable — the point the classic
            # per-participant wait used to reach after each prepare.
            for idx in participants:
                self.faults.fire("prepare", idx)
        except BaseException as exc:
            self._abort_after_prepare_failure(txn, participants, prepared, exc)
            raise
        if self.fenced:
            # Re-check under the now-held latches (mirrors the protocol's
            # commit_gate on the single-shard path): the fence may have
            # gone up while this committer blocked on a latch the failing
            # transaction held, and its shards' in-memory state would then
            # miss a durably-decided transaction's writes.
            self._abort_after_prepare_failure(
                txn, participants, prepared, StorageError("fenced")
            )
            self._ensure_not_fenced()
        try:
            # Routing re-check under the now-held latches (the cross-shard
            # twin of the per-shard commit gate): a slot flip that landed
            # while this committer blocked on a participant latch may have
            # re-homed keys it buffered — applying them now would write to
            # partitions routing no longer consults.
            for idx, _handle in prepared:
                self._ensure_child_routing(txn.children[idx], idx)
        except TransactionAborted as exc:
            self._abort_after_prepare_failure(txn, participants, prepared, exc)
            raise
        try:
            commit_ts = self._sequence_cross_shard(txn, prepared)
        except BaseException as exc:
            # Reservation can fail (a shard's commit WAL closed mid-flight);
            # every prepared participant must release its pinned resources.
            self._abort_after_prepare_failure(txn, participants, prepared, exc)
            raise
        committed: set[int] = set()
        decision_durable = False
        try:
            # The durable commit decision (presumed-abort 2PC): once this
            # record is fsynced, recovery rolls the transaction forward on
            # every participant even if no participant finished phase two.
            # The reservation above is already past the point of no return
            # (commit records are enqueued and may become durable in any
            # batch), so a decision-log failure falls through to the
            # in-doubt handling below — recovery also accepts any shard's
            # durable commit record as decision evidence.
            writers = [idx for idx, handle in prepared if handle.written]
            if self.coordinator_log is not None and writers:
                self.coordinator_log.log_commit(txn.txn_id, commit_ts, writers)
                decision_durable = True
                self.faults.fire("decision", txn.txn_id)
            for idx, handle in prepared:
                self.shards[idx].coordinator.commit_prepared(
                    txn.children[idx], handle, commit_ts
                )
                committed.add(idx)
            # Every participant has published commit_ts into its LastCTS
            # (commit_prepared is synchronous through the publish), so the
            # commit is now atomically visible: release the snapshot
            # barrier.  On ANY phase-two failure this line is never
            # reached and the timestamp stays registered forever — the
            # barrier stays pinned below it, keeping the partial apply
            # invisible to every capped reader (see SnapshotCoordinator).
            if self.snapshot_coordinator is not None:
                self.snapshot_coordinator.complete(commit_ts)
        except BaseException as exc:
            # Failure mid phase-two (a shard's WAL died after the commit
            # point).  Participants that already committed stay committed;
            # the remaining ones must release their pinned latches or
            # healthy shards wedge forever.  The in-memory state now
            # disagrees with the durable truth, so the whole manager is
            # fenced: no further commit may build on it, and no checkpoint
            # may flush base tables missing these writes and truncate the
            # WAL records recovery needs (see :attr:`fenced`).  The fence
            # goes up BEFORE the prepared participants' latches are
            # released: a checkpointer blocked on one of those latches
            # re-checks the fence once it acquires them, so it can never
            # slip into the window between release and fence.
            self._fence(
                f"phase two of transaction {txn.txn_id} failed: {exc!r}"
            )
            for idx, handle in prepared:
                child = txn.children[idx]
                if idx not in committed and not child.is_finished():
                    self.shards[idx].coordinator.abort_prepared(child, handle)
            # The *reported* outcome follows the durable truth: with the
            # commit decision fsynced — or a commit record confirmed
            # durable on any participant, which recovery accepts as
            # decision evidence — the transaction IS committed; restart
            # recovery rolls the unapplied participants forward, so the
            # handle is marked committed and the error propagates only as
            # "this engine can no longer apply it; recover".  When no
            # durable evidence can be confirmed but records were enqueued,
            # the outcome is genuinely unknowable here (a batch may have
            # reached the disk before the WAL died): the handle reports
            # IN_DOUBT, never a false abort that recovery could later
            # contradict.  Only the fully-volatile path keeps the plain
            # abort report.
            if decision_durable or self._commit_evidence_durable(prepared):
                txn.mark_committed(commit_ts)
                self.cross_shard_commits += 1
            elif any(handle.ticket is not None for _, handle in prepared):
                txn.mark_in_doubt(ABORT_GROUP)
                self.cross_shard_in_doubt += 1
            else:
                txn.mark_aborted(ABORT_GROUP)
                self.cross_shard_aborts += 1
            raise
        txn.mark_committed(commit_ts)
        self.cross_shard_commits += 1
        # Sweeps take table commit latches, so they wait until phase two
        # released every participant's: a sweep under a later shard's
        # pinned latches would invert the ascending latch order.
        for idx in participants:
            shard = self.shards[idx]
            shard.gc.notify_commit(shard.tables())
        self._maybe_checkpoint(participants)
        self._settle_replica_ack(txn)
        return commit_ts

    def _settle_replica_ack(self, txn: ShardedTransaction) -> None:
        """Surface a degraded quorum acknowledgement *after* the commit is
        fully settled (status COMMITTED, counters bumped): the transaction
        did commit — locally durable and visible — but some participant's
        replica quorum did not confirm within the bounded ack timeout, so
        the caller's stronger ``ack="quorum"`` guarantee does not hold for
        it.  Deliberately a :class:`~repro.errors.ReplicaAckTimeout`
        (a ``StorageError``), never a ``TransactionAborted``: generic
        retry loops must not re-run a transaction that already committed."""
        if not any(child.ack_degraded for child in txn.children.values()):
            return
        self.ack_degraded_commits += 1
        raise ReplicaAckTimeout(
            f"transaction {txn.txn_id} committed durably on its primary "
            f"shard(s), but its replica quorum did not confirm within "
            f"{self.replica_ack_timeout}s (lagging or retired replicas) — "
            "the commit IS applied and visible; only the quorum guarantee "
            "is degraded"
        )

    def _commit_evidence_durable(
        self, prepared: list[tuple[int, PreparedCommit]]
    ) -> bool:
        """After a phase-two failure without a durable coordinator
        decision: force-and-check the participants' enqueued commit
        records.  Recovery accepts any shard's durable commit record as
        decision evidence and rolls the transaction forward everywhere, so
        one confirmed record settles the outcome as committed.  Returns
        ``False`` when no record's durability could be confirmed (the
        transaction is then genuinely in doubt)."""
        tickets = [h.ticket for _, h in prepared if h.ticket is not None]
        if not tickets:
            return False
        # The waits run on helper threads: waiting directly can self-elect
        # this thread as the batch leader, whose fsync has no timeout — a
        # wedged WAL (fsync blocking, not erroring) would hang the
        # coordinator inside the failure handler.  All probes start first
        # and join against ONE shared deadline, so the handler's worst
        # case is a single timeout, not N stacked ones; the daemonic
        # helpers at worst stay parked in the wedged syscall until
        # process teardown.
        timeout = max(t.daemon.publish_drain_timeout for t in tickets)
        outcome = threading.Event()
        confirmed: list[bool] = []
        pending = [len(tickets)]
        lock = threading.Lock()

        def probe(t: DurabilityTicket) -> None:
            durable = False
            try:
                t.wait(timeout=timeout)
                durable = True
            except Exception:
                pass  # this shard's WAL died or timed out
            with lock:
                if durable:
                    confirmed.append(True)
                pending[0] -= 1
                # Settle as soon as one probe confirms OR every probe has
                # answered negatively — the full timeout is paid only for
                # a genuinely wedged fsync, not for fast WALError failures.
                if durable or pending[0] == 0:
                    outcome.set()

        for ticket in tickets:
            threading.Thread(target=probe, args=(ticket,), daemon=True).start()
        outcome.wait(timeout)
        return bool(confirmed)

    def _sequence_cross_shard(
        self, txn: ShardedTransaction, prepared: list[tuple[int, PreparedCommit]]
    ) -> int:
        """The 2PC commit point: one timestamp, one record per writing shard.

        Both timestamp draws below register the commit as in-flight with
        the snapshot coordinator *atomically with the draw*, so no reader
        barrier can ever admit a timestamp whose per-shard publishes are
        still pending.  ``reserve_group_commit`` draws while holding every
        participant daemon lock; the coordinator lock is a leaf, so the
        registering facade nests safely inside them.  Reservation
        *pre-flight* failures raise before the draw and register nothing.
        """
        coordinator = self.snapshot_coordinator
        writers = [
            (idx, handle)
            for idx, handle in prepared
            if handle.written and self.daemons[idx] is not None
        ]
        if not writers:
            if coordinator is not None:
                return coordinator.begin_commit()
            return self.oracle.next()
        daemons = {idx: self.daemons[idx] for idx, _ in writers}
        bodies = {
            idx: encode_commit_body(txn.txn_id, txn.children[idx].write_sets)
            for idx, _ in writers
        }
        oracle = (
            self.oracle if coordinator is None else coordinator.reserve_oracle()
        )
        commit_ts, tickets = reserve_group_commit(daemons, oracle, bodies)
        for idx, handle in writers:
            handle.ticket = tickets[idx]
        return commit_ts

    def _abort_after_prepare_failure(
        self,
        txn: ShardedTransaction,
        participants: list[int],
        prepared: list[tuple[int, PreparedCommit]],
        cause: BaseException,
    ) -> None:
        """Roll every participant back: prepared ones release their pinned
        resources, unprepared ones abort through their coordinator."""
        for idx, handle in prepared:
            child = txn.children[idx]
            if not child.is_finished():
                self.shards[idx].coordinator.abort_prepared(child, handle)
        for idx in participants:
            child = txn.children[idx]
            if not child.is_finished():
                self.shards[idx].coordinator.abort_transaction(child, ABORT_GROUP)
        reason = cause.reason if isinstance(cause, TransactionAborted) else ABORT_GROUP
        txn.mark_aborted(reason)
        self.cross_shard_aborts += 1

    def abort(self, txn: ShardedTransaction, reason: str = ABORT_USER) -> None:
        if txn.is_finished():
            return
        for idx, child in txn.children.items():
            if not child.is_finished():
                self.shards[idx].coordinator.abort_transaction(child, reason)
        txn.mark_aborted(reason)

    def commit_state(self, txn: ShardedTransaction, state_id: str) -> bool:
        """Per-state ``Commit`` vote (the stream operators' entry point).

        The single-site :class:`~repro.core.group_commit.
        GroupCommitCoordinator` semantics: the vote set is every state
        declared at :meth:`begin` or written since; a vote that leaves a
        state unvoted returns ``False``, and the vote that completes the
        set commits through :meth:`commit` (single-shard or 2PC) and
        returns ``True``.  A commit vote after an ``Abort`` vote raises
        :class:`~repro.errors.TransactionAborted` (``ABORT_GROUP``).
        """
        flags = txn.state_flags
        if FLAG_ABORT in flags.values():
            raise TransactionAborted(
                f"sharded transaction {txn.txn_id} aborted globally (another "
                "state voted abort)",
                txn_id=txn.txn_id,
                reason=ABORT_GROUP,
            )
        txn.ensure_active()
        flags[state_id] = FLAG_COMMIT
        for child in txn.children.values():
            for written in child.write_sets:
                flags.setdefault(written, FLAG_ACTIVE)
        if FLAG_ACTIVE in flags.values():
            return False
        self.commit(txn)
        return True

    def abort_state(
        self, txn: ShardedTransaction, state_id: str, reason: str = ABORT_USER
    ) -> None:
        """Per-state ``Abort`` vote: aborts the transaction on every shard."""
        if txn.is_finished():
            return
        txn.state_flags[state_id] = FLAG_ABORT
        self.abort(txn, reason)

    def _snapshot_view(self, txn: ShardedTransaction) -> ShardedSnapshotView:
        return ShardedSnapshotView(self, txn)

    # checkpoints ---------------------------------------------------------

    def _maybe_checkpoint(self, shards: list[int]) -> None:
        """Auto-checkpoint trigger, evaluated after every commit.

        Cheap when idle (one counter read per touched shard).  A shard
        whose tail crosses the soft trigger is handed to the
        :class:`CheckpointDaemon` — the committer only signals; the flush,
        marker and truncation run off the commit path.
        """
        if self.checkpoint_daemon is None or self.fenced:
            return
        for idx in shards:
            daemon = self.daemons[idx]
            if daemon is None:
                continue
            # De-phase the fleet: under a uniform load every shard's tail
            # crosses the trigger within a few records of the others, so
            # the cuts would all land together — one wide stall window
            # instead of num_shards narrow ones.  The *first* trigger of
            # each shard is pulled forward by a large per-shard offset
            # (initial phase separation), and every later trigger by a
            # small permanent one: slightly different periods keep the
            # phases drifting apart instead of re-clumping.
            if self._auto_cut_seeded[idx]:
                skew = (idx * self.checkpoint_interval) // (8 * self.num_shards)
            else:
                skew = (idx * self.checkpoint_interval) // (2 * self.num_shards)
            threshold = max(1, self._soft_trigger - skew)
            if daemon.records_since_checkpoint() >= threshold:
                self._auto_cut_seeded[idx] = True
                self.checkpoint_daemon.request(idx)

    @contextmanager
    def _commit_latches(self, *shards: int) -> Iterator[None]:
        """Quiesce ``shards``: hold every table commit latch they have.

        Every commit-WAL enqueue happens under the latches of the tables
        it writes, and a prepared 2PC participant pins them until phase
        two, so while they are held no record can enqueue, no enqueued
        record is un-applied and no in-doubt prepare can straddle what
        the holder does.  Order: ascending shard index (the global order
        commits and 2PC prepares use, so no hold-and-wait cycle), then
        state id within a shard (the order commits take them in).
        """
        with ExitStack() as stack:
            for idx in sorted(shards):
                for table in sorted(
                    self.shards[idx].tables(), key=lambda t: t.state_id
                ):
                    stack.enter_context(table.commit_latch)
            yield

    def checkpoint_shard(
        self, idx: int, background: bool = False, during_migration: bool = False
    ) -> int:
        """Cut one shard's checkpoint; returns WAL records truncated.

        ``background=True`` is the :class:`CheckpointDaemon`'s cut: it
        skips instead of waiting when another cut holds the shard, skips
        on a fenced manager or a failed pipeline, and keeps the records
        enqueued *during* the pre-flush in the WAL instead of flushing them
        under the latches.  The default full cut (manual checkpoints,
        close, migrations, the post-recovery cut) waits for the shard,
        raises on failure, flushes everything and leaves a clean
        ``[marker]`` file behind.  Both end in the one atomic rewrite of
        :meth:`~repro.core.durability.GroupFsyncDaemon.write_checkpoint`.

        Protocol (each step leaves a recoverable state):

        0. pre-flush every LSM base table *without* the latches: the bulk
           of the memtable data reaches fsynced SSTables while commits
           keep flowing, so the quiesced window below pays only the small
           delta written since;
        1. quiesce the shard (:meth:`_commit_latches`): once the latches
           are held no record can enqueue and no enqueued record is
           un-applied — and no in-doubt prepare can be caught behind the
           marker;
        2. wait out in-flight ``LastCTS`` publishes of the records the cut
           truncates — committers release the latches *before* their
           durability barrier and publish, so without this wait the
           marker's ``last_cts`` snapshot could miss a commit whose record
           step 4 then truncates (after a crash, recovery — which reads
           ``LastCTS`` from the commit WAL alone — would restore it below
           an acknowledged commit and the oracle could reissue its
           timestamp).  A full cut first drains the daemon and waits for
           every publish;
        3. a full cut re-flushes every LSM base table, so all applied
           commits land in fsynced SSTables;
        4. rewrite the WAL to the checkpoint marker (carrying the shard's
           group ``LastCTS`` snapshot) plus the uncovered records.
        """
        daemon = self.daemons[idx]
        if daemon is None:
            return 0
        if idx in self._migrating and not during_migration:
            # A slot migration owns this shard's marker: a foreign cut
            # would truncate the commit-WAL suffix the flip still has to
            # replay onto the target.  Skipped (0 dropped) rather than
            # blocked — the migration cuts its own checkpoints and leaves
            # the WAL bounded again once the flip lands.
            return 0
        if background and (self.fenced or daemon.failed):
            # Best-effort cut: skip, like on lock contention — an explicit
            # full checkpoint still surfaces the fence/poison.
            return 0
        self._ensure_not_fenced()
        lock = self._ckpt_locks[idx]
        if not lock.acquire(blocking=not background):
            return 0
        try:
            if idx in self._migrating and not during_migration:
                # Re-check under the checkpoint lock: a cut that passed
                # the pre-lock check and was descheduled could otherwise
                # race a migration's start (which only drains cuts that
                # *hold* the lock) and truncate the commit-WAL suffix the
                # flip still has to replay onto the target.
                return 0
            shard = self.shards[idx]
            tables = sorted(shard.tables(), key=lambda t: t.state_id)
            backend_flushes = [
                flush
                for table in tables
                for flush in (getattr(table.backend, "flush", None),)
                if callable(flush)
            ]
            # Step 0: pre-flush outside the latches (see the docstring).
            # The watermark drawn *before* the flush is what a background
            # cut may cover.  NOT ``last_enqueued()``: commits enqueue
            # before they apply, so an in-flight commit's record can be
            # enqueued while its writes are still missing from the
            # memtable this pre-flush seals.  The settled-publish prefix is
            # the safe cover — settle happens strictly after the apply (see
            # :meth:`GroupFsyncDaemon.covered_watermark`).
            covered_seq = daemon.covered_watermark()
            for flush in backend_flushes:
                flush()
            # Pre-drain the commit WAL too: the in-latch drain below then
            # usually finds nothing pending, so the quiesced window skips
            # the batch fsync a checkpointing thread would otherwise lead
            # while holding every latch.
            daemon.flush(timeout=CHECKPOINT_FLUSH_TIMEOUT)
            with self._commit_latches(idx):
                # Re-check under the latches: a phase-two failure may have
                # fenced the manager while this thread blocked on a
                # prepared participant's latch — the tables it released
                # may be missing a durably-decided transaction's writes.
                if self.fenced and background:
                    return 0
                self._ensure_not_fenced()
                if background:
                    # Only the publishes of the records the cut will
                    # *truncate* must land before the snapshot below; the
                    # kept tail's committers may still be parked on their
                    # durability barrier — the cut itself wakes them.
                    daemon.wait_publishes_drained(up_to=covered_seq)
                else:
                    daemon.flush(timeout=CHECKPOINT_FLUSH_TIMEOUT)
                    daemon.wait_publishes_drained()
                    # The delta enqueued since the pre-flush must reach
                    # the SSTables before the marker covers it; with every
                    # publish settled the watermark is the last record.
                    for flush in backend_flushes:
                        flush()
                    covered_seq = daemon.covered_watermark()
                last_cts = {
                    gid: shard.context.last_cts(gid)
                    for gid in shard.context.group_ids()
                }
                checkpoint_ts = max(last_cts.values(), default=0)
                dropped = daemon.write_checkpoint(
                    checkpoint_ts, last_cts, covered_seq
                )
                self._last_checkpoint_ts[idx] = checkpoint_ts
            if self.coordinator_log is not None:
                # Decision watermark over the shards that can still hold
                # an in-doubt prepare: a slot-less husk (post-merge) gets
                # no routed keys, so no prepare can land there — but its
                # checkpoint timestamp is frozen forever, and including it
                # in the min would pin compaction at the merge point and
                # let the coordinator log grow without bound.
                smap = self.slot_map
                active = [
                    ts
                    for shard_idx, ts in enumerate(self._last_checkpoint_ts)
                    if smap.slots_of(shard_idx)
                ]
                # Flips the persisted schema already reflects are garbage
                # too — ``_durable_slot_epoch`` advances only after the
                # schema rewrite's rename lands, never ahead of it.
                self.coordinator_log.compact(
                    min(active, default=0),
                    min_slot_epoch=self._durable_slot_epoch
                    if self._schema is not None
                    else None,
                )
            return dropped
        except (WALError, TimeoutError):
            if background:
                # The pipeline failed (poison, drain timeout, wedged
                # device) under a best-effort cut: the WAL tail simply
                # stays for a later explicit checkpoint or restart
                # recovery.
                return 0
            raise
        finally:
            lock.release()

    def checkpoint(self, parallel: bool = True) -> int:
        """Checkpoint every shard; returns total WAL records truncated.

        The shards' cuts are independent — each quiesces only its own
        tables and truncates its own WAL — so the manual all-shards path
        runs them in a bounded thread pool: the per-shard SSTable and
        marker fsyncs overlap on the device instead of paying N serial
        flushes.  ``parallel=False`` keeps the sequential reference
        behaviour (benchmarks compare the two).
        """
        if not parallel or self.num_shards == 1:
            return sum(
                self.checkpoint_shard(idx) for idx in range(self.num_shards)
            )
        with ThreadPoolExecutor(
            max_workers=min(self.num_shards, _SHARD_POOL_LIMIT),
            thread_name_prefix="shard-ckpt",
        ) as pool:
            return sum(pool.map(self.checkpoint_shard, range(self.num_shards)))

    # replication ----------------------------------------------------------

    def _replica_dir(self, shard: int, replica_id: int) -> Path:
        """Replica WAL directory: lives inside the shard's directory so a
        shard's full durable footprint stays one subtree."""
        assert self.data_dir is not None
        return self.data_dir / f"shard-{shard:02d}" / f"replica-{replica_id}"

    def _attach_replication(self) -> None:
        """Start shipping on every shard.  A new store runs this from the
        constructor; :meth:`open` runs it after recovery so bootstrap
        images are cut from recovered state."""
        for idx in range(self.num_shards):
            self._bootstrap_shard_replicas(idx)

    def _bootstrap_shard_replicas(self, idx: int) -> None:
        """(Re)base every replica of shard ``idx`` on a fresh image — the
        migration copy phase pointed at a replica: quiesce the shard's
        commit latches, drain the durability pipeline, snapshot every
        table at the newest committed timestamp and stamp the replicas'
        confirmed floor at the WAL sequence the image covers.

        Runs when replication attaches, after a slot handover changed the
        shard's contents outside the commit-WAL feed (catch-up and
        handover write through ``redo_write_set``/backend batches, which
        the shipping loop never sees), and as the repair path for lagging
        replicas (bootstrap clears the flag and re-enters them into quorum
        accounting).  A shard without replicas yet (a split's or a
        failover's fresh target) first gets them, with the daemon chain:
        fsync daemon ``on_durable`` -> :class:`ReplicationDaemon` buffer ->
        replica WAL append/apply -> ``confirm_replica_durable``.
        """
        daemon = self.daemons[idx]
        if daemon is None or self.replication_factor <= 0:
            return
        repl = self._replication[idx]
        if repl is None:
            dirs = [self._replica_dir(idx, r) for r in range(self.replication_factor)]
            replicas = [ShardReplica(path, r) for r, path in enumerate(dirs)]
            for replica in replicas:
                replica.floor_hook = self._follower_floor
                daemon.register_replica(replica.replica_id)
            repl = ReplicationDaemon(idx, daemon, replicas, faults=self.faults)
            self._replication[idx] = repl
            # The feed must be live BEFORE the bootstrap cut below: a
            # commit that lands between the cut's drain and a later wiring
            # would never be shipped — a permanent sequence gap.
            daemon.set_on_durable(repl.ingest)
            if self.ack == "quorum":
                daemon.configure_replication(
                    (self.replication_factor + 2) // 2, self.replica_ack_timeout
                )
        shard = self.shards[idx]
        owned = frozenset(self.slot_map.slots_of(idx))
        num_slots = self.slot_map.num_slots
        with self._commit_latches(idx):
            daemon.flush(timeout=CHECKPOINT_FLUSH_TIMEOUT)
            daemon.wait_publishes_drained()
            last_cts = {gid: shard.context.last_cts(gid) for gid in shard.context.group_ids()}
            bootstrap_cts = max(last_cts.values(), default=0)
            # Filtered to owned slots: post-migration frozen husk rows
            # must not leak into the image (a promoted replica would
            # resurrect keys another shard owns).
            image = {
                table.state_id: [
                    (key, value)
                    for key, value in table.scan_at(bootstrap_cts)
                    if slot_of_key(key, num_slots) in owned
                ]
                for table in shard.tables()
            }
            floor = daemon.last_enqueued()
            for replica in repl.replicas:
                replica.bootstrap(bootstrap_cts, last_cts, image, floor)
                daemon.register_replica(replica.replica_id)
                daemon.confirm_replica_durable(replica.replica_id, floor)

    def follower_read_ts(self) -> FollowerReadTs:
        """Newest timestamp follower reads can serve consistently: the
        cross-shard barrier (no cross-shard commit mid-apply — PR 6's
        global snapshot guarantee) capped by every replicated shard's best
        healthy applied watermark.  ``0`` when some replicated shard has
        no healthy replica at all.  While the caller holds the returned
        :class:`~repro.core.replication.FollowerReadTs`, no replica trims
        the versions visible at it."""
        token = object()
        # Holds every floor down while ts is drawn: a floor that misses it
        # read its horizon (first) before ts was drawn.
        self._follower_pins[token] = 0
        ts = self._follower_pins[token] = self._follower_horizon()
        return FollowerReadTs(ts, functools.partial(self._follower_pins.pop, token, None))

    def _follower_floor(self) -> int:
        """Every replica's ``floor_hook``: ``min(horizon, oldest pin)``."""
        horizon = self._follower_horizon()
        while True:
            try:
                return min([horizon, *self._follower_pins.values()])
            except RuntimeError:  # a pin came or went mid-scan
                continue

    def _follower_horizon(self) -> int:
        coordinator = self.snapshot_coordinator
        ts = coordinator.barrier() if coordinator is not None else self.oracle.current()
        for repl in filter(None, self._replication):
            ts = min(ts, max((r.applied_cts for r in repl.replicas if not r.lagging), default=0))
        return ts

    def read_follower(self, state_id: str, key: Any, ts: int | None = None) -> Any:
        """Serve a snapshot point read from one of the key's shard
        replicas at ``ts`` (default :meth:`follower_read_ts`), falling
        back to the primary when no healthy replica covers the timestamp.
        Composes with global snapshots: reads at one ``follower_read_ts``
        across shards never observe a fractured cross-shard commit.

        Raises :class:`~repro.errors.SnapshotTooOld` when the primary finds
        no version at a ``ts`` below its GC horizon (it may be collected):
        never under a held snapshot, nor at a held :meth:`follower_read_ts`
        unless a re-bootstrap rebased the replicas past it."""
        if ts is None:
            ts = self.follower_read_ts()
        shard = self.shard_of(key)
        repl = self._replication[shard]
        if repl is not None:
            self._follower_rr += 1
            rr = self._follower_rr % len(repl.replicas)
            for replica in repl.replicas[rr:] + repl.replicas[:rr]:
                covered, value = replica.read_at(state_id, key, ts)
                if covered:
                    self.follower_reads += 1
                    return value
        primary = self.shards[shard]
        entry = primary.table(state_id).read_version_at(key, ts)
        if entry is None and ts < primary.context.oldest_active_version():
            raise SnapshotTooOld(f"no replica covers ts {ts}; shard {shard} may have collected it")
        return None if entry is None else entry.value

    def replication_stats(self) -> dict[str, Any]:
        """Replication health: per-shard shipping counters + watermarks,
        manager-level failover/ack counters."""
        shards: list[dict[str, int] | None] = []
        for idx, repl in enumerate(self._replication):
            if repl is None:
                shards.append(None)
                continue
            entry = repl.stats()
            daemon = self.daemons[idx]
            if daemon is not None:
                dstats = daemon.stats()
                for name in ("replica_durable_watermark", "quorum_acks", "replica_ack_timeouts"):
                    entry[name] = dstats[name]
            shards.append(entry)
        return {
            "replication_factor": self.replication_factor,
            "ack": self.ack,
            "failovers": self.failovers,
            "ack_degraded_commits": self.ack_degraded_commits,
            "follower_reads": self.follower_reads,
            "shards": shards,
        }

    def failover(self, source: int, *, catch_up: bool = True, timeout: float = 10.0) -> int:
        """Promote shard ``source``'s most-caught-up replica onto a fresh
        shard via a durable :class:`~repro.core.slots.SlotFlip` — the
        recovery path for a lost primary *machine* (storage and all).

        The promotion is a slot handover (:meth:`_hand_over_slots`, the one
        path split and merge take too) of every slot ``source`` owns, with
        the replica as the image: there is no copy phase, and under the
        latches the replica's newest live version per key is written to
        the new shard's base tables and handed over at its original commit
        timestamp.  The promoted image is checkpointed on the new shard
        **before** the flip record is fsynced to the coordinator log (the
        commit point — recovery presumes the source owns its slots until
        the record is durable, and rolls the flip forward once it is), so
        a crash at either promotion fault point (``promote_pre_flip``
        before the handover, ``promote_post_flip`` after the durable flip)
        reopens consistently pre- or post-flip, never a mix.  The demoted
        shard's final checkpoint is best effort: its storage may be the
        very thing that failed, and post-flip recovery evicts its copies
        of the moved slots as stale.

        ``catch_up=True`` (live failover) first drains the source's
        durability pipeline and waits until a replica confirmed the whole
        enqueued prefix, so *no* commit is lost.  ``catch_up=False``
        models the machine-loss scenario: promote strictly from
        replica-durable state — every ``ack="quorum"``-acked commit is
        covered by construction, un-acked commits may be discarded (they
        were never guaranteed).  Works cold too: a manager reopened with
        ``replication_factor=0`` loads the replica WALs from disk and
        promotes the longest confirmed prefix.

        Returns the new shard's index.
        """
        with self._migration_lock:
            self._check_migratable(source)
            if self.data_dir is None:
                raise StorageError(
                    "failover needs data_dir= (durable SlotFlip + replica WALs)"
                )
            moving = self.slot_map.slots_of(source)
            if not moving:
                raise StorageError(f"shard {source} owns no slots to fail over")
            repl = self._replication[source]
            daemon = self.daemons[source]
            cold: list[ShardReplica] = []
            if repl is None:
                shard_path = self.data_dir / f"shard-{source:02d}"
                for entry in sorted(shard_path.glob("replica-*")):
                    try:
                        rid = int(entry.name.split("-", 1)[1])
                    except ValueError:
                        continue
                    cold.append(ShardReplica.load(entry, rid))
            target = self._add_shard()
            tgt_mgr = self.shards[target]
            moving_set = frozenset(moving)
            num_slots = self.slot_map.num_slots

            def promote() -> tuple[dict[str, list[tuple[Any, Any, int]]], Callable[[str], int]]:
                if repl is not None and catch_up and daemon is not None:
                    # Live catch-up drain: everything enqueued becomes
                    # durable, published and shipped before promotion,
                    # so the promoted image misses nothing.
                    daemon.flush(timeout=CHECKPOINT_FLUSH_TIMEOUT)
                    daemon.wait_publishes_drained()
                    tail_seq = daemon.last_enqueued()
                    if not repl.wait_shipped(tail_seq, timeout=timeout):
                        raise StorageError(
                            f"no replica of shard {source} confirmed "
                            f"seq {tail_seq} within {timeout}s — "
                            "replicas lagging; re-bootstrap or fail "
                            "over with catch_up=False (quorum-acked "
                            "commits only)"
                        )
                replica = (
                    repl.best_replica()
                    if repl is not None
                    else max(cold, key=lambda r: r.confirmed_seq, default=None)
                )
                if replica is None:
                    raise StorageError(f"shard {source} has no replica to promote")
                self.faults.fire("promote_pre_flip", source)
                known_states = set(tgt_mgr.context.state_ids())
                rows = {
                    state_id: [
                        row
                        for row in state_rows
                        if slot_of_key(row[0], num_slots) in moving_set
                    ]
                    for state_id, state_rows in replica.live_items().items()
                    if state_id in known_states
                }
                # No copy phase ran, so the promoted rows reach the new
                # shard's base tables here, inside the freeze.
                for state_id, state_rows in rows.items():
                    dst = tgt_mgr.table(state_id)
                    self._write_rows(
                        dst,
                        (
                            (dst.key_codec.encode(key), dst.value_codec.encode(value))
                            for key, value, _cts in state_rows
                        ),
                    )

                # Visibility floors: the replica's bootstrap floors, raised
                # to its applied watermark (WAL-order == cts-order means
                # every commit at or below it is applied, so pinning
                # readers there is complete).
                def floor(gid: str) -> int:
                    return max(replica.last_cts.get(gid, 0), replica.applied_cts)

                return rows, floor

            def fault(phase: str) -> None:
                # ``promote_pre_flip`` fires inside ``promote`` above.
                if phase == "flip":
                    self.faults.fire("promote_post_flip", source)

            try:
                self._hand_over_slots(
                    moving, source, target, promote, fault, best_effort_source_cut=True
                )
            finally:
                for cold_replica in cold:
                    cold_replica.close()
            self.failovers += 1
            # Retire the demoted shard's shipping; the new primary gets
            # fresh replicas when live replication is on.
            if repl is not None:
                repl.stop()
                self._replication[source] = None
                if daemon is not None:
                    daemon.configure_replication(0, self.replica_ack_timeout)
            self._bootstrap_shard_replicas(target)
            self._adopt_lsm_backends()
            return target

    # online rebalancing ---------------------------------------------------

    def split_shard(
        self, source: int, moving: list[int] | None = None
    ) -> int:
        """Online split: grow the fleet by one shard and migrate slots to it.

        Creates shard ``num_shards`` (directories, commit WAL, context
        store, one partition per registered state) and migrates ``moving``
        — by default every *second* slot the source owns, so splitting
        every shard of a uniform ``N``-shard map yields exactly the
        uniform ``2N``-shard map — while commits keep flowing.  Returns
        the new shard's index.

        The migration is the slot handover of
        :meth:`_migrate_slots_locked`; a crash at any point recovers to
        either the pre-split or the post-split map, never a mix (the flip
        record in the coordinator log is the commit point).
        """
        with self._migration_lock:
            self._check_migratable(source)
            owned = self.slot_map.slots_of(source)
            if moving is None:
                moving = owned[1::2]
            else:
                foreign = sorted(set(moving) - set(owned))
                if foreign:
                    raise ValueError(
                        f"slots {foreign} are not owned by shard {source}"
                    )
            if not moving:
                raise ValueError(
                    f"shard {source} owns no slots to split off "
                    f"({len(owned)} owned)"
                )
            target = self._add_shard()
            self._migrate_slots_locked(list(moving), source, target)
            return target

    def merge_shard(self, source: int, target: int) -> int:
        """Online merge: migrate every slot of ``source`` onto ``target``.

        The inverse of a split; uses the same slot handover.  The
        emptied source shard stays in the layout as a slot-less husk (its
        directories remain valid, it simply receives no traffic) — shard
        indices are never renumbered, so persisted WALs and the schema
        stay consistent.  Returns the number of slots moved.
        """
        with self._migration_lock:
            self._check_migratable(source, target)
            if source == target:
                raise ValueError("merge source and target must differ")
            moving = self.slot_map.slots_of(source)
            if not moving:
                return 0
            self._migrate_slots_locked(moving, source, target)
            return len(moving)

    def _check_migratable(self, *shards: int) -> None:
        self._ensure_not_fenced()
        if self._closed:
            raise StorageError("cannot migrate slots on a closed manager")
        for idx in shards:
            if not 0 <= idx < self.num_shards:
                raise ValueError(
                    f"no shard {idx} in a {self.num_shards}-shard manager"
                )

    def _add_shard(self) -> int:
        """Stamp out one more shard identical to the existing ones.

        Durable mode persists the grown shard count *first*: once the
        catalog says ``N+1``, a crash anywhere later leaves at worst an
        empty extra shard (no slots route to it), which reopens cleanly —
        whereas a ``shard-NN`` directory beyond the cataloged count is
        rejected as inconsistent.
        """
        idx = self.num_shards
        if self.data_dir is not None:
            self._schema.num_shards = idx + 1
            self._schema.save(self.data_dir)
        shard = self._build_shard(idx)
        template = self.shards[0]
        for state_id in template.context.state_ids():
            src_table = template.table(state_id)
            factory = self._backend_factories.get(state_id)
            shard.create_table(
                state_id,
                backend=factory(idx) if factory is not None else None,
                key_codec=ORDERED_KEY_CODEC,
                value_codec=PICKLE_CODEC,
                version_slots=src_table.version_slots,
                location=f"shard-{idx}",
                residency=src_table.residency,
            )
        for group_id in template.context.group_ids():
            if group_id in shard.context.group_ids():
                # per-state singleton groups auto-register with the table
                continue
            shard.register_group(
                group_id, list(template.context.group(group_id).state_ids)
            )
        self.shards.append(shard)
        self.daemons.append(shard.durability)
        self._ckpt_locks.append(
            make_lock(
                lockranks.CKPT,
                index=len(self._ckpt_locks),
                name=f"ckpt[{len(self._ckpt_locks)}]",
            )
        )
        self._last_checkpoint_ts.append(0)
        self._auto_cut_seeded.append(False)
        self._replication.append(None)
        # Publish the grown count last: no list index is handed out for
        # the new shard until every per-shard structure exists.
        self.num_shards = idx + 1
        for table in shard.tables():
            self._wire_residency(idx, table)
        self._adopt_lsm_backends()
        return idx

    def _migrate_slots_locked(
        self, moving: list[int], source: int, target: int
    ) -> None:
        """Move ``moving`` slots from ``source`` to ``target``, online.

        A slot handover (:meth:`_hand_over_slots`; the caller holds
        ``_migration_lock``) whose image is the source shard itself:

        * **copy** — off the latches.  Durable mode cuts a checkpoint
          image of the source (LSM stores flushed, marker cut, WAL
          truncated to the marker) and bulk-copies the moving slots' rows
          from the source base tables into the target's.  Commits keep
          flowing on the source; everything they write after the marker
          lands in the commit-WAL suffix, which source checkpoints
          (suspended for the migration) cannot truncate.
        * **catch-up** — under the latches, the source's batched-fsync
          daemon is drained and the WAL suffix since the marker — via
          :meth:`~repro.core.durability.GroupFsyncDaemon.export_tail` — is
          replayed onto the target (idempotent redo, filtered to the
          moving slots).  Volatile mode has no WAL to replay, so its bulk
          copy runs here instead.  The handover carries each moved key's
          live version from the source's version index, and the target's
          group ``LastCTS`` floors are raised to the source's.

        In-flight transactions: writers that buffered a moved key on the
        source drain while the latches are awaited or are aborted
        retryably by the under-latch routing gate
        (:data:`~repro.errors.ABORT_REBALANCE`) and restart against the
        new owner.  Readers keep their per-shard snapshot semantics with
        one relaxation — exactly restart recovery's bootstrap relaxation:
        the handover carries each moved key's *newest* committed version
        (at its original commit timestamp), so a snapshot pinned across
        the flip observes a moved key at that newest version when its
        read timestamp covers it, and as absent when it only covered an
        older (not carried) version.  Fresh snapshots are unaffected.
        """
        durable = self.data_dir is not None
        moving_set = frozenset(moving)
        num_slots = self.slot_map.num_slots
        src_mgr = self.shards[source]
        tgt_mgr = self.shards[target]

        def copy_rows() -> None:
            for state_id in src_mgr.context.state_ids():
                src = src_mgr.table(state_id)
                self._write_rows(
                    tgt_mgr.table(state_id),
                    (
                        (kbytes, vbytes)
                        for kbytes, vbytes in src.backend.scan()
                        if slot_of_key(src.key_codec.decode(kbytes), num_slots)
                        in moving_set
                    ),
                )

        def copy() -> None:
            # The fuzzy-image cut: everything committed so far reaches
            # fsynced SSTables and the marker, so the scan reads a complete
            # image and the WAL suffix is exactly the delta the freeze will
            # replay.
            self.checkpoint_shard(source, during_migration=True)
            copy_rows()

        def live_rows(src: StateTable) -> Iterator[tuple[Any, Any, int]]:
            for key in src.keys():
                if slot_of_key(key, num_slots) not in moving_set:
                    continue
                live = src.read_live(key)
                if live is not None:
                    yield key, live.value, live.cts

        def catch_up() -> tuple[dict[str, Iterator[tuple[Any, Any, int]]], Callable[[str], int]]:
            if durable:
                # Drain the pipeline, then replay the commit-WAL suffix
                # since the copy-phase marker onto the target.  Only commit
                # records apply: a prepare whose transaction committed has
                # its own commit record here, and an aborted prepare must
                # not apply at all.
                src_daemon = self.daemons[source]
                src_daemon.flush(timeout=CHECKPOINT_FLUSH_TIMEOUT)
                src_daemon.wait_publishes_drained()
                _marker, records = src_daemon.export_tail()
                for record in records:
                    if not isinstance(record, CommitLogRecord):
                        continue
                    for state_id, ws in apply_recovered_commit(record).items():
                        moved = WriteSet(
                            {
                                key: entry
                                for key, entry in ws.entries.items()
                                if slot_of_key(key, num_slots) in moving_set
                            }
                        )
                        if moved:
                            tgt_mgr.table(state_id).redo_write_set(moved)
            else:
                # Base tables are write-through, so under the latches the
                # source's backend holds every moved row, cold ones too.
                copy_rows()
            rows = {
                state_id: live_rows(src_mgr.table(state_id))
                for state_id in src_mgr.context.state_ids()
            }
            return rows, src_mgr.context.last_cts

        moved_keys = self._hand_over_slots(
            moving,
            source,
            target,
            catch_up,
            functools.partial(self.faults.fire, "migration"),
            copy=copy if durable else None,
        )
        self.slot_migrations += 1
        self.slots_moved += len(moving)
        self.keys_migrated += moved_keys
        # Re-divide the fleet-wide cache and memory budgets: a split's
        # target was classified as a husk while ``_add_shard`` ran the
        # division slot-less, and a merge's source is a husk now whose
        # share the survivors reclaim (nothing else would ever expand
        # them back after a retirement).
        self._adopt_lsm_backends()
        # Catch-up and handover wrote around the commit-WAL feed (redo +
        # backend batches), so both sides' replicas re-base on fresh
        # images (a split's target starts shipping here; a husk's image
        # simply goes empty).
        self._bootstrap_shard_replicas(source)
        self._bootstrap_shard_replicas(target)

    def _hand_over_slots(
        self,
        moving: list[int],
        source: int,
        target: int,
        catch_up: Callable[
            [], tuple[dict[str, Iterable[tuple[Any, Any, int]]], Callable[[str], int]]
        ],
        fault: Callable[[str], None],
        *,
        copy: Callable[[], None] | None = None,
        best_effort_source_cut: bool = False,
    ) -> int:
        """Hand ``moving`` slots from ``source`` to ``target`` over one
        durable :class:`~repro.core.slots.SlotFlip`; returns the number of
        versions installed on the target.

        The one routing-change protocol: split, merge
        (:meth:`_migrate_slots_locked`) and :meth:`failover` differ only
        in where the moved image comes from — ``copy`` runs off the
        latches, ``catch_up`` under them and returns the image as
        ``(rows, floor)``: per state the ``(key, value, commit_ts)`` of
        each moved key's live version, already in the target's base
        tables, and each group's ``LastCTS`` floor.  ``fault`` is called
        with ``"copy"``, ``"catchup"`` and ``"flip"`` at the phase
        boundaries.  Caller holds ``_migration_lock``.

        1. **window** — the store is durably marked migration-touched,
           both shards' auto-checkpoints and storage maintenance are
           suspended and in-flight cuts drained; ``copy`` runs.
        2. **freeze** — both shards are quiesced
           (:meth:`_commit_latches`); ``catch_up`` runs, each handed-over
           version is installed on the target at its *original* commit
           timestamp, the target's group ``LastCTS`` floors are raised to
           cover them, and a target checkpoint makes the whole image
           durable before the flip.
        3. **flip** — the flip record is fsynced to the coordinator log
           (the commit point: recovery presumes the source owns the slots
           until this record is durable), the in-memory map is swapped
           (one atomic reference store), the schema is rewritten, the
           source's moved rows are purged (:meth:`_purge_moved_rows`) and
           a final source checkpoint truncates its now fully-covered WAL
           — best effort for a failover, whose source storage may be the
           very thing that failed.
        """
        durable = self.data_dir is not None
        moving_set = frozenset(moving)
        src_mgr = self.shards[source]
        tgt_mgr = self.shards[target]
        # Durably mark the dir as migration-touched BEFORE any phase can
        # write a byte: from here on, recovery evicts misrouted keys as
        # migration leftovers instead of refusing to open the store.
        if not self.migrations_started and self._schema is not None:
            self._schema.migrations_started = True
            self._schema.save(self.data_dir)
        self.migrations_started = True
        self._migrating.add(source)
        self._migrating.add(target)
        # Storage maintenance of both shards is suspended like their
        # auto-checkpoints: a background merge mid-copy would churn the
        # very SSTables the copy phase is scanning, and suspended stores
        # also waive backpressure (catch-up replay writes on the target
        # must never park waiting for a daemon told not to touch it).
        maintenance = self.maintenance_daemon
        stores = (
            []
            if maintenance is None
            else self._lsm_backends(source) + self._lsm_backends(target)
        )
        for store in stores:
            maintenance.suspend(store)
        try:
            # Drain in-flight background cuts of both shards: a cut holds
            # the per-shard checkpoint lock while waiting on latches this
            # handover is about to take — waiting here (lock order:
            # checkpoint lock before latches, same as the cuts) instead of
            # inside the freeze avoids the inversion.
            for idx in (source, target):
                with self._ckpt_locks[idx]:
                    pass
            if copy is not None:
                copy()
            fault("copy")
            moved_keys = 0
            with self._commit_latches(source, target):
                self._ensure_not_fenced()
                rows, floor = catch_up()
                # Version-index handover: snapshot reads at or after each
                # version's commit timestamp keep resolving correctly
                # under the new routing.
                for state_id, state_rows in rows.items():
                    moved_keys += self._install_handover(
                        tgt_mgr.table(state_id), list(state_rows)
                    )
                # The target's visibility floors must cover the adopted
                # timestamps before any reader pins a snapshot there.
                tgt_mgr.context.restore_last_cts(
                    {
                        gid: max(tgt_mgr.context.last_cts(gid), floor(gid))
                        for gid in tgt_mgr.context.group_ids()
                    }
                )
                if durable:
                    # Moved rows + marker durable on the target BEFORE the
                    # flip can commit: a durable flip must never point at
                    # data only buffered in memory.
                    self.checkpoint_shard(target, during_migration=True)
                fault("catchup")
                flip = SlotFlip(
                    self.slot_map.epoch + 1, {slot: target for slot in moving}
                )
                if self.coordinator_log is not None:
                    try:
                        self.coordinator_log.log_slot_flip(flip)
                    except BaseException as exc:
                        # The flip's durability is now uncertain: the
                        # record may or may not be on disk.  Commits must
                        # stop either way — if it IS durable, a reopen
                        # resolves post-flip and would evict any further
                        # source-side commits to the moved slots as stale
                        # copies.  Fencing (like a failed phase two) makes
                        # the reopen the next step, and the reopen lands
                        # on a consistent state whichever way the record
                        # fell: pre-flip (source complete, target copies
                        # purged) or post-flip (the target was checkpointed
                        # before the flip was attempted).
                        self._fence(
                            f"slot-map flip epoch {flip.epoch} failed to "
                            f"become durable: {exc!r}"
                        )
                        raise
                    fault("flip")
                # The in-memory commit point: one atomic reference swap.
                # Committers blocked on the held latches re-check their
                # routing against this map in the commit gate.
                self.slot_map = self.slot_map.apply(flip)
                if self._schema is not None:
                    self._save_slot_map()
                self._purge_moved_rows(src_mgr, moving_set)
                if durable:
                    # Final source cut: every surviving WAL record is
                    # either in the source's SSTables (kept keys) or
                    # handed over and checkpointed on the target (moved
                    # keys), so the suffix truncates and the purge becomes
                    # durable.
                    try:
                        self.checkpoint_shard(source, during_migration=True)
                    except (WALError, TimeoutError, StorageError):
                        if not best_effort_source_cut:
                            raise
            return moved_keys
        finally:
            self._migrating.discard(source)
            self._migrating.discard(target)
            for store in stores:
                maintenance.resume(store)

    @staticmethod
    def _install_handover(
        dst: StateTable, rows: list[tuple[Any, Any, int]]
    ) -> int:
        """Install handed-over live versions on the target at their
        original commit timestamps.  A version is clean only where the
        target's base table is checked to hold exactly its encoded value
        (the image the handover wrote there), so residency eviction never
        drops a version that a re-fault would not read back."""
        held = dst.backend.multi_get(
            [dst.key_codec.encode(key) for key, _value, _cts in rows]
        )
        for (key, value, cts), vbytes in zip(rows, held):
            clean = vbytes == dst.value_codec.encode(value)
            dst.install_version(key, value, cts, clean=clean)
        return len(rows)

    def _purge_moved_rows(
        self, src_mgr: TransactionManager, moving_set: frozenset[int]
    ) -> None:
        """Delete the moved slots' rows from a flipped source's *base
        tables* only.

        The durable base tables must stop carrying rows recovery would
        re-bootstrap (it would purge them again on every reopen).  The
        in-memory version arrays stay — readers take no latches, so one
        that routed to the source just before the flip may still be about
        to read; its versions are frozen (the commit gate refuses any
        further writer) and the epoch-gated scan filter keeps the stale
        copies out of merged scans.  A lazy source also holds moved rows
        its version index never faulted in, and such a reader would fault
        against the purged backend and read the key as absent — so each
        cold moved row first gets a frozen in-memory copy, installed
        unclean (non-evictable) like the arrays full residency leaves
        behind, and every moved array already resident loses its clean
        bit, since the base table no longer holds it.  The memory is
        reclaimed on the next reopen (recovery bootstraps from the purged
        backend).
        """
        num_slots = self.slot_map.num_slots
        for state_id in src_mgr.context.state_ids():
            src = src_mgr.table(state_id)
            deletes = []
            for key in src.keys():
                if slot_of_key(key, num_slots) not in moving_set:
                    continue
                obj = src.mvcc_object(key)
                if obj is not None:
                    obj.mark_dirty()
                deletes.append(src.key_codec.encode(key))
            if src.residency == RESIDENCY_LAZY:
                resident = set(deletes)
                for kbytes, vbytes in list(src.backend.scan()):
                    if kbytes in resident:
                        continue
                    key = src.key_codec.decode(kbytes)
                    if slot_of_key(key, num_slots) not in moving_set:
                        continue
                    deletes.append(kbytes)
                    src.install_version(
                        key, src.value_codec.decode(vbytes), src.bootstrap_cts
                    )
            if deletes:
                src.backend.write_batch([], deletes)

    @staticmethod
    def _write_rows(table: StateTable, rows: Iterable[tuple[bytes, bytes]]) -> None:
        """Write encoded rows to ``table``'s base table in bounded batches."""
        batch: list[tuple[bytes, bytes]] = []
        for row in rows:
            batch.append(row)
            if len(batch) >= 512:
                table.backend.write_batch(batch, [])
                batch = []
        if batch:
            table.backend.write_batch(batch, [])

    # recovery ------------------------------------------------------------

    @classmethod
    def open(
        cls,
        data_dir: str | os.PathLike[str],
        recovery_workers: int | None = None,
        **kwargs: Any,
    ) -> "ShardedTransactionManager":
        """Reopen the durable store in ``data_dir``: the only way to.

        Loads the persisted catalog once and checks it against the
        directory before anything is written (see
        :func:`~repro.recovery.sharded.load_catalog`): a catalog that is
        unreadable, lacks a field or records another key encoding than the
        engine's, a ``num_shards=`` other than the persisted count, a slot
        map or coordinator-log flip record routing outside the layout, or
        a stray ``shard-NN`` directory raises
        :class:`~repro.errors.StorageError`.  ``kwargs`` are constructor
        parameters; for the persisted settings (``protocol``,
        ``state_residency``, ``replication_factor``, ``ack``) an explicit
        argument beats, and rewrites, the catalog's value.

        Then builds the manager on that catalog, recreates its tables and
        groups and runs restart recovery: commit-WAL tail replay, in-doubt
        2PC resolution, ``LastCTS``/oracle restoration, version-index
        bootstrap and a checkpoint that truncates the replayed tails.
        Shards recover in parallel by default (they are self-contained
        directories); ``recovery_workers=1`` forces the sequential
        reference procedure.  The report lands on
        ``manager.last_recovery``.  Replication attaches last, so replica
        bootstrap images are cut from the recovered state.

        If any step after construction raises, the half-built manager is
        fenced and closed — daemons stopped, WAL and LSM handles closed,
        no final checkpoint (it would cut the commit WALs over tables
        that never got their tails) — and the original error propagates.
        """
        from ..recovery.sharded import CATALOG_SETTINGS, load_catalog, recover_sharded

        catalog = load_catalog(
            data_dir, {name: kwargs.pop(name, None) for name in CATALOG_SETTINGS}
        )
        manager = cls.__new__(cls)
        manager._schema = catalog
        manager.__init__(data_dir=data_dir, **catalog.settings(), **kwargs)
        try:
            for state_id, version_slots in catalog.states.items():
                manager.create_table(state_id, version_slots=version_slots)
            for group_id, state_ids in catalog.groups.items():
                manager.register_group(group_id, state_ids)
            manager.last_recovery = recover_sharded(
                manager, max_workers=recovery_workers
            )
            manager._attach_replication()
        except BaseException as exc:
            manager._fence(f"open() failed: {exc!r}")
            try:
                manager.close()
            except Exception:
                pass  # the open failure is the error to report
            raise
        return manager

    # maintenance ---------------------------------------------------------

    def collect_garbage(self) -> int:
        return sum(shard.collect_garbage() for shard in self.shards)

    def flush_durability(self) -> dict[int, int]:
        """Flush every shard's commit WAL; shard index -> durable watermark."""
        return {
            idx: daemon.flush()
            for idx, daemon in enumerate(self.daemons)
            if daemon is not None
        }

    def durable_watermarks(self) -> dict[int, int]:
        """Per-shard durable watermark (empty without a commit WAL)."""
        return {
            idx: daemon.durable_watermark()
            for idx, daemon in enumerate(self.daemons)
            if daemon is not None
        }

    def close(self) -> None:
        """Orderly shutdown: final checkpoint, then close every resource.

        The closing checkpoint flushes all base tables and truncates the
        commit WALs, so a clean restart replays nothing.  A fenced manager
        — or one with a poisoned durability pipeline — skips it: its
        in-memory state is not trustworthy, so the WALs are left intact
        for restart recovery (and the checkpoint would only raise mid-
        shutdown, leaking every other resource).  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        drained = True
        if self.checkpoint_daemon is not None:
            # Drain outstanding background cuts first so the final
            # checkpoint never races one.  The join is bounded: a wedged
            # cut (fsync that never returns) is abandoned — and the final
            # checkpoint is then skipped too, because the wedged thread
            # still holds that shard's checkpoint lock and latches.
            drained = self.checkpoint_daemon.close()
        # Replication stops before the final checkpoint: the ship loops
        # read the same WAL feed the cuts rewrite, and the replica WALs
        # must stop moving before their files close.
        for repl in self._replication:
            if repl is not None:
                repl.stop()
        if self.maintenance_daemon is not None:
            # After the checkpoint daemon (its cuts enqueue flush work),
            # before the final checkpoint: pending SSTable builds drain on
            # the pool instead of serially inside the closing cut's
            # synchronous flushes.  Bounded like the cut drain — a wedged
            # build is abandoned, and the stores' own close() still owns
            # durability of anything left sealed.
            self.maintenance_daemon.close()
        poisoned = any(d is not None and d.failed for d in self.daemons)
        if (
            self.data_dir is not None
            and drained
            and not self.fenced
            and not poisoned
        ):
            try:
                self.checkpoint()
            except Exception:
                # A failing or wedged device mid-shutdown (flush timeout,
                # WAL error, fence raced up): the WAL tails simply stay
                # for restart recovery — raising here with ``_closed``
                # already set would leak every shard resource below and
                # make a retry a silent no-op.
                pass
        for shard in self.shards:
            shard.close()
            # the shard's hooks are bound to this manager: drop them so a
            # closed manager is freed by reference counting alone
            shard.protocol.commit_gate = None
            shard.context.horizon_hook = None
        for daemon in self.daemons:
            if daemon is not None:
                daemon.close()
        if self.coordinator_log is not None:
            self.coordinator_log.close()

    def stats(self) -> dict[str, Any]:
        """Protocol counters summed over shards + sharded-commit counters."""
        totals: dict[str, Any] = {}
        for shard in self.shards:
            for name, value in shard.stats().items():
                totals[name] = totals.get(name, 0) + value
        totals["shards"] = self.num_shards
        totals["single_shard_commits"] = self.single_shard_commits
        totals["cross_shard_commits"] = self.cross_shard_commits
        totals["cross_shard_aborts"] = self.cross_shard_aborts
        totals["cross_shard_in_doubt"] = self.cross_shard_in_doubt
        hydrations = hydration_misses = evictions = visits = resident = 0
        for shard in self.shards:
            for table in shard.tables():
                hydrations += table.hydrations
                hydration_misses += table.hydration_misses
                evictions += table.residency_evictions
                visits += table.residency_sweep_visits
                resident += table.resident_keys()
        totals["hydrations"] = hydrations
        totals["hydration_misses"] = hydration_misses
        totals["residency_evictions"] = evictions
        totals["residency_sweep_visits"] = visits
        totals["resident_keys"] = resident
        totals["slot_epoch"] = self.slot_map.epoch
        totals["slot_migrations"] = self.slot_migrations
        totals["slots_moved"] = self.slots_moved
        totals["keys_migrated"] = self.keys_migrated
        totals["rebalance_aborts"] = self.rebalance_aborts
        totals["replication_factor"] = self.replication_factor
        totals["failovers"] = self.failovers
        totals["ack_degraded_commits"] = self.ack_degraded_commits
        totals["follower_reads"] = self.follower_reads
        replica_acks = records_shipped = lagging = 0
        for idx, repl in enumerate(self._replication):
            if repl is None:
                continue
            rstats = repl.stats()
            records_shipped += rstats["records_shipped"]
            lagging += rstats["lagging_replicas"]
            daemon = self.daemons[idx]
            if daemon is not None:
                replica_acks += daemon.quorum_acks
        totals["replica_acks"] = replica_acks
        totals["replica_records_shipped"] = records_shipped
        totals["replicas_lagging"] = lagging
        if self.coordinator_log is not None:
            totals["coordinator_outcomes"] = len(self.coordinator_log)
        if self.checkpoint_daemon is not None:
            totals.update(self.checkpoint_daemon.stats())
        if self.maintenance_daemon is not None:
            totals.update(self.maintenance_daemon.stats())
        if self.snapshot_coordinator is not None:
            totals.update(self.snapshot_coordinator.stats())
        totals.update(self.storage_stats())
        #: Edge counts of the runtime lock-acquisition graph ("held->then"
        #: -> count); empty unless REPRO_LOCKCHECK=1 enabled the sanitizer.
        totals["lock_graph"] = lock_graph()
        return totals

    def storage_stats(self) -> dict[str, Any]:
        """LSM engine counters aggregated over every base table.

        One place for benches and pollers to read flush/compaction/stall
        activity and cache effectiveness, instead of reaching into
        per-shard ``table.backend.stats`` internals.  Empty for a manager
        with no LSM backends (volatile tables).
        """
        stores = self._lsm_backends()
        if not stores:
            return {}
        totals: dict[str, Any] = {
            "lsm_stores": len(stores),
            "lsm_flushes": 0,
            "lsm_compactions": 0,
            "lsm_bloom_skips": 0,
            "lsm_sstable_reads": 0,
            "lsm_negative_hits": 0,
            "lsm_stall_slowdowns": 0,
            "lsm_stall_stops": 0,
            "lsm_stall_seconds": 0.0,
            "lsm_sealed_memtables": 0,
            "lsm_tables": 0,
        }
        hits = misses = 0
        for store in stores:
            stats = store.stats
            totals["lsm_flushes"] += stats.flushes
            totals["lsm_compactions"] += stats.compactions
            totals["lsm_bloom_skips"] += stats.bloom_skips
            totals["lsm_sstable_reads"] += stats.sstable_reads
            totals["lsm_negative_hits"] += stats.extra.get("negative_hits", 0)
            totals["lsm_stall_slowdowns"] += stats.stall_slowdowns
            totals["lsm_stall_stops"] += stats.stall_stops
            totals["lsm_stall_seconds"] += stats.stall_seconds
            totals["lsm_sealed_memtables"] += store.flush_debt()
            totals["lsm_tables"] += store.table_count()
            hits += store._cache.hits
            misses += store._cache.misses
        totals["lsm_cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        return totals
