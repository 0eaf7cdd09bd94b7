"""Transaction handles and per-transaction bookkeeping.

A :class:`Transaction` is the runtime record the paper keeps in the state
context's *Active Transactions* table: its id/timestamp, the list of
accessed states with a per-state status flag (Active / Commit / Abort), and
the pinned read timestamp (``ReadCTS``) per topology group.  The write and
read sets buffered per state live here too.

A transaction handle is driven by a single client thread; the tiny internal
mutex only guards the status flags that the group-commit coordinator
inspects from other operators' threads.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Any

from ..errors import InvalidTransactionState
from .isolation import IsolationLevel
from .write_set import ReadSet, WriteSet


class TxnStatus(Enum):
    """Lifecycle of the whole transaction."""

    ACTIVE = "active"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"
    #: Terminal state of a cross-shard commit whose durable outcome could
    #: not be confirmed either way after a phase-two failure: enqueued
    #: commit records may surface as durable decision evidence after a
    #: crash (committed) or may be lost (aborted).  Restart recovery
    #: resolves it conclusively.
    IN_DOUBT = "in-doubt"


class StateFlag(Enum):
    """Per-state status inside the active-transactions table (Figure 3)."""

    ACTIVE = "active"
    COMMIT = "commit"
    ABORT = "abort"


#: The terminal statuses: :meth:`TransactionHandle.is_finished`.
_FINISHED = (TxnStatus.COMMITTED, TxnStatus.ABORTED, TxnStatus.IN_DOUBT)


class TransactionHandle:
    """The status lifecycle every transaction handle shares.

    :class:`Transaction` and the sharded manager's
    :class:`~repro.core.sharding.ShardedTransaction` both take their
    status guard and terminal transitions from here.
    """

    __slots__ = ("txn_id", "status", "commit_ts", "abort_reason", "restarts")

    def __init__(self, txn_id: int) -> None:
        self.txn_id = txn_id
        self.status = TxnStatus.ACTIVE
        self.commit_ts: int | None = None
        self.abort_reason: str | None = None
        #: number of times ``run_transaction`` restarted this logical work
        #: unit (BOCC/MVCC conflict aborts); informational.
        self.restarts = 0

    def ensure_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise InvalidTransactionState(
                f"transaction {self.txn_id} is {self.status.value}, not active",
                txn_id=self.txn_id,
            )

    def is_finished(self) -> bool:
        return self.status in _FINISHED

    def mark_committed(self, commit_ts: int) -> None:
        self.status = TxnStatus.COMMITTED
        self.commit_ts = commit_ts

    def mark_aborted(self, reason: str) -> None:
        self.status = TxnStatus.ABORTED
        self.abort_reason = reason

    def mark_in_doubt(self, reason: str) -> None:
        """Terminal: the commit's durable outcome could not be confirmed
        either way — its record was enqueued and may already sit in a
        flushed batch, so recovery may roll it forward.  Never reported as
        a clean abort; restart recovery resolves it conclusively."""
        self.status = TxnStatus.IN_DOUBT
        self.abort_reason = reason


class Transaction(TransactionHandle):
    """Handle for one running transaction."""

    __slots__ = (
        "start_ts",
        "state_flags",
        "read_cts",
        "write_sets",
        "read_sets",
        "locks",
        "_mutex",
        "isolation",
        "wal_txn_id",
        "route_epoch",
        "snapshot_cap",
        "snapshot_guard",
        "ack_degraded",
    )

    def __init__(
        self,
        txn_id: int,
        isolation: IsolationLevel = IsolationLevel.SNAPSHOT,
    ) -> None:
        TransactionHandle.__init__(self, txn_id)
        #: visibility level of this transaction's reads (paper Section 3).
        self.isolation = isolation
        #: Begin timestamp; shares the counter domain with commit timestamps
        #: (the paper draws *all* timestamps from one global atomic counter).
        self.start_ts = txn_id
        #: state id -> StateFlag, for every state this transaction touched.
        self.state_flags: dict[str, StateFlag] = {}
        #: topology/group id -> pinned snapshot timestamp (ReadCTS).
        self.read_cts: dict[str, int] = {}
        self.write_sets: dict[str, WriteSet] = {}
        self.read_sets: dict[str, ReadSet] = {}
        #: lock tokens held (S2PL); released on commit/abort.
        self.locks: list[Any] = []
        self._mutex = threading.Lock()
        #: Transaction id stamped into commit-WAL records.  Defaults to the
        #: local id; the sharded manager overrides it on child transactions
        #: with the *global* sharded transaction id so a cross-shard
        #: commit's prepare/commit records correlate across shard WALs.
        self.wal_txn_id = txn_id
        #: Sharded-routing provenance (``None`` on unsharded managers): the
        #: slot-map epoch current when this child was opened.  The commit
        #: gate compares it against the live map and aborts writers whose
        #: buffered keys a slot flip has since re-homed (see
        #: :data:`repro.errors.ABORT_REBALANCE`).
        self.route_epoch: int | None = None
        #: Global snapshot vector (both ``None`` on unsharded managers).
        #: ``snapshot_guard`` is the sharded manager's
        #: :class:`~repro.core.snapshot.SnapshotCoordinator`; while set,
        #: every pinned ReadCTS is capped at the live cross-shard barrier.
        #: ``snapshot_cap`` freezes that cap once the transaction touches a
        #: second shard, making all shards read at one global vector.
        self.snapshot_cap: int | None = None
        self.snapshot_guard = None
        #: ``True`` when a ``ack="quorum"`` commit published without its
        #: replica quorum confirming in time (bounded degrade — see
        #: :class:`~repro.errors.ReplicaAckTimeout`).  The commit itself is
        #: durable and visible; the sharded manager surfaces the degraded
        #: acknowledgement *after* the commit is fully settled.
        self.ack_degraded = False

    # ----------------------------------------------------------- state sets

    def register_state(self, state_id: str) -> None:
        """Add ``state_id`` to the accessed-state list (flag = Active)."""
        with self._mutex:
            self.state_flags.setdefault(state_id, StateFlag.ACTIVE)

    def registered_states(self) -> list[str]:
        with self._mutex:
            return list(self.state_flags)

    def write_set_for(self, state_id: str) -> WriteSet:
        ws = self.write_sets.get(state_id)
        if ws is None:
            ws = self.write_sets[state_id] = WriteSet()
        return ws

    def read_set_for(self, state_id: str) -> ReadSet:
        rs = self.read_sets.get(state_id)
        if rs is None:
            rs = self.read_sets[state_id] = ReadSet()
        return rs

    # ------------------------------------------------------------ flag flow

    def flag(self, state_id: str, flag: StateFlag) -> None:
        """Set the per-state status flag (coordinator input)."""
        with self._mutex:
            self.state_flags[state_id] = flag

    def flags_snapshot(self) -> dict[str, StateFlag]:
        with self._mutex:
            return dict(self.state_flags)

    def all_flagged_commit(self) -> bool:
        with self._mutex:
            return bool(self.state_flags) and all(
                f is StateFlag.COMMIT for f in self.state_flags.values()
            )

    def any_flagged_abort(self) -> bool:
        with self._mutex:
            return any(f is StateFlag.ABORT for f in self.state_flags.values())

    # ------------------------------------------------------------ snapshots

    def snapshot_or_start(self, group_id: str) -> int:
        """Snapshot used for conflict checks: the pinned ReadCTS when the
        transaction read the group, else its begin timestamp (blind writes
        validate against everything committed after begin — strictly safe)."""
        return self.read_cts.get(group_id, self.start_ts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Transaction(id={self.txn_id}, status={self.status.value}, "
            f"states={list(self.state_flags)})"
        )
