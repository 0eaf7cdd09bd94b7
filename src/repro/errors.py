"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError` so
callers can catch everything library-specific with a single handler while
still distinguishing transaction-control outcomes (aborts, conflicts) from
programming errors (invalid state transitions, misuse of handles).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class TransactionError(ReproError):
    """Base class for transaction-control errors."""

    def __init__(self, message: str, txn_id: int | None = None) -> None:
        super().__init__(message)
        self.txn_id = txn_id


class TransactionAborted(TransactionError):
    """The transaction was aborted and must not perform further operations.

    The ``reason`` attribute carries a machine-readable cause, one of the
    ``ABORT_*`` constants below.
    """

    def __init__(
        self,
        message: str,
        txn_id: int | None = None,
        reason: str = "unknown",
    ) -> None:
        super().__init__(message, txn_id)
        self.reason = reason


#: Abort reasons carried by :class:`TransactionAborted`.
ABORT_WRITE_CONFLICT = "write-conflict"
ABORT_DEADLOCK = "deadlock"
ABORT_VALIDATION = "validation-failure"
ABORT_USER = "user-requested"
ABORT_GROUP = "group-abort"
ABORT_LOCK_TIMEOUT = "lock-timeout"
#: A slot-map flip moved a key this transaction buffered on its old home
#: shard; the work must restart against the new owner (retryable).
ABORT_REBALANCE = "slot-rebalance"


class WriteConflict(TransactionAborted):
    """First-Committer-Wins violation: a concurrent transaction committed a
    newer version of a key this transaction also wrote."""

    def __init__(self, message: str, txn_id: int | None = None) -> None:
        super().__init__(message, txn_id, reason=ABORT_WRITE_CONFLICT)


class ValidationFailure(TransactionAborted):
    """BOCC backward validation failed: the read set intersects the write set
    of a transaction that committed during this transaction's lifetime."""

    def __init__(self, message: str, txn_id: int | None = None) -> None:
        super().__init__(message, txn_id, reason=ABORT_VALIDATION)


class DeadlockDetected(TransactionAborted):
    """The lock manager chose this transaction as a deadlock victim."""

    def __init__(self, message: str, txn_id: int | None = None) -> None:
        super().__init__(message, txn_id, reason=ABORT_DEADLOCK)


class LockTimeout(TransactionAborted):
    """A lock request exceeded its timeout (treated as an abort to keep the
    system live under heavy contention)."""

    def __init__(self, message: str, txn_id: int | None = None) -> None:
        super().__init__(message, txn_id, reason=ABORT_LOCK_TIMEOUT)


class InvalidTransactionState(TransactionError):
    """An operation was attempted on a transaction in the wrong state, e.g.
    writing through a handle that already committed."""


class StateError(ReproError):
    """Base class for errors concerning registered states and topologies."""


class UnknownState(StateError):
    """A state id was referenced that is not registered in the context."""


class UnknownTopology(StateError):
    """A topology/group id was referenced that is not registered."""


class StorageError(ReproError):
    """Base class for storage-layer (LSM / WAL / SSTable) errors."""


class CorruptionError(StorageError):
    """A checksum mismatch or malformed record was found on disk."""


class WALError(StorageError):
    """The write-ahead log could not be appended to or replayed."""


class ReplicaAckTimeout(StorageError):
    """A ``ack="quorum"`` commit did not gather its replica quorum within
    the bounded ack timeout.

    The commit IS durable and visible on the primary — this is a degraded
    acknowledgement, not an abort: the transaction's effects survive a
    primary *process* crash, but the replica-loss guarantee the quorum
    policy promises was not confirmed in time.  Deliberately not a
    :class:`TransactionAborted` so generic retry loops do not re-run a
    transaction that already committed."""


class SnapshotTooOld(ReproError):
    """A read found no version at a timestamp GC may already have passed."""


class StreamError(ReproError):
    """Base class for stream-framework errors."""


class TopologyBuildError(StreamError):
    """The dataflow graph is malformed (cycles, missing inputs, ...)."""


class PunctuationError(StreamError):
    """Transaction punctuations arrived in an illegal order, e.g. COMMIT
    without a preceding BOT."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class BenchmarkError(ReproError):
    """A benchmark harness configuration is invalid."""
