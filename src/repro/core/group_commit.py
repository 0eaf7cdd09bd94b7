"""Consistency protocol for transactions spanning multiple states (§4.3).

When a continuous query updates several states, their changes must become
visible together.  The paper coordinates this through the state context:

* each arriving per-state commit sets that state's flag to ``Commit``;
* nothing is persisted until **all** states registered for the transaction
  are ready; the operator that sets the **last** flag becomes the
  *coordinator* and executes the global commit;
* one ``Abort`` flag aborts the transaction globally;
* readers observe only completed group commits through ``LastCTS``, which
  the commit path publishes at the very end.

This is the paper's lightweight variant of two-phase commit: the per-state
``Commit`` flags are the votes, the last voter doubles as coordinator, and
there is no separate prepare round-trip because all participants share one
process and one context.

Durability and acknowledgement.  When the protocol carries a commit WAL
(:mod:`repro.core.durability`), the coordinator's commit paths are gated by
the batched-fsync pipeline:

* ``durability="sync"`` — a commit is acknowledged (``mark_committed``
  returns to the caller) only after its commit record's batch is fsynced,
  and ``LastCTS`` is published only after that same barrier, so readers
  can never observe a commit a crash would lose.  Concurrent committers
  share one fsync instead of paying one each.
* ``durability="async"`` — the enqueue still happens but nobody waits: the
  commit is acknowledged (and made visible) immediately, and a background
  flusher makes batches durable within the flush interval.  Callers that
  need a crash-safety boundary use the daemon's ``flush()`` / durable
  watermark.

For cross-shard transactions, :meth:`GroupCommitCoordinator.prepare_all`
additionally logs a participant prepare record that is made durable before
the "yes" vote returns to the distributed coordinator (classic participant
logging), so a crash between vote and global commit cannot lose the redo
image.
"""

from __future__ import annotations

import threading

from ..errors import ABORT_GROUP, ABORT_USER, TransactionAborted
from ..storage.wal import KIND_TXN_PREPARE
from .context import StateContext
from .durability import encode_prepare_record
from .protocol import ConcurrencyControl, PreparedCommit
from .transactions import (
    FLAG_ABORT,
    FLAG_COMMIT,
    TXN_COMMITTED,
    TXN_COMMITTING,
    Transaction,
)


class GroupCommitCoordinator:
    """Drives per-state commit/abort flags to a global outcome."""

    def __init__(self, context: StateContext, protocol: ConcurrencyControl) -> None:
        self.context = context
        self.protocol = protocol
        #: Guards the flag-inspection + outcome-decision step so exactly one
        #: operator observes "all flags Commit" and becomes coordinator.
        #: The outcome counters are updated under the same mutex — plain
        #: ``+=`` is not atomic in CPython and the threaded stress tests
        #: drive many concurrent committers through here.
        self._decision_mutex = threading.Lock()
        self.global_commits = 0
        self.global_aborts = 0

    # ------------------------------------------------------------ votes

    def commit_state(self, txn: Transaction, state_id: str) -> bool:
        """Vote ``Commit`` for one state.

        Returns ``True`` when this call completed the global commit (the
        caller was the coordinating operator), ``False`` when the
        transaction still waits for other states' votes.

        Raises :class:`~repro.errors.TransactionAborted` (``ABORT_GROUP``)
        when another state voted ``Abort`` — before this vote, or racing
        it between the check below and the decision mutex — as the
        sharded manager does, and when this very vote triggers a
        validation failure during the global commit.
        """
        if txn.any_flagged_abort():
            raise self._group_aborted(txn)
        txn.ensure_active()
        txn.register_state(state_id)
        with self._decision_mutex:
            txn.flag(state_id, FLAG_COMMIT)
            if txn.any_flagged_abort():
                self._abort_locked(txn, ABORT_GROUP)
                raise self._group_aborted(txn)
            if not txn.all_flagged_commit():
                return False
            # This operator set the last flag: it coordinates.
            txn.status = TXN_COMMITTING
        try:
            commit_ts = self.protocol.commit_transaction(txn)
        except TransactionAborted as exc:
            with self._decision_mutex:
                txn.mark_aborted(exc.reason)
                self.global_aborts += 1
            self.context.finish(txn)
            raise
        except BaseException:
            self._finish_failed_commit(txn)
            raise
        with self._decision_mutex:
            txn.mark_committed(commit_ts)
            self.global_commits += 1
        self.context.finish(txn)
        return True

    @staticmethod
    def _group_aborted(txn: Transaction) -> TransactionAborted:
        return TransactionAborted(
            f"transaction {txn.txn_id} aborted globally (another state "
            "voted abort)",
            txn_id=txn.txn_id,
            reason=ABORT_GROUP,
        )

    def _finish_failed_commit(self, txn: Transaction) -> None:
        """Finalise a transaction whose commit died on a non-protocol error
        (e.g. the durability wait raised ``WALError``).  The commit never
        became visible — ``LastCTS`` was not published — so the handle is
        finished as aborted; without this, the transaction would stay in the
        active table and leak its bounded context slot.  A handle the
        protocol layer already finished (``IN_DOUBT`` when the commit
        record was enqueued and may be durable) keeps that status — only
        the context slot is released."""
        with self._decision_mutex:
            if not txn.is_finished():
                txn.mark_aborted(ABORT_GROUP)
                self.global_aborts += 1
        self.context.finish(txn)

    def abort_state(self, txn: Transaction, state_id: str, reason: str = ABORT_USER) -> None:
        """Vote ``Abort`` for one state — aborts the transaction globally."""
        if txn.is_finished():
            return
        with self._decision_mutex:
            txn.flag(state_id, FLAG_ABORT)
            self._abort_locked(txn, reason)

    def abort_transaction(self, txn: Transaction, reason: str = ABORT_USER) -> None:
        """Abort regardless of per-state flags (user rollback, errors)."""
        if txn.is_finished():
            return
        with self._decision_mutex:
            self._abort_locked(txn, reason)

    def _abort_locked(self, txn: Transaction, reason: str) -> None:
        if txn.is_finished():
            return
        self.protocol.abort_transaction(txn)
        txn.mark_aborted(reason)
        self.context.finish(txn)
        self.global_aborts += 1

    # -------------------------------------------------- cross-site two-phase

    def prepare_all(
        self, txn: Transaction, wait_vote: bool = True
    ) -> PreparedCommit:
        """Participant-side prepare for a distributed (cross-shard) commit.

        Flags every registered state ``Commit``, moves the transaction to
        ``COMMITTING`` and runs the protocol's prepare phase.  On success
        the returned handle pins every local commit resource and the caller
        owns the outcome: it must call :meth:`commit_prepared` with the
        globally chosen commit timestamp or :meth:`abort_prepared`.  On
        validation failure the transaction is finished as aborted here and
        the error propagates (the distributed coordinator then aborts the
        remaining participants).

        ``wait_vote=False`` enqueues the durable prepare record but skips
        its fsync barrier, handing the ticket to the caller on
        ``prepared.prepare_ticket``: a coordinator preparing N
        participants waits all the votes in one shared barrier *after*
        the last prepare (each shard's record rides its batch alongside
        the other shards', which fsync concurrently) instead of paying N
        serial barriers.  The recovery invariant is unchanged — every
        vote must be durable before the commit point — the caller just
        owes the wait before drawing the commit timestamp.
        """
        txn.ensure_active()
        with self._decision_mutex:
            for state_id in txn.registered_states():
                txn.flag(state_id, FLAG_COMMIT)
            txn.status = TXN_COMMITTING
        try:
            prepared = self.protocol.prepare_transaction(txn)
        except TransactionAborted as exc:
            with self._decision_mutex:
                txn.mark_aborted(exc.reason)
                self.global_aborts += 1
            self.context.finish(txn)
            raise
        self._log_prepare(txn, prepared, wait_vote)
        return prepared

    def _log_prepare(
        self, txn: Transaction, prepared: PreparedCommit, wait_vote: bool
    ) -> None:
        """Make the participant's prepare vote durable before it returns.

        A prepared participant has promised the distributed coordinator it
        can commit; its redo image therefore goes to this shard's commit
        WAL *before* the yes-vote (``sync`` mode blocks on the batch, async
        mode enqueues; ``wait_vote=False`` defers the block to the caller
        via ``prepared.prepare_ticket``).  A logging failure turns the
        vote into an abort — the pinned resources are released and the
        error propagates so the distributed coordinator aborts the
        remaining participants.
        """
        daemon = self.protocol.durability
        if daemon is None or not prepared.written:
            return
        try:
            ticket = daemon.submit(
                KIND_TXN_PREPARE, encode_prepare_record(txn.wal_txn_id, txn.write_sets)
            )
            if daemon.is_sync:
                if wait_vote:
                    ticket.wait()
                else:
                    prepared.prepare_ticket = ticket
        except BaseException:
            self.protocol.abort_prepared(txn, prepared)
            with self._decision_mutex:
                txn.mark_aborted(ABORT_GROUP)
                self.global_aborts += 1
            self.context.finish(txn)
            raise

    def commit_prepared(
        self, txn: Transaction, prepared: PreparedCommit, commit_ts: int
    ) -> None:
        """Participant-side phase two: apply at ``commit_ts`` and finish."""
        try:
            self.protocol.commit_prepared(txn, prepared, commit_ts)
        except BaseException:
            self._finish_failed_commit(txn)
            raise
        with self._decision_mutex:
            txn.mark_committed(commit_ts)
            self.global_commits += 1
        self.context.finish(txn)

    def abort_prepared(
        self, txn: Transaction, prepared: PreparedCommit, reason: str = ABORT_GROUP
    ) -> None:
        """Back a prepared participant out (another participant failed)."""
        self.protocol.abort_prepared(txn, prepared)
        with self._decision_mutex:
            txn.mark_aborted(reason)
            self.global_aborts += 1
        self.context.finish(txn)

    # ------------------------------------------------------------ shortcut

    def commit_all(self, txn: Transaction) -> int:
        """Vote ``Commit`` for every registered state at once.

        Convenience for query-centric (ad-hoc) transactions where a single
        caller owns the whole transaction.  Read-only transactions (no
        registered states) commit trivially.
        """
        txn.ensure_active()
        states = txn.registered_states()
        if not states:
            # Read-only: still runs the protocol's commit step (BOCC must
            # validate reads; the others short-circuit cheaply).
            try:
                commit_ts = self.protocol.commit_transaction(txn)
            except TransactionAborted as exc:
                with self._decision_mutex:
                    txn.mark_aborted(exc.reason)
                    self.global_aborts += 1
                self.context.finish(txn)
                raise
            with self._decision_mutex:
                txn.mark_committed(commit_ts)
                self.global_commits += 1
            self.context.finish(txn)
            return commit_ts
        for state_id in states:
            self.commit_state(txn, state_id)
        if txn.status is not TXN_COMMITTED:  # pragma: no cover - guard
            raise TransactionAborted(
                f"transaction {txn.txn_id} did not reach a committed state",
                txn_id=txn.txn_id,
            )
        assert txn.commit_ts is not None
        return txn.commit_ts
