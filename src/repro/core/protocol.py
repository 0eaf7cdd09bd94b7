"""Abstract concurrency-control interface shared by MVCC, S2PL and BOCC.

The paper's evaluation compares its MVCC design against S2PL and BOCC with
"fundamentally the same consistency protocol for multiple states" — so the
reproduction factors the protocol surface into this ABC and the group-commit
coordinator (:mod:`repro.core.group_commit`) drives any implementation.

Per-operation contract (all raise :class:`~repro.errors.TransactionAborted`
subclasses when the protocol decides the transaction must die):

* :meth:`read` / :meth:`scan` — isolated reads;
* :meth:`write` / :meth:`delete` — buffered, atomically-applied mutations;
* :meth:`commit_transaction` — the whole-transaction commit step executed by
  the coordinating operator, covering validation, version installation,
  base-table persistence and ``LastCTS`` publication;
* :meth:`abort_transaction` — release every resource; never fails.

The commit step is factored into an explicit two-phase surface so that a
higher layer (the sharded manager in :mod:`repro.core.sharding`) can run a
distributed commit across several protocol instances:

* :meth:`prepare_transaction` — validate and pin every resource the commit
  needs (commit latches, validation sections); after it returns the commit
  can no longer fail locally;
* :meth:`commit_prepared` — install versions at an externally chosen commit
  timestamp, publish ``LastCTS``, release the pinned resources;
* :meth:`abort_prepared` — release the pinned resources without applying.

:meth:`commit_transaction` is the single-site composition of the two phases
and keeps its exact pre-refactor semantics.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ABORT_GROUP, StateError, UnknownState
from .context import StateContext
from .durability import DurabilityTicket, GroupFsyncDaemon, encode_commit_body
from .table import StateTable
from .transactions import Transaction


@dataclass
class ProtocolStats:
    """Counters every protocol maintains (benchmark plumbing)."""

    reads: int = 0
    writes: int = 0
    commits: int = 0
    aborts: int = 0
    conflicts: int = 0
    validations: int = 0
    lock_waits: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> dict[str, int]:
        data = {
            "reads": self.reads,
            "writes": self.writes,
            "commits": self.commits,
            "aborts": self.aborts,
            "conflicts": self.conflicts,
            "validations": self.validations,
            "lock_waits": self.lock_waits,
        }
        data.update(self.extra)
        return data


@dataclass
class PreparedCommit:
    """Resources pinned between a commit's prepare and finish phases.

    ``resources`` owns whatever the protocol latched during prepare (table
    commit latches, the BOCC validation section); closing it releases them.
    ``written`` is the sorted list of states with non-empty write sets —
    fixed at prepare time so both phases agree on the apply set.
    ``ticket`` is the durability handle of the enqueued commit record (set
    at timestamp-draw time when a commit WAL is attached): the commit path
    blocks on it *after* releasing the latches and *before* publishing
    ``LastCTS`` in ``sync`` mode.
    ``prepare_ticket`` is the durability handle of a 2PC participant's
    prepare record when the vote wait was deferred
    (``prepare_all(wait_vote=False)``): the distributed coordinator waits
    all participants' votes in one shared barrier instead of paying one
    serial fsync barrier per shard — the votes must all be durable before
    the commit point (the decision/commit records), not before the next
    participant's prepare.
    """

    written: list[str]
    resources: ExitStack
    ticket: DurabilityTicket | None = None
    prepare_ticket: DurabilityTicket | None = None


class ConcurrencyControl(abc.ABC):
    """Base class for the three concurrency-control engines."""

    #: Registry-facing protocol name ("mvcc", "s2pl", "bocc").
    name: str = "abstract"

    def __init__(self, context: StateContext) -> None:
        self.context = context
        self.tables: dict[str, StateTable] = {}
        self.stats = ProtocolStats()
        #: Commit durability pipeline (attached by the transaction manager
        #: when a commit WAL is configured).  ``None`` keeps the volatile
        #: pre-WAL behaviour: commits are acknowledged unlogged.
        self.durability: GroupFsyncDaemon | None = None
        #: Admission re-check for writing commits, invoked *after* prepare
        #: pins the commit latches and *before* the commit record is
        #: enqueued (attached by the sharded manager to its fence and
        #: slot-routing checks; receives the committing transaction).
        #: Raising aborts the prepared transaction cleanly.  Under the
        #: latches the check is race-free: a fence raised by a conflicting
        #: transaction's phase-two failure — or a slot-map flip, which
        #: holds every source-shard latch — happens before the conflicting
        #: party releases the latches this committer was blocked on.
        self.commit_gate: Callable[[Transaction], None] | None = None

    # ------------------------------------------------------------- plumbing

    def attach_table(self, table: StateTable) -> None:
        if table.state_id in self.tables:
            raise StateError(f"table {table.state_id!r} already attached")
        self.tables[table.state_id] = table

    def table(self, state_id: str) -> StateTable:
        table = self.tables.get(state_id)
        if table is None:
            raise UnknownState(f"no table attached for state {state_id!r}")
        return table

    def on_begin(self, txn: Transaction) -> None:
        """Hook invoked right after a transaction is created."""

    # ------------------------------------------------------------ data path

    @abc.abstractmethod
    def read(self, txn: Transaction, state_id: str, key: Any) -> Any | None:
        """Isolated point read (``None`` when invisible/absent)."""

    @abc.abstractmethod
    def scan(
        self, txn: Transaction, state_id: str, low: Any = None, high: Any = None
    ) -> Iterator[tuple[Any, Any]]:
        """Isolated range scan merged with the transaction's own writes."""

    @abc.abstractmethod
    def write(self, txn: Transaction, state_id: str, key: Any, value: Any) -> None:
        """Buffer an upsert."""

    @abc.abstractmethod
    def delete(self, txn: Transaction, state_id: str, key: Any) -> None:
        """Buffer a delete."""

    # ----------------------------------------------------------- txn ending

    def prepare_transaction(self, txn: Transaction) -> PreparedCommit:
        """Phase one of a commit: validate and pin all commit resources.

        On success the returned handle holds every latch/section the apply
        step needs, and the commit can no longer fail locally — the caller
        *must* follow up with :meth:`commit_prepared` or
        :meth:`abort_prepared`.  On validation failure the transaction is
        aborted, no resources stay pinned, and the validation error
        propagates.

        The default pins the written tables' commit latches (sorted order,
        deadlock-free) and validates nothing — correct for protocols whose
        conflicts are resolved before commit (S2PL's locks).  Protocols
        with a commit-time decision (MVCC's First-Committer-Wins, BOCC's
        backward validation) override this.
        """
        written = self._written_states(txn)
        stack = ExitStack()
        try:
            for state_id in written:
                stack.enter_context(self.table(state_id).commit_latch)
        except BaseException:  # pragma: no cover - latches cannot fail today
            stack.close()
            raise
        return PreparedCommit(written, stack)

    def commit_prepared(
        self, txn: Transaction, prepared: PreparedCommit, commit_ts: int
    ) -> None:
        """Phase two: install versions at ``commit_ts``, unpin, publish.

        The durability barrier sits between unpin and publish: the wait for
        the batched fsync runs *outside* the commit latches so concurrent
        committers pile up on the fsync daemon and share one fsync, and
        ``LastCTS`` is published only once the commit record is durable
        (``sync`` mode) — no reader snapshot can expose a commit a crash
        would lose.  Versions installed before the publish are invisible
        (readers pin snapshots from ``LastCTS``), so the early unpin does
        not leak the commit.

        Known tradeoff (redo-only design): versions are installed *before*
        the durability wait — the same buffer-before-WAL-flush order
        PostgreSQL uses — so if the WAL fails mid-wait, the installed
        versions have no undo path and stay in the table while the
        transaction is finished as aborted.  They remain invisible to
        snapshot readers (``LastCTS`` never advances over them), the
        daemon poisons itself so no later commit can sequence, and the
        engine is expected to be torn down and recovered from the WAL —
        only the weak non-pinning isolation levels can glimpse such
        versions in the failure window.
        """
        try:
            if prepared.written:
                oldest = self._gc_horizon(prepared.written)
                for state_id in prepared.written:
                    self.table(state_id).apply_write_set(
                        txn.write_sets[state_id], commit_ts, oldest
                    )
                self._await_durable(prepared, in_latch=True)
        except BaseException as exc:
            self._fail_unpublished_commit(txn, prepared, exc)
            raise
        finally:
            prepared.resources.close()
        self._finish_commit_publish(txn, prepared, commit_ts)

    def _fail_unpublished_commit(
        self, txn: Transaction, prepared: PreparedCommit, exc: BaseException
    ) -> None:
        """The enqueued commit record can no longer publish — its apply
        phase or its ``LastCTS`` publish failed.  The record may already be
        durable while the in-memory tables or ``LastCTS`` miss it, so the
        daemon is poisoned (no later commit may sequence past it, no
        checkpoint may truncate it) and the ticket's publish tracking is
        settled so the checkpoint quiesce
        (:meth:`~repro.core.durability.GroupFsyncDaemon.wait_publishes_drained`)
        is not left waiting on a publish that will never come.  The handle
        is finished ``IN_DOUBT``, never as a clean abort: recovery may find
        the record in a flushed batch and roll the transaction forward,
        contradicting an abort report the application already acted on.
        """
        ticket = prepared.ticket
        if ticket is not None:
            ticket.daemon.poison(exc)
            ticket.settle_publish()
            txn.mark_in_doubt(ABORT_GROUP)

    def _finish_commit_publish(
        self, txn: Transaction, prepared: PreparedCommit, commit_ts: int
    ) -> None:
        """Post-latch tail of phase two shared by the engines: durability
        barrier, ``LastCTS`` publish, and settling the ticket's publish
        tracking (checkpoints wait on that count — see
        :meth:`~repro.core.durability.GroupFsyncDaemon.wait_publishes_drained`).

        A *failed* publish must not simply settle: the commit record may
        be durable while ``LastCTS`` never advanced over it, so the daemon
        is poisoned — checkpoints and later commits fail fast instead of
        truncating the uncovered record, and the engine is recovered from
        the WAL.
        """
        ticket = prepared.ticket
        try:
            if prepared.written:
                self._await_durable(prepared, in_latch=False)
                # Replica-quorum gate (``ack="quorum"``): bounded wait for
                # enough replicas to confirm the record durable before the
                # visibility flip.  The wait NEVER raises — on timeout the
                # commit publishes anyway (it is locally durable; holding
                # it hostage to dead replicas would wedge the shard) and
                # the degraded acknowledgement is surfaced by the sharded
                # layer after the commit is fully settled.
                if (
                    ticket is not None
                    and not ticket.daemon.await_replica_quorum(ticket.seq)
                ):
                    txn.ack_degraded = True
                # Visibility flip: publish LastCTS after *all* states
                # applied and the commit record is on stable storage.
                self._publish(txn, commit_ts)
        except BaseException as exc:
            self._fail_unpublished_commit(txn, prepared, exc)
            raise
        if ticket is not None:
            ticket.settle_publish()
        self.stats.commits += 1

    def abort_prepared(self, txn: Transaction, prepared: PreparedCommit) -> None:
        """Back out of a prepared commit: unpin resources, abort the txn."""
        if prepared.ticket is not None:
            # The enqueued record will never publish; release the
            # checkpoint quiesce's publish tracking.
            prepared.ticket.settle_publish()
        prepared.resources.close()
        self.abort_transaction(txn)

    def commit_transaction(self, txn: Transaction) -> int:
        """Commit every buffered change atomically; returns the commit ts.

        Single-site composition of the two phases: prepare, draw the commit
        timestamp while the resources are pinned, apply.  Read-only
        transactions commit at the current clock without advancing it.
        """
        prepared = self.prepare_transaction(txn)
        try:
            if prepared.written:
                if self.commit_gate is not None:
                    self.commit_gate(txn)
                commit_ts = self._sequence_commit(txn, prepared)
            else:
                commit_ts = self.context.oracle.current()
        except BaseException:
            # The gate can refuse and the enqueue can fail (e.g. commit WAL
            # closed mid-flight); the pinned commit latches must not
            # outlive the failure.
            self.abort_prepared(txn, prepared)
            raise
        self.commit_prepared(txn, prepared, commit_ts)
        return commit_ts

    def _sequence_commit(self, txn: Transaction, prepared: PreparedCommit) -> int:
        """Draw the commit timestamp for a writing commit.

        With a durability pipeline attached, the draw and the commit-record
        enqueue happen atomically under the daemon mutex (WAL order equals
        commit-timestamp order per shard — the invariant that makes the
        post-fsync ``LastCTS`` publish safe); without one it is a plain
        oracle draw, as before.
        """
        if self.durability is None:
            return self.context.oracle.next()
        prepared.ticket = self.durability.submit_commit(
            self.context.oracle, encode_commit_body(txn.wal_txn_id, txn.write_sets)
        )
        assert prepared.ticket.commit_ts is not None
        return prepared.ticket.commit_ts

    def _await_durable(self, prepared: PreparedCommit, in_latch: bool = False) -> None:
        """Durability barrier: block until the commit record's batch is
        fsynced (``sync`` mode); a no-op for async mode and unlogged
        commits.  The barrier runs inside the commit latches only for the
        reference ``wait_in_latch`` configuration (fsync-per-commit under
        the latch, the paper's design) — the pipeline default waits after
        the latches are released."""
        ticket = prepared.ticket
        if (
            ticket is not None
            and ticket.daemon.is_sync
            and ticket.daemon.wait_in_latch == in_latch
        ):
            ticket.wait()

    @abc.abstractmethod
    def abort_transaction(self, txn: Transaction) -> None:
        """Drop buffered changes and release all protocol resources."""

    # --------------------------------------------------------------- common

    @staticmethod
    def _written_states(txn: Transaction) -> list[str]:
        """Sorted states with non-empty write sets (the commit's apply set)."""
        return sorted(sid for sid, ws in txn.write_sets.items() if ws)

    def _groups_of_states(self, state_ids: list[str]) -> list[str]:
        """Distinct group ids owning ``state_ids`` (ordered, deduplicated)."""
        seen: list[str] = []
        for state_id in state_ids:
            gid = self.context.group_id_of(state_id)
            if gid not in seen:
                seen.append(gid)
        return seen

    def _gc_horizon(self, written_states: list[str]) -> int:
        """Safe garbage-collection horizon for a commit's on-demand GC.

        Besides the oldest active snapshot, the horizon is capped by the
        smallest *published* ``LastCTS`` of the groups being written: a
        version superseded by a commit that has not published yet must
        survive, because a reader pinning right now still snapshots at the
        old ``LastCTS`` and may need it.
        """
        horizon = self.context.oldest_active_version()
        for group_id in self._groups_of_states(written_states):
            horizon = min(horizon, self.context.last_cts(group_id))
        return horizon

    def _publish(self, txn: Transaction, commit_ts: int) -> None:
        """Publish ``LastCTS`` for every group the transaction wrote.

        Runs **after** every member state's changes were applied — the
        consistency protocol's visibility point.
        """
        written_states = [sid for sid, ws in txn.write_sets.items() if ws]
        for group_id in self._groups_of_states(written_states):
            self.context.publish_group_commit(group_id, commit_ts)


#: Protocol registry: name -> factory taking the shared StateContext.
_REGISTRY: dict[str, Callable[[StateContext], ConcurrencyControl]] = {}


def register_protocol(
    name: str, factory: Callable[[StateContext], ConcurrencyControl]
) -> None:
    """Register a protocol factory under ``name`` (case-insensitive)."""
    _REGISTRY[name.lower()] = factory


def make_protocol(name: str, context: StateContext, **kwargs: Any) -> ConcurrencyControl:
    """Instantiate a registered protocol by name."""
    factory = _REGISTRY.get(name.lower())
    if factory is None:
        known = ", ".join(sorted(_REGISTRY))
        raise StateError(f"unknown protocol {name!r}; known: {known}")
    return factory(context, **kwargs)  # type: ignore[call-arg]


def protocol_names() -> list[str]:
    return sorted(_REGISTRY)
