"""The transaction manager — the library's primary facade.

Ties together the state context, a concurrency-control protocol, the
group-commit coordinator and garbage collection behind one object::

    mgr = TransactionManager(protocol="mvcc")
    meas = mgr.create_table("measurements")
    spec = mgr.create_table("specification")
    mgr.register_group("query1", ["measurements", "specification"])

    txn = mgr.begin()
    mgr.write(txn, "measurements", 7, {"power_kw": 1.5})
    mgr.write(txn, "specification", 7, {"max_kw": 3.0})
    mgr.commit(txn)                       # both states become visible together

    with mgr.snapshot() as view:          # ad-hoc reader
        row = view.multi_get(["measurements", "specification"], 7)

Stream operators use the finer-grained entry points (``commit_state`` /
``abort_state``) so each TO_TABLE operator can vote independently, exactly
as the consistency protocol of the paper prescribes.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from collections.abc import Iterator
from typing import Any

from ..errors import ABORT_USER, TransactionAborted
from ..storage.kvstore import KVStore
from .codecs import ORDERED_KEY_CODEC, PICKLE_CODEC, Codec
from .context import StateContext
from .durability import GroupFsyncDaemon
from .gc import GarbageCollector, GCPolicy
from .group_commit import GroupCommitCoordinator
from .isolation import IsolationLevel
from .protocol import ConcurrencyControl, make_protocol
from .snapshot import SnapshotView
from .table import RESIDENCY_FULL, StateTable
from .timestamps import TimestampOracle
from .transactions import Transaction
from .version_store import DEFAULT_SLOTS

# Importing the implementations registers them with the protocol registry.
from . import mvcc as _mvcc  # noqa: F401
from . import s2pl as _s2pl  # noqa: F401
from . import bocc as _bocc  # noqa: F401


class TransactionFacade:
    """The client helpers both managers share, written once over the
    manager's own ``begin`` / ``commit`` / ``abort``: each manager
    supplies only its snapshot view (:meth:`_snapshot_view`)."""

    def _snapshot_view(self, txn: Any) -> Any:
        raise NotImplementedError

    @contextmanager
    def transaction(self, states: list[str] | None = None) -> Iterator[Any]:
        """``with mgr.transaction() as txn:`` — commit on success, abort on
        error (including protocol-initiated aborts, which re-raise)."""
        txn = self.begin(states)
        try:
            yield txn
        except BaseException:
            if not txn.is_finished():
                self.abort(txn)
            raise
        else:
            if not txn.is_finished():
                self.commit(txn)

    @contextmanager
    def snapshot(self, isolation: IsolationLevel | None = None) -> Iterator[Any]:
        """Read-only view (auto-committed on exit).

        With the default isolation this is a stable snapshot; pass
        ``IsolationLevel.READ_COMMITTED`` / ``READ_UNCOMMITTED`` for the
        weaker FROM visibility levels of paper Section 3.
        """
        txn = self.begin(isolation=isolation)
        try:
            yield self._snapshot_view(txn)
        finally:
            if not txn.is_finished():
                self.commit(txn)

    def run_transaction(
        self,
        work: Any,
        states: list[str] | None = None,
        max_restarts: int = 100,
    ) -> Any:
        """Run ``work(txn)`` with automatic restart on conflict aborts.

        This is the standard OCC/MVCC client loop: conflict and validation
        aborts are transient, so the logical unit of work retries with a
        fresh transaction (and thus a fresh snapshot) until it commits.
        Returns ``work``'s result.
        """
        restarts = 0
        while True:
            txn = self.begin(states)
            try:
                result = work(txn)
                if not txn.is_finished():
                    self.commit(txn)
                return result
            except TransactionAborted:
                if not txn.is_finished():
                    self.abort(txn)
                restarts += 1
                if restarts > max_restarts:
                    raise
                if restarts >= 3:
                    # Jittered backoff: symmetric contenders (e.g. two S2PL
                    # upgrade-deadlock victims retrying in lock-step) can
                    # otherwise phase-lock into a livelock and burn the
                    # whole restart budget without progress.
                    time.sleep(random.uniform(0.0, min(5e-5 * restarts, 2e-3)))
            except BaseException:
                # Bug in work() (or KeyboardInterrupt): not retryable, but
                # the transaction must still release its locks/snapshots.
                if not txn.is_finished():
                    self.abort(txn)
                raise
            finally:
                txn.restarts = restarts


class TransactionManager(TransactionFacade):
    """Single-site facade over context + protocol + coordinator + GC.

    The client helpers ``transaction()``, ``snapshot()`` and
    ``run_transaction()`` come from :class:`TransactionFacade`, shared
    with :class:`~repro.core.sharding.ShardedTransactionManager`.
    """

    def __init__(
        self,
        protocol: str | ConcurrencyControl = "mvcc",
        context: StateContext | None = None,
        gc_policy: GCPolicy = GCPolicy.ON_DEMAND,
        gc_interval: int = 1000,
        oracle: TimestampOracle | None = None,
        durability_daemon: GroupFsyncDaemon | None = None,
        **protocol_kwargs: Any,
    ) -> None:
        if context is not None and oracle is not None:
            raise ValueError("pass either a context or an oracle, not both")
        self.context = context or StateContext(oracle=oracle)
        if isinstance(protocol, ConcurrencyControl):
            self.protocol = protocol
        else:
            self.protocol = make_protocol(protocol, self.context, **protocol_kwargs)
        # Commit durability pipeline: a batched-fsync daemon over a commit
        # WAL (see repro.core.durability), injected by the caller — the
        # sharded manager gives each shard its own.  Without one, commits
        # stay volatile.
        self.durability = durability_daemon
        self.protocol.durability = self.durability
        self.coordinator = GroupCommitCoordinator(self.context, self.protocol)
        self.gc = GarbageCollector(self.context, gc_policy, gc_interval)

    # ------------------------------------------------------------- schema

    def create_table(
        self,
        state_id: str,
        backend: KVStore | None = None,
        key_codec: Codec = ORDERED_KEY_CODEC,
        value_codec: Codec = PICKLE_CODEC,
        version_slots: int = DEFAULT_SLOTS,
        location: str = "",
        residency: str = RESIDENCY_FULL,
    ) -> StateTable:
        """Register a state and attach its transactional table."""
        self.context.register_state(state_id, location)
        table = StateTable(
            state_id,
            backend=backend,
            key_codec=key_codec,
            value_codec=value_codec,
            version_slots=version_slots,
            residency=residency,
        )
        self.protocol.attach_table(table)
        return table

    def register_group(self, group_id: str, state_ids: list[str]) -> None:
        """Declare that ``state_ids`` are written together by one topology."""
        self.context.register_group(group_id, state_ids)

    def table(self, state_id: str) -> StateTable:
        return self.protocol.table(state_id)

    def tables(self) -> list[StateTable]:
        return list(self.protocol.tables.values())

    # -------------------------------------------------------- transactions

    def begin(
        self,
        states: list[str] | None = None,
        isolation: IsolationLevel | None = None,
    ) -> Transaction:
        """Start a transaction; optionally pre-register participating states.

        Pre-registration matters for the consistency protocol: a stream
        query that will write states A and B must register both at BOT so an
        early ``commit_state(A)`` does not prematurely complete the global
        commit before B votes.

        ``isolation`` selects the read-visibility level (MVCC only; see
        :mod:`repro.core.isolation`); the default is snapshot isolation.
        """
        txn = self.context.begin(isolation=isolation)
        if states:
            for state_id in states:
                self.protocol.table(state_id)  # validates existence
                txn.register_state(state_id)
        self.protocol.on_begin(txn)
        return txn

    # data path -----------------------------------------------------------

    def read(self, txn: Transaction, state_id: str, key: Any) -> Any | None:
        return self.protocol.read(txn, state_id, key)

    def write(self, txn: Transaction, state_id: str, key: Any, value: Any) -> None:
        self.protocol.write(txn, state_id, key, value)

    def delete(self, txn: Transaction, state_id: str, key: Any) -> None:
        self.protocol.delete(txn, state_id, key)

    def scan(
        self, txn: Transaction, state_id: str, low: Any = None, high: Any = None
    ) -> Iterator[tuple[Any, Any]]:
        return self.protocol.scan(txn, state_id, low, high)

    # txn ending ----------------------------------------------------------

    def commit(self, txn: Transaction) -> int:
        """Commit all states of the transaction (query-centric shortcut)."""
        commit_ts = self.coordinator.commit_all(txn)
        self.gc.notify_commit(self.tables())
        return commit_ts

    def commit_state(self, txn: Transaction, state_id: str) -> bool:
        """Per-state commit vote (stream-operator entry point)."""
        done = self.coordinator.commit_state(txn, state_id)
        if done:
            self.gc.notify_commit(self.tables())
        return done

    def abort(self, txn: Transaction, reason: str = ABORT_USER) -> None:
        self.coordinator.abort_transaction(txn, reason)

    def abort_state(self, txn: Transaction, state_id: str, reason: str = ABORT_USER) -> None:
        self.coordinator.abort_state(txn, state_id, reason)

    def _snapshot_view(self, txn: Transaction) -> SnapshotView:
        return SnapshotView(self.protocol, txn)

    # maintenance ---------------------------------------------------------

    def collect_garbage(self) -> int:
        """Explicit context-wide GC sweep; returns reclaimed version count."""
        return self.gc.sweep(self.tables()).versions_reclaimed

    def flush_durability(self) -> int:
        """Force every enqueued commit record to stable storage.

        The crash-safety boundary for an ``mode="async"`` daemon: after this
        returns, every commit acknowledged so far is recoverable.  Returns
        the durable watermark (0 without a commit WAL).
        """
        return self.durability.flush() if self.durability is not None else 0

    def durable_watermark(self) -> int:
        """Highest commit-WAL sequence known durable (0 without a WAL)."""
        return self.durability.durable_watermark() if self.durability else 0

    def close(self) -> None:
        if self.durability is not None:
            self.durability.close()
        for table in self.tables():
            table.close()

    def stats(self) -> dict[str, int]:
        data = self.protocol.stats.snapshot()
        data["global_commits"] = self.coordinator.global_commits
        data["global_aborts"] = self.coordinator.global_aborts
        if self.durability is not None:
            data.update(self.durability.stats())
        return data
