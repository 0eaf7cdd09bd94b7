"""Read-only snapshot views and the global snapshot service.

A :class:`SnapshotView` materialises the paper's reader-side contract: all
reads of an ad-hoc query observe *the same* completed group commit
(``LastCTS``), including across multiple states of one topology, and the
overlap rule picks the older version when topologies with different
``LastCTS`` are combined.

The view is a thin convenience wrapper over a transaction handle — it pins
snapshots through the normal protocol read path, so every isolation property
of the underlying protocol carries over.

:class:`SnapshotCoordinator` extends that contract across shards.  A
cross-shard 2PC decision publishes per-shard ``LastCTS`` watermarks one
shard at a time, so between the first and last publish a reader pinning
per-shard snapshots could observe half of an atomic transaction — a
*fractured read*.  The coordinator tracks every cross-shard commit from
the moment its timestamp is drawn until its last per-shard publish and
hands out a *barrier*: the newest timestamp at which no cross-shard
commit is mid-apply.  Reads capped at the barrier see every cross-shard
transaction either entirely or not at all.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from ..analysis import lockranks
from ..analysis.lockcheck import make_lock
from .protocol import ConcurrencyControl
from .timestamps import TimestampOracle
from .transactions import Transaction


class GlobalSnapshot:
    """Reified cross-shard read vector (diagnostics / API surface).

    ``cap`` is the global barrier the transaction's reads are capped at
    (``None`` until the vector is acquired on first touch of a second
    shard); ``vector`` maps shard index -> {group id -> pinned ReadCTS},
    i.e. the per-shard ReadCTS vector actually enforced on the read path.
    """

    __slots__ = ("cap", "vector")

    def __init__(self, cap: int | None, vector: dict[int, dict[str, int]]) -> None:
        self.cap = cap
        self.vector = vector

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GlobalSnapshot(cap={self.cap}, vector={self.vector})"


class _RegisteringOracle:
    """Timestamp-oracle facade that registers every drawn timestamp as an
    in-flight cross-shard commit.  Handed to
    :func:`~repro.core.durability.reserve_group_commit` so the reservation's
    commit-timestamp draw (taken while holding every participant daemon
    lock) is registered atomically with the draw; the coordinator lock is a
    leaf lock, so nesting it inside the daemon locks cannot deadlock."""

    __slots__ = ("_coordinator",)

    def __init__(self, coordinator: SnapshotCoordinator) -> None:
        self._coordinator = coordinator

    def next(self) -> int:
        return self._coordinator.begin_commit()


class SnapshotCoordinator:
    """Registry of in-flight cross-shard commits, source of the global
    read barrier.

    Contract:

    - :meth:`begin_commit` draws a commit timestamp from the shared oracle
      and registers it as in-flight, atomically under the coordinator lock
      (a *registering* marker is made visible **before** the draw).
    - :meth:`complete` unregisters the timestamp once every participant
      shard has published it into its ``LastCTS``.  A commit whose phase
      two fails part-way is deliberately **never** completed: the barrier
      stays pinned below its timestamp, so its partial apply remains
      invisible to capped readers forever.
    - :meth:`barrier` returns the newest timestamp ``b`` such that every
      cross-shard commit with ``cts <= b`` is fully published.  Fast path
      is lock-free; see the ordering argument inline.  The barrier is
      monotonically non-decreasing.
    """

    __slots__ = (
        "oracle",
        "_lock",
        "_inflight",
        "_registering",
        "registered",
        "completed",
        "barrier_fast_path",
        "barrier_slow_path",
    )

    def __init__(self, oracle: TimestampOracle) -> None:
        self.oracle = oracle
        # The snapshot ledger: a leaf below every daemon mutex (rank table
        # in docs/concurrency.md) — it nests only the oracle inside.
        self._lock = make_lock(lockranks.SNAPSHOT_LEDGER, name="snapshot-ledger")
        #: commit timestamps drawn but not yet fully published, ascending
        #: by construction (drawn under the lock from a monotone oracle).
        self._inflight: dict[int, bool] = {}
        #: count of registrations between marker and timestamp insertion;
        #: nonzero only while :meth:`begin_commit` holds the lock.
        self._registering = 0
        self.registered = 0
        self.completed = 0
        self.barrier_fast_path = 0
        self.barrier_slow_path = 0

    def begin_commit(self) -> int:
        """Draw and register a cross-shard commit timestamp."""
        with self._lock:
            # Marker BEFORE the draw: a lock-free barrier() that misses the
            # timestamp in _inflight either sees this marker (takes the
            # slow path) or read the oracle before the draw (the timestamp
            # is invisible at the value it returns).
            self._registering += 1
            cts = self.oracle.next()
            self._inflight[cts] = True
            self._registering -= 1
            self.registered += 1
        return cts

    def complete(self, cts: int) -> None:
        """Mark ``cts`` fully published on every participant shard."""
        with self._lock:
            if self._inflight.pop(cts, None) is not None:
                self.completed += 1

    def reserve_oracle(self) -> _RegisteringOracle:
        """Oracle facade whose ``next()`` registers the draw (for
        :func:`~repro.core.durability.reserve_group_commit`)."""
        return _RegisteringOracle(self)

    def barrier(self) -> int:
        """Newest timestamp at which no cross-shard commit is mid-apply.

        Lock-free fast path.  Read order matters and is load-bearing:

        1. ``cur = oracle.current()``
        2. check ``_registering == 0``
        3. check ``_inflight`` empty

        For any commit C (marker at Tm, draw at Td, insert at Ta, complete
        at Tc, with Tm < Td < Ta under the lock): if step 2 observed zero
        before Tm, then Td > (step 2) > (step 1), so C's timestamp exceeds
        ``cur`` — invisible at ``cur``.  If step 2 observed zero after C's
        registration finished, C was in ``_inflight`` by then, so step 3
        finding it empty means C already completed — fully published.
        Either way ``cur`` is safe.
        """
        cur = self.oracle.current()
        if self._registering == 0 and not self._inflight:
            self.barrier_fast_path += 1
            return cur
        with self._lock:
            self.barrier_slow_path += 1
            if not self._inflight:
                return self.oracle.current()
            return min(self._inflight) - 1

    def stats(self) -> dict[str, int]:
        return {
            "cross_shard_registered": self.registered,
            "cross_shard_completed": self.completed,
            "cross_shard_inflight": len(self._inflight),
            "barrier_fast_path": self.barrier_fast_path,
            "barrier_slow_path": self.barrier_slow_path,
        }


class SnapshotView:
    """Consistent read-only view of a set of states for one transaction."""

    def __init__(self, protocol: ConcurrencyControl, txn: Transaction) -> None:
        self._protocol = protocol
        self._txn = txn

    @property
    def txn(self) -> Transaction:
        return self._txn

    def get(self, state_id: str, key: Any) -> Any | None:
        """Snapshot point read."""
        return self._protocol.read(self._txn, state_id, key)

    def scan(
        self, state_id: str, low: Any = None, high: Any = None
    ) -> Iterator[tuple[Any, Any]]:
        """Snapshot range scan."""
        return self._protocol.scan(self._txn, state_id, low, high)

    def multi_get(self, state_ids: list[str], key: Any) -> dict[str, Any | None]:
        """Read the same key from several states under one snapshot.

        This is the paper's canonical consistency check: a stream query
        writing two states atomically must never expose one state's update
        without the other's to this call.
        """
        return {sid: self.get(sid, key) for sid in state_ids}

    def index_lookup(
        self, state_id: str, index_name: str, index_key: Any
    ) -> list[tuple[Any, Any]]:
        """Equality lookup through a secondary index, snapshot-consistent.

        Returns ``(primary_key, value)`` pairs whose indexed attribute
        equals ``index_key`` under this view's snapshot.  Values are read
        through the normal protocol path, so isolation carries over.
        """
        table = self._protocol.table(state_id)
        index = table.index(index_name)
        if self._txn.isolation.pins_snapshot and hasattr(
            self._protocol, "context"
        ) and self._protocol.name == "mvcc":
            group_id = self._protocol.context.state(state_id).group_id
            ts = self._protocol.context.pin_snapshot(self._txn, group_id)
            keys = index.lookup_at(index_key, ts)
        else:
            keys = index.lookup_live(index_key)
        out = []
        for key in keys:
            value = self._protocol.read(self._txn, state_id, key)
            if value is not None:
                out.append((key, value))
        return out

    def pinned_snapshots(self) -> dict[str, int]:
        """Group id -> pinned ReadCTS (diagnostics and tests)."""
        return dict(self._txn.read_cts)
