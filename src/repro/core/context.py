"""The global state context (paper Figure 3, right-hand side).

The context is the shared runtime directory every transactional component
consults:

* **States** — id and physical location of every registered state, plus the
  owning topology group.
* **Topologies** — groups of states written together by one stream query;
  each group records ``LastCTS``, the commit timestamp of the last completed
  group commit.  Readers derive their snapshots from it.  Recovery needs
  it persistent: the durable sharded manager's commit WAL records it
  (checkpoint markers plus the commit records of the tail).
* **Active transactions** — id, accessed states + flags, pinned ``ReadCTS``
  per group, keyed by transaction id.  The paper keeps them in slots
  claimed through a CAS-updated bit vector; a dict under the context lock
  is the CPython equivalent.

The paper's context is latch-free using atomic instructions; in CPython the
same interface is provided with fine-grained mutexes whose critical sections
are a handful of dictionary operations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from ..errors import StateError, UnknownState, UnknownTopology
from .isolation import IsolationLevel
from .timestamps import TimestampOracle
from .transactions import Transaction


@dataclass
class StateInfo:
    """Registry entry for one state (id + physical location + group)."""

    state_id: str
    location: str = ""
    group_id: str = ""


@dataclass
class GroupInfo:
    """A topology group: the states one stream query writes atomically."""

    group_id: str
    state_ids: list[str] = field(default_factory=list)
    #: Commit timestamp of the last *completed* group commit; readers pin
    #: their ReadCTS from this value.
    last_cts: int = 0


class StateContext:
    """Shared runtime directory of states, topologies and transactions."""

    def __init__(self, oracle: TimestampOracle | None = None) -> None:
        self.oracle = oracle or TimestampOracle()
        self._states: dict[str, StateInfo] = {}
        self._groups: dict[str, GroupInfo] = {}
        self._active: dict[int, Transaction] = {}
        self._lock = threading.Lock()
        #: Optional override for the GC horizon (attached by the sharded
        #: manager when the global snapshot service is on): a cross-shard
        #: reader's capped pin can be *older* than anything this context
        #: knows — the cap derives from a sibling shard's pin or from the
        #: snapshot coordinator's barrier — so the horizon must span every
        #: shard plus the barrier, not just the local active set.
        self.horizon_hook: Callable[[], int] | None = None

    # ----------------------------------------------------------- registries

    def register_state(self, state_id: str, location: str = "") -> StateInfo:
        """Register a state; it starts in an implicit singleton group."""
        with self._lock:
            if state_id in self._states:
                raise StateError(f"state {state_id!r} already registered")
            group_id = f"__singleton:{state_id}"
            info = StateInfo(state_id, location, group_id)
            self._states[state_id] = info
            self._groups[group_id] = GroupInfo(group_id, [state_id])
            return info

    def register_group(self, group_id: str, state_ids: list[str]) -> GroupInfo:
        """Group states written together by one topology.

        Each state leaves its previous group; its implicit singleton group
        is dissolved.  ``LastCTS`` of the new group starts at the max of the
        member states' previous groups so existing data stays visible.
        """
        with self._lock:
            if group_id in self._groups:
                raise StateError(f"group {group_id!r} already registered")
            if not state_ids:
                raise StateError("a topology group needs at least one state")
            inherited = 0
            for state_id in state_ids:
                info = self._states.get(state_id)
                if info is None:
                    raise UnknownState(f"state {state_id!r} is not registered")
                old = self._groups.get(info.group_id)
                if old is not None:
                    inherited = max(inherited, old.last_cts)
                    old.state_ids = [s for s in old.state_ids if s != state_id]
                    if not old.state_ids:
                        del self._groups[info.group_id]
                info.group_id = group_id
            group = GroupInfo(group_id, list(state_ids), inherited)
            self._groups[group_id] = group
            return group

    def state(self, state_id: str) -> StateInfo:
        with self._lock:
            info = self._states.get(state_id)
        if info is None:
            raise UnknownState(f"state {state_id!r} is not registered")
        return info

    def group(self, group_id: str) -> GroupInfo:
        with self._lock:
            group = self._groups.get(group_id)
        if group is None:
            raise UnknownTopology(f"group {group_id!r} is not registered")
        return group

    def group_of(self, state_id: str) -> GroupInfo:
        return self.group(self.state(state_id).group_id)

    def state_ids(self) -> list[str]:
        with self._lock:
            return list(self._states)

    def group_ids(self) -> list[str]:
        with self._lock:
            return list(self._groups)

    def groups_overlap(self, group_a: str, group_b: str) -> bool:
        """Two groups overlap when they share at least one state.

        (Groups produced by :meth:`register_group` are disjoint; overlap can
        arise when callers build custom group layouts for ad-hoc queries.)
        """
        a = set(self.group(group_a).state_ids)
        return any(s in a for s in self.group(group_b).state_ids)

    # --------------------------------------------------------- transactions

    def begin(self, isolation: "IsolationLevel | None" = None) -> Transaction:
        """Create and register a transaction (fresh timestamp).

        Timestamp draw and registration happen atomically under the
        context lock so no concurrent horizon computation (GC, BOCC log
        pruning) can slip between them and treat the new timestamp as
        already-inactive.
        """
        with self._lock:
            txn_id = self.oracle.next()
            txn = Transaction(txn_id, isolation or IsolationLevel.SNAPSHOT)
            self._active[txn_id] = txn
        return txn

    def finish(self, txn: Transaction) -> None:
        """Deregister a finished transaction."""
        with self._lock:
            self._active.pop(txn.txn_id, None)

    def active_transactions(self) -> list[Transaction]:
        with self._lock:
            return list(self._active.values())

    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    def oldest_active_version(self) -> int:
        """The oldest snapshot any active transaction may still read.

        Versions with ``dts <= oldest_active_version()`` are unreachable and
        eligible for garbage collection.  With no active transactions this
        is the current clock value (everything superseded is collectable).

        On a sharded manager with global snapshots the horizon spans every
        shard (``horizon_hook``); standalone contexts use the local scan.
        """
        if self.horizon_hook is not None:
            return self.horizon_hook()
        return self.local_oldest_active_version()

    def local_oldest_active_version(self) -> int:
        """This context's own horizon contribution.

        Runs on every writing commit (the GC horizon), so the scan is
        allocation-free: both the pinned snapshots and the begin timestamp
        bound what a transaction may still read (conservative horizon).
        A reader may pin a new snapshot (``pin_snapshot`` inserts into its
        own ``read_cts`` without this lock) mid-scan; CPython raises
        ``RuntimeError`` for the resize, and the scan simply retries.  A
        pin the scan misses is at or above that reader's ``start_ts``
        unless it is capped at the live cross-shard barrier; that case is
        covered by the barrier term of the sharded horizon (see
        ``ShardedTransactionManager._global_horizon``).
        """
        while True:
            oldest = self.oracle.current()
            try:
                with self._lock:
                    for txn in self._active.values():
                        if txn.start_ts < oldest:
                            oldest = txn.start_ts
                        for ts in txn.read_cts.values():
                            if ts < oldest:
                                oldest = ts
                return oldest
            except RuntimeError:
                continue

    # ------------------------------------------------------------ snapshots

    def pin_snapshot(self, txn: Transaction, group_id: str) -> int:
        """Pin (or return) the transaction's ReadCTS for ``group_id``.

        On the first read of a topology the current ``LastCTS`` is noted so
        every later read hits the same snapshot.  The paper's overlap rule
        is applied: when the new group overlaps an already-pinned group with
        an older pinned version, the older version wins, guaranteeing that
        the combined view corresponds to one global prefix of commits.

        Sharded children additionally cap every pin at the global
        cross-shard barrier — the frozen vector cap once the parent touched
        a second shard, else the live barrier from the snapshot
        coordinator — so no pin ever admits a cross-shard commit that is
        only partially published (see
        :class:`~repro.core.snapshot.SnapshotCoordinator`).
        """
        pinned = txn.read_cts.get(group_id)
        if pinned is not None:
            return pinned
        ts = self.group(group_id).last_cts
        for other_gid, other_ts in txn.read_cts.items():
            if other_ts < ts and self.groups_overlap(group_id, other_gid):
                ts = other_ts
        cap = txn.snapshot_cap
        if cap is None and txn.snapshot_guard is not None:
            # The live barrier can sit below this reader's ``start_ts``,
            # where the horizon scan does not cover it: publish a floor
            # before reading it (the ordering argument is in
            # ``ShardedTransactionManager._global_horizon``).
            txn.read_cts[group_id] = 0
            cap = txn.snapshot_guard.barrier()
        if cap is not None and cap < ts:
            ts = cap
        txn.read_cts[group_id] = ts
        return ts

    # ------------------------------------------------------- group LastCTS

    def group_id_of(self, state_id: str) -> str:
        """Lock-free group lookup for the commit hot path.

        A single dict read is atomic under the GIL and ``register_group``
        only ever swaps the ``group_id`` attribute, so the worst race is
        reading the pre-registration group — the same outcome as committing
        just before the registration.
        """
        info = self._states.get(state_id)
        if info is None:
            raise UnknownState(f"state {state_id!r} is not registered")
        return info.group_id

    def last_cts(self, group_id: str) -> int:
        """Current ``LastCTS`` of a group (lock-free read; publication is a
        monotonic max under the context lock, and a reader that misses an
        in-flight publish simply sees the previous prefix — exactly what a
        snapshot pinned a moment earlier would have seen)."""
        group = self._groups.get(group_id)
        if group is None:
            raise UnknownTopology(f"group {group_id!r} is not registered")
        return group.last_cts

    def publish_group_commit(self, group_id: str, commit_ts: int) -> None:
        """Atomically publish a completed group commit.

        Setting ``LastCTS`` is the linearisation point of the consistency
        protocol: before this call no reader can see any of the commit's
        changes, after it every *new* snapshot sees all of them.
        """
        group = self.group(group_id)
        with self._lock:
            if commit_ts > group.last_cts:
                group.last_cts = commit_ts

    def restore_last_cts(self, values: dict[str, int]) -> None:
        """Recovery entry point: restore persisted ``LastCTS`` values and
        fast-forward the oracle past them."""
        with self._lock:
            for group_id, ts in values.items():
                group = self._groups.get(group_id)
                if group is not None and ts > group.last_cts:
                    group.last_cts = ts
        if values:
            self.oracle.advance_to(max(values.values()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StateContext(states={len(self._states)}, groups={len(self._groups)}, "
            f"active={self.active_count()})"
        )
