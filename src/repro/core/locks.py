"""Lock manager for the S2PL baseline (and generic latch helpers).

Implements hierarchical two-phase locking with the standard multi-granularity
modes — intention-shared (IS), intention-exclusive (IX), shared (S) and
exclusive (X) — over abstract resources (we use table-level and key-level
resources).  Grants are FIFO per resource: a request may not overtake an
earlier queued request it conflicts with, so a waiting writer blocks later
readers and a stream of readers cannot starve it (upgrades by a current
holder are the one exception — queueing them behind requests that wait for
the holder would deadlock).  Deadlocks are detected with a waits-for graph
derived from the live lock table at block time; the requester is the
victim.  A timeout provides a liveness backstop.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Hashable

from ..errors import DeadlockDetected, LockTimeout


class LockMode(Enum):
    """Multi-granularity lock modes."""

    IS = "IS"
    IX = "IX"
    S = "S"
    X = "X"


#: mode -> set of modes it is compatible with.
_COMPATIBLE: dict[LockMode, frozenset[LockMode]] = {
    LockMode.IS: frozenset({LockMode.IS, LockMode.IX, LockMode.S}),
    LockMode.IX: frozenset({LockMode.IS, LockMode.IX}),
    LockMode.S: frozenset({LockMode.IS, LockMode.S}),
    LockMode.X: frozenset(),
}

#: Partial order used for upgrades: a holder of ``stronger(a, b)`` already
#: covers the weaker request.
_STRENGTH: dict[LockMode, int] = {
    LockMode.IS: 0,
    LockMode.IX: 1,
    LockMode.S: 1,
    LockMode.X: 2,
}


def compatible(a: LockMode, b: LockMode) -> bool:
    """Whether two lock modes can be held concurrently by different txns."""
    return b in _COMPATIBLE[a]


def covers(held: LockMode, requested: LockMode) -> bool:
    """Whether an already-held mode subsumes a new request by the same txn."""
    if held is requested:
        return True
    if held is LockMode.X:
        return True
    if held is LockMode.S and requested is LockMode.IS:
        return True
    if held is LockMode.IX and requested is LockMode.IS:
        return True
    return False


@dataclass
class _ResourceLock:
    """Lock state of one resource: current holders and their modes, and
    the blocked requests in arrival order (txn id -> requested mode)."""

    holders: dict[int, LockMode] = field(default_factory=dict)
    queue: dict[int, LockMode] = field(default_factory=dict)


class LockManager:
    """Central lock table with deadlock detection.

    One global mutex + condition keeps the implementation simple and
    correct; the S2PL benchmarks run on the discrete-event simulator where
    lock waits are modelled separately, so this mutex is never the measured
    bottleneck.
    """

    def __init__(self, timeout: float = 10.0, deadlock_detection: bool = True) -> None:
        self.timeout = timeout
        self.deadlock_detection = deadlock_detection
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._locks: dict[Hashable, _ResourceLock] = {}
        self._held_by_txn: dict[int, set[Hashable]] = {}
        #: txn id -> the resource it is blocked on (queued there).
        self._blocked_on: dict[int, Hashable] = {}
        self.deadlocks = 0
        self.timeouts = 0
        self.waits = 0

    # -------------------------------------------------------------- acquire

    def acquire(
        self, txn_id: int, resource: Hashable, mode: LockMode, timeout: float | None = None
    ) -> bool:
        """Block until ``txn_id`` holds ``resource`` in (at least) ``mode``.

        Returns ``True`` when the caller had to wait for the grant, ``False``
        for wait-free grants (including already-covered re-requests).  Raises
        :class:`~repro.errors.DeadlockDetected` when granting would
        deadlock, or :class:`~repro.errors.LockTimeout` after ``timeout``.
        """
        deadline = time.monotonic() + (timeout if timeout is not None else self.timeout)
        with self._cond:
            lock = self._locks.get(resource)
            if lock is None:
                lock = self._locks[resource] = _ResourceLock()

            held = lock.holders.get(txn_id)
            if held is not None and covers(held, mode):
                return False

            waited = False
            try:
                while blockers := self._blockers(lock, txn_id, mode):
                    waited = True
                    if self.deadlock_detection and self._would_deadlock(
                        txn_id, blockers
                    ):
                        self.deadlocks += 1
                        raise DeadlockDetected(
                            f"txn {txn_id} requesting {mode.value} on "
                            f"{resource!r} would deadlock with {sorted(blockers)}",
                            txn_id=txn_id,
                        )
                    lock.queue.setdefault(txn_id, mode)
                    self._blocked_on[txn_id] = resource
                    self.waits += 1
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        self.timeouts += 1
                        raise LockTimeout(
                            f"txn {txn_id} timed out on {mode.value} {resource!r}",
                            txn_id=txn_id,
                        )
            except BaseException:
                # Requests queued behind this one may be grantable now.
                self._cond.notify_all()
                raise
            finally:
                if lock.queue.pop(txn_id, None) is not None:
                    del self._blocked_on[txn_id]

            self._grant(lock, txn_id, mode)
            self._held_by_txn.setdefault(txn_id, set()).add(resource)
            return waited

    @staticmethod
    def _blockers(lock: _ResourceLock, txn_id: int, mode: LockMode) -> set[int]:
        """The txns ``txn_id``'s request for ``mode`` waits for: conflicting
        holders and, unless it already holds the resource (an upgrade),
        conflicting requests queued ahead of it.  Empty means grantable."""
        blockers = {
            holder
            for holder, held_mode in lock.holders.items()
            if holder != txn_id and not compatible(held_mode, mode)
        }
        if txn_id not in lock.holders:
            for queued, wanted in lock.queue.items():
                if queued == txn_id:
                    break
                if not compatible(wanted, mode):
                    blockers.add(queued)
        return blockers

    @staticmethod
    def _grant(lock: _ResourceLock, txn_id: int, mode: LockMode) -> None:
        held = lock.holders.get(txn_id)
        if held is None or _STRENGTH[mode] > _STRENGTH[held] or (
            # S + IX both strength 1; holding one and requesting the other
            # escalates to X-equivalent SIX; we conservatively use X.
            held is not mode and _STRENGTH[mode] == _STRENGTH[held]
        ):
            if held is not None and held is not mode and _STRENGTH[mode] == _STRENGTH[held]:
                lock.holders[txn_id] = LockMode.X
            else:
                lock.holders[txn_id] = mode

    def _would_deadlock(self, requester: int, blockers: set[int]) -> bool:
        """DFS over waits-for: would ``requester -> blockers`` close a cycle?

        A blocked txn's edges are recomputed from the lock table, never
        cached: queue order and holders change while it sleeps, and a stale
        edge set reports cycles that no longer exist.
        """
        stack = list(blockers)
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node == requester:
                return True
            if node in seen:
                continue
            seen.add(node)
            resource = self._blocked_on.get(node)
            if resource is not None:
                lock = self._locks[resource]
                stack.extend(self._blockers(lock, node, lock.queue[node]))
        return False

    # -------------------------------------------------------------- release

    def release(self, txn_id: int, resource: Hashable) -> None:
        with self._cond:
            lock = self._locks.get(resource)
            if lock is not None and txn_id in lock.holders:
                del lock.holders[txn_id]
                if not lock.holders and not lock.queue:
                    del self._locks[resource]
            held = self._held_by_txn.get(txn_id)
            if held is not None:
                held.discard(resource)
                if not held:
                    del self._held_by_txn[txn_id]
            self._cond.notify_all()

    def release_all(self, txn_id: int) -> int:
        """Release every lock of ``txn_id``; returns how many were held."""
        with self._cond:
            resources = self._held_by_txn.pop(txn_id, set())
            for resource in resources:
                lock = self._locks.get(resource)
                if lock is not None:
                    lock.holders.pop(txn_id, None)
                    if not lock.holders and not lock.queue:
                        del self._locks[resource]
            if resources:
                self._cond.notify_all()
            return len(resources)

    # ---------------------------------------------------------- diagnostics

    def holders(self, resource: Hashable) -> dict[int, LockMode]:
        with self._mutex:
            lock = self._locks.get(resource)
            return dict(lock.holders) if lock is not None else {}

    def held_resources(self, txn_id: int) -> set[Hashable]:
        with self._mutex:
            return set(self._held_by_txn.get(txn_id, set()))

    def lock_count(self) -> int:
        with self._mutex:
            return len(self._locks)
