"""Logical timestamps and the global atomic counter.

The paper (Section 4.1) generates *all* timestamps — transaction ids and
commit timestamps alike — from one global atomic counter, so the two share a
single total order.  CPython has no lock-free integers, so the oracle wraps a
plain counter in a mutex; the critical section is a single increment, which
keeps the oracle far away from being a bottleneck relative to everything else
a transaction does.

``INF_TS`` plays the role of an "infinite" deletion timestamp: a version with
``dts == INF_TS`` is the live (not yet superseded) version.
"""

from __future__ import annotations

from ..analysis import lockranks
from ..analysis.lockcheck import make_lock

#: Deletion timestamp of a live version ("infinity").  Any real timestamp
#: produced by the oracle is strictly smaller.
INF_TS: int = 2**63 - 1

#: Timestamp strictly smaller than anything the oracle produces.  Used as the
#: commit timestamp of bootstrap data so it is visible to every snapshot.
ZERO_TS: int = 0


class TimestampOracle:
    """Process-wide monotonic logical clock.

    Every call to :meth:`next` returns a fresh, strictly increasing integer.
    The first issued timestamp is ``1`` so that ``ZERO_TS`` (bootstrap data)
    is older than every transaction.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError(f"timestamp oracle cannot start below zero: {start}")
        # The innermost leaf of the lock-rank order (docs/concurrency.md):
        # everything that draws a timestamp may already hold its own locks.
        self._lock = make_lock(lockranks.ORACLE, name="oracle")
        self._value = start

    def next(self) -> int:
        """Return the next timestamp (atomically increments the counter)."""
        with self._lock:
            self._value += 1
            return self._value

    def current(self) -> int:
        """Return the most recently issued timestamp without advancing.

        Lock-free: reading an ``int`` attribute is atomic under the GIL and
        the counter is monotonic, so the worst outcome is a value that is a
        few ticks stale — indistinguishable from calling a moment earlier.
        (The commit hot path reads this several times per transaction.)
        """
        return self._value

    def advance_to(self, value: int) -> None:
        """Fast-forward the counter to at least ``value``.

        Used during recovery so timestamps issued after a restart are newer
        than everything found in the persisted context.
        """
        with self._lock:
            if value > self._value:
                self._value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimestampOracle(current={self.current()})"
