"""Multi-version storage for queryable states (paper Section 4.1).

Each key of a transactional table maps to an :class:`MVCCObject`: a small,
fixed-capacity array of version entries ``<[cts, dts], value>`` whose free
slots are tracked by a ``UsedSlots`` bitmask (the paper implements it as a
64-bit integer updated with CAS; see
:class:`repro.core.timestamps.AtomicBitmask`).

Version lifetime follows the textbook MVCC encoding: a version is alive for
snapshot timestamp ``ts`` iff ``cts <= ts < dts``; the live (most recent
committed) version has ``dts == INF_TS``.  Garbage collection reclaims slots
whose ``dts`` lies at or below the oldest snapshot any active transaction
could still read (``OldestActiveVersion``).  It runs *on demand* — when an
insert finds no free slot, matching the paper's design — and in table
sweeps (:mod:`repro.core.gc`), which visit only the arrays in their
table's *GC pending set*: the arrays a commit, load or fault-in gave a
superseded version.  :meth:`MVCCObject.sweep` is that visit — it collects
and tells the sweep whether the array must stay pending.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain
from typing import Any

from .timestamps import INF_TS, AtomicBitmask

#: Default number of version slots per MVCC object.  The paper's Figure 3
#: bounds slots by the 64-bit ``UsedSlots`` integer; eight is plenty for the
#: benchmark workloads and keeps the per-key footprint small.
DEFAULT_SLOTS = 8


@dataclass
class VersionEntry:
    """One committed version: ``value`` valid during ``[cts, dts)``.

    ``clean`` means the base table holds exactly this value.  It is set
    where that value reaches the base table: a fault-in or full-scan
    bootstrap (read from it), a write-through commit, a bulk load, the
    WAL-tail hydration at open and a verified slot handover.  A clean
    live version is what makes an array safe to *evict*: dropping it and
    re-faulting later reads the same value back.
    """

    cts: int
    dts: int
    value: Any
    clean: bool = False

    def visible_at(self, ts: int) -> bool:
        """Snapshot-isolation visibility: ``cts <= ts < dts``."""
        return self.cts <= ts < self.dts

    def is_live(self) -> bool:
        return self.dts == INF_TS


class MVCCObject:
    """Fixed-capacity version array for a single key.

    Installs and supersedes happen only inside the owning table's commit
    critical section; GC sweeps take only the object's micro-latch.  Reads
    are latch-free in the sense that they never *wait* for a writer — they
    take a consistent point-in-time copy of the slot references under a
    micro-latch that commit holds only for pointer swings, mirroring the
    paper's "reads are generally not blocked by writes" property.

    When demand GC cannot reclaim a slot (every version is still readable by
    some active snapshot) the object grows an *overflow list*; committed
    data is never dropped.  The overflow drains back into slots on later GC
    passes.  The paper leaves this corner unspecified — RocksDB as the base
    table always retains the newest committed value — so growth-over-loss is
    the faithful conservative choice.
    """

    __slots__ = (
        "_slots",
        "_used",
        "_overflow",
        "_latch",
        "capacity",
        "gc_count",
        "last_write_ts",
        "referenced",
    )

    def __init__(self, capacity: int = DEFAULT_SLOTS) -> None:
        if capacity <= 0:
            raise ValueError(f"version capacity must be positive: {capacity}")
        self.capacity = capacity
        self._slots: list[VersionEntry | None] = [None] * capacity
        self._used = AtomicBitmask(capacity)
        self._overflow: list[VersionEntry] = []
        self._latch = threading.Lock()
        self.gc_count = 0
        #: Newest commit timestamp ever installed or deleted through this
        #: object — survives GC, so a lazy fault-in can tell "this key was
        #: written and the versions aged out" apart from "never touched".
        self.last_write_ts = 0
        #: Clock/second-chance reference bit for residency eviction.
        self.referenced = False

    # ------------------------------------------------------------ read side

    def read_at(self, ts: int) -> VersionEntry | None:
        """Return the version visible at snapshot ``ts`` (or ``None``).

        At most one version can be visible at any timestamp because version
        intervals ``[cts, dts)`` of one key never overlap.
        """
        self.referenced = True
        with self._latch:
            candidates = [v for v in self._slots if v is not None]
            candidates.extend(self._overflow)
        for version in candidates:
            if version.visible_at(ts):
                return version
        return None

    def live_version(self) -> VersionEntry | None:
        """Return the newest committed version (``dts == INF``)."""
        self.referenced = True
        with self._latch:
            for version in self._slots:
                if version is not None and version.is_live():
                    return version
            for version in self._overflow:
                if version.is_live():
                    return version
        return None

    def latest_cts(self) -> int:
        """Commit timestamp of the newest version ever installed (0 if none).

        Used by the First-Committer-Wins check: a writer whose snapshot is
        older than this must abort.
        """
        with self._latch:
            best = 0
            for version in self._slots:
                if version is not None and version.cts > best:
                    best = version.cts
            for version in self._overflow:
                if version.cts > best:
                    best = version.cts
            return best

    def versions(self) -> list[VersionEntry]:
        """All stored versions, newest first (diagnostics and tests)."""
        with self._latch:
            out = [v for v in self._slots if v is not None]
            out.extend(self._overflow)
        out.sort(key=lambda v: v.cts, reverse=True)
        return out

    def version_count(self) -> int:
        with self._latch:
            return sum(1 for v in self._slots if v is not None) + len(self._overflow)

    # ----------------------------------------------------------- write side

    def install(
        self, value: Any, commit_ts: int, oldest_active: int, clean: bool = False
    ) -> VersionEntry:
        """Install a new live version committed at ``commit_ts``.

        The previous live version (if any) is superseded: its ``dts`` becomes
        ``commit_ts``.  When no free slot exists, on-demand GC reclaims every
        slot dead to ``oldest_active``; if that frees nothing the new version
        goes to the overflow list.  ``clean`` says the base table already
        holds ``value`` (see :class:`VersionEntry`).  Returns the entry.
        """
        entry = VersionEntry(commit_ts, INF_TS, value, clean)
        with self._latch:
            if commit_ts > self.last_write_ts:
                self.last_write_ts = commit_ts
            self._supersede_live(commit_ts)
            slot = self._used.claim_free_slot()
            if slot is None:
                self._collect_locked(oldest_active)
                slot = self._used.claim_free_slot()
            if slot is None:
                self._overflow.append(entry)
            else:
                self._slots[slot] = entry
        return entry

    def mark_deleted(self, commit_ts: int) -> None:
        """Terminate the live version at ``commit_ts`` (a committed delete)."""
        with self._latch:
            if commit_ts > self.last_write_ts:
                self.last_write_ts = commit_ts
            self._supersede_live(commit_ts)

    def install_bootstrap(self, value: Any, cts: int) -> bool:
        """Install a base-table row as a bootstrap version (lazy fault-in).

        Racing-writer-safe and idempotent: the install happens only while
        the object holds **no** versions — any concurrently committed
        version (or an earlier fault-in) is newer/authoritative and wins,
        making a second hydration of the same key a no-op.  If a commit
        already wrote *through* this object (``last_write_ts``) while it
        is empty — a committed delete of a still-cold key, or versions
        that aged out past the GC horizon — the bootstrap entry is
        installed already-superseded at that timestamp, so the backend
        row the reader raced to fetch stays visible exactly for
        ``[cts, last_write_ts)`` and never resurrects the deleted key.

        Returns ``True`` iff a version was installed.
        """
        with self._latch:
            if self._overflow or any(v is not None for v in self._slots):
                return False
            dts = self.last_write_ts if self.last_write_ts > cts else INF_TS
            slot = self._used.claim_free_slot()
            if slot is None:  # pragma: no cover - fresh objects have slots
                return False
            self._slots[slot] = VersionEntry(cts, dts, value, clean=True)
            return True

    def mark_dirty(self) -> None:
        """Clear the clean bit of every version: the base table no longer
        holds them (a migration purged the rows), so the array must stay
        resident until the process ends."""
        with self._latch:
            for version in chain(self._slots, self._overflow):
                if version is not None:
                    version.clean = False

    def evictable(self, horizon: int, strict: bool = False) -> bool:
        """Residency-eviction eligibility test (clock/second-chance).

        Versions dead at the GC ``horizon`` (``dts <= horizon``) are
        ignored: no active or future snapshot reads below the horizon.
        The array may be dropped from the version index iff exactly one
        version survives and it is live, clean and no newer than the
        horizon — then every snapshot that can still read the key reads
        that value, and a re-fault reads it back from the base table.
        Unless ``strict``, a set reference bit buys the array one more
        clock sweep.
        """
        with self._latch:
            survivor: VersionEntry | None = None
            for version in chain(self._slots, self._overflow):
                if version is None or version.dts <= horizon:
                    continue
                if survivor is not None:
                    return False
                survivor = version
            if (
                survivor is None
                or not survivor.clean
                or not survivor.is_live()
                or survivor.cts > horizon
            ):
                return False
            if self.referenced and not strict:
                self.referenced = False
                return False
            return True

    def _supersede_live(self, commit_ts: int) -> None:
        for version in self._slots:
            if version is not None and version.is_live():
                version.dts = commit_ts
                return
        for version in self._overflow:
            if version.is_live():
                version.dts = commit_ts
                return

    # ------------------------------------------------------------------- GC

    def collect(self, oldest_active: int) -> int:
        """Reclaim versions no snapshot >= ``oldest_active`` can see.

        Returns the number of reclaimed versions.  A version is dead iff its
        ``dts <= oldest_active`` *and* it is not the newest version visible
        at ``oldest_active`` (that one must survive as the snapshot's read
        target).
        """
        with self._latch:
            return self._collect_locked(oldest_active)[0]

    def sweep(self, oldest_active: int) -> tuple[int, bool]:
        """One GC-sweep visit: :meth:`collect`, then say whether a
        superseded version (``dts`` below ``INF_TS``) survived — the
        array then stays in its table's GC pending set.  Returns
        ``(reclaimed, still_pending)``."""
        with self._latch:
            return self._collect_locked(oldest_active)

    def _collect_locked(self, oldest_active: int) -> tuple[int, bool]:
        # The version visible at oldest_active must be kept even if its
        # dts <= oldest_active can never happen (visibility needs dts > ts),
        # so dts <= oldest_active alone is the correct death test.
        reclaimed = 0
        superseded = False
        for slot, version in enumerate(self._slots):
            if version is None:
                continue
            dts = version.dts
            if dts <= oldest_active:
                self._slots[slot] = None
                self._used.release_slot(slot)
                reclaimed += 1
            elif dts != INF_TS:
                superseded = True
        if self._overflow:
            survivors: list[VersionEntry] = []
            for version in self._overflow:
                if version.dts <= oldest_active:
                    reclaimed += 1
                    continue
                if version.dts != INF_TS:
                    superseded = True
                slot = self._used.claim_free_slot()
                if slot is None:
                    survivors.append(version)
                else:
                    self._slots[slot] = version
            self._overflow = survivors
        if reclaimed:
            self.gc_count += 1
        return reclaimed, superseded

    def used_slots(self) -> int:
        return self._used.used_count()

    def overflow_len(self) -> int:
        with self._latch:
            return len(self._overflow)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MVCCObject(capacity={self.capacity}, used={self.used_slots()}, "
            f"overflow={self.overflow_len()})"
        )
