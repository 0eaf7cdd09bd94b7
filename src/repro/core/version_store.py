"""Multi-version storage for queryable states (paper Section 4.1).

Each key of a transactional table maps to an :class:`MVCCObject`: a list
of version entries ``<[cts, dts], value>`` ordered by commit timestamp.
The paper stores them in a fixed-capacity array whose free slots a 64-bit
``UsedSlots`` word tracks with CAS; that layout suits lock-free C++, while
in CPython one plain list under the object's latch does the same job.  The
array width survives as ``capacity``, the version count that triggers
on-demand GC.

Version lifetime follows the textbook MVCC encoding: a version is alive for
snapshot timestamp ``ts`` iff ``cts <= ts < dts``; the live (most recent
committed) version has ``dts == INF_TS``.  Garbage collection reclaims
versions whose ``dts`` lies at or below the oldest snapshot any active
transaction could still read (``OldestActiveVersion``).  It runs *on
demand* — when an install finds the list at capacity, matching the paper's
"no free slot" trigger — and in table sweeps (:mod:`repro.core.gc`), which
visit only the arrays in their table's *GC pending set* (the arrays a
commit, load or fault-in gave a superseded version) whose oldest
superseded ``dts`` the sweep's horizon has reached.
:meth:`MVCCObject.sweep` is that visit — it collects and tells the sweep
the ``dts`` at which the array must be visited again.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from .timestamps import INF_TS

#: Default version count at which an install runs on-demand GC.  The
#: paper's Figure 3 bounds its version array by the 64-bit ``UsedSlots``
#: integer; eight is plenty for the benchmark workloads and keeps the
#: per-key footprint small.
DEFAULT_SLOTS = 8


@dataclass(slots=True)
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
    """The version list of a single key, oldest first.

    Installs and supersedes happen only inside the owning table's commit
    critical section; GC sweeps take only the object's micro-latch.  Reads
    are latch-free in the sense that they never *wait* for a writer — they
    take the micro-latch, which commit holds only for a pointer swing and
    an append, mirroring the paper's "reads are generally not blocked by
    writes" property.

    The list is ordered by ``cts`` with the newest version last, so the
    live version, if any, is the last entry.  That rests on one
    invariant: installs to one key arrive in ``cts`` order.  Commit
    timestamps are drawn while the written tables' commit latches are
    held (after prepare, in two-phase commit too), and every install
    outside a commit — a bulk load at ts 0, a recovery bootstrap, a
    handover, a migration purge's copy, a WAL-tail row — lands on a key
    with no newer version.

    ``capacity`` is the paper's fixed version-array width (Figure 3),
    kept as the count that triggers on-demand GC: an install into a full
    list first reclaims what no snapshot can read.  When that frees
    nothing (every version is still readable by some active snapshot) the
    list simply grows; committed data is never dropped.  The paper leaves
    this corner unspecified — RocksDB as the base table always retains
    the newest committed value — so growth-over-loss is the faithful
    conservative choice.
    """

    __slots__ = (
        "_versions",
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
        self._versions: list[VersionEntry] = []
        self._latch = threading.Lock()
        self.gc_count = 0
        #: Newest commit timestamp ever installed or deleted through this
        #: object — survives GC, so a lazy fault-in can tell "this key was
        #: written and the versions aged out" apart from "never touched".
        self.last_write_ts = 0
        #: Second-chance reference bit for residency eviction: a
        #: non-strict sweep clears it and re-queues the array at the tail.
        self.referenced = False

    # ------------------------------------------------------------ read side

    def read_at(self, ts: int) -> VersionEntry | None:
        """Return the version visible at snapshot ``ts`` (or ``None``).

        At most one version can be visible at any timestamp because version
        intervals ``[cts, dts)`` of one key never overlap: it is the newest
        version committed at or before ``ts``, if that one is not yet
        superseded at ``ts``.
        """
        self.referenced = True
        with self._latch:
            for version in reversed(self._versions):
                if version.cts <= ts:
                    return version if ts < version.dts else None
        return None

    def live_version(self) -> VersionEntry | None:
        """Return the newest committed version (``dts == INF``)."""
        self.referenced = True
        with self._latch:
            if self._versions and self._versions[-1].dts == INF_TS:
                return self._versions[-1]
        return None

    def latest_cts(self) -> int:
        """Timestamp of the newest commit that wrote this key (0 if none).

        Used by the First-Committer-Wins check: a writer whose snapshot is
        older than this must abort.  A committed delete counts as a write
        (``last_write_ts``), as does a version GC has since reclaimed.
        """
        with self._latch:
            if self._versions and self._versions[-1].cts > self.last_write_ts:
                return self._versions[-1].cts
            return self.last_write_ts

    def versions(self) -> list[VersionEntry]:
        """All stored versions, newest first (diagnostics and tests)."""
        with self._latch:
            out = list(self._versions)
        out.sort(key=lambda v: v.cts, reverse=True)
        return out

    def version_count(self) -> int:
        with self._latch:
            return len(self._versions)

    # ----------------------------------------------------------- write side

    def install(
        self, value: Any, commit_ts: int, oldest_active: int, clean: bool = False
    ) -> VersionEntry:
        """Install a new live version committed at ``commit_ts``.

        The previous live version (if any) is superseded: its ``dts`` becomes
        ``commit_ts``.  When the list already holds ``capacity`` versions,
        on-demand GC first reclaims every version dead to ``oldest_active``.
        ``clean`` says the base table already holds ``value`` (see
        :class:`VersionEntry`).  Returns the entry.
        """
        entry = VersionEntry(commit_ts, INF_TS, value, clean)
        with self._latch:
            if commit_ts > self.last_write_ts:
                self.last_write_ts = commit_ts
            self._supersede_live(commit_ts)
            if len(self._versions) >= self.capacity:
                self._collect_locked(oldest_active)
            self._versions.append(entry)
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
            if self._versions:
                return False
            dts = self.last_write_ts if self.last_write_ts > cts else INF_TS
            self._versions.append(VersionEntry(cts, dts, value, clean=True))
            return True

    def mark_dirty(self) -> None:
        """Clear the clean bit of every version: the base table no longer
        holds them (a migration purged the rows), so the array must stay
        resident until the process ends."""
        with self._latch:
            for version in self._versions:
                version.clean = False

    def evictable(self, horizon: int, strict: bool = False) -> bool:
        """Residency-eviction eligibility test (second chance).

        Versions dead at the GC ``horizon`` (``dts <= horizon``) are
        ignored: no active or future snapshot reads below the horizon.
        The array may be dropped from the version index iff exactly one
        version survives and it is live, clean and no newer than the
        horizon — then every snapshot that can still read the key reads
        that value, and a re-fault reads it back from the base table.
        Unless ``strict``, a set reference bit is cleared and buys the
        array one more visit: the sweep re-queues it at the tail of its
        eviction queue.
        """
        with self._latch:
            survivor: VersionEntry | None = None
            for version in self._versions:
                if version.dts <= horizon:
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
        if self._versions and self._versions[-1].dts == INF_TS:
            self._versions[-1].dts = commit_ts

    # ------------------------------------------------------------------- GC

    def collect(self, oldest_active: int) -> int:
        """Reclaim versions no snapshot >= ``oldest_active`` can see.

        Returns the number of reclaimed versions.  A version is dead iff its
        ``dts <= oldest_active`` *and* it is not the newest version visible
        at ``oldest_active`` (that one must survive as the snapshot's read
        target).
        """
        with self._latch:
            return self._collect_locked(oldest_active)

    def sweep(self, oldest_active: int) -> tuple[int, int | None]:
        """One GC-sweep visit: :meth:`collect`, then report the ``dts`` of
        the oldest superseded version that survived (``None`` if none) —
        the array stays in its table's GC pending set until a sweep's
        horizon reaches it.  Returns ``(reclaimed, oldest dts)``."""
        with self._latch:
            reclaimed = self._collect_locked(oldest_active)
            # Versions are in cts order and their intervals do not
            # overlap, so the first one has the smallest dts.
            if self._versions and self._versions[0].dts != INF_TS:
                return reclaimed, self._versions[0].dts
            return reclaimed, None

    def _collect_locked(self, oldest_active: int) -> int:
        # The version visible at oldest_active has dts > oldest_active, so
        # dts <= oldest_active alone is the correct death test.
        survivors = [v for v in self._versions if v.dts > oldest_active]
        reclaimed = len(self._versions) - len(survivors)
        if reclaimed:
            self._versions = survivors
            self.gc_count += 1
        return reclaimed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MVCCObject(capacity={self.capacity}, "
            f"versions={self.version_count()})"
        )
