"""Garbage collection of obsolete versions (paper Section 4.1).

The paper cleans up old versions **on demand**: only when a new version
must be installed and the version array has no free slot.
:meth:`repro.core.version_store.MVCCObject.install` does that when a
key's version list already holds ``capacity`` versions, scoped to the
single object involved.  This module adds the complementary
maintenance sweep — a table- or context-wide collection pass — plus a
small policy object so benchmarks can compare on-demand with periodic
collection.

A sweep's work is proportional to the arrays it can reclaim from, not
to table size nor to the versions a held snapshot still pins.  Each table
keeps a *GC pending set* of the arrays that may hold a superseded version
(``dts`` below ``INF_TS``): every site that sets a ``dts`` — a commit's
upserts and deletes, a bulk load over an existing key, a slot handover or
purge install, a recovered WAL-tail row, a fault-in stamped
already-superseded — registers its key under the table's commit latch,
with a lower bound on that ``dts`` (a commit's own timestamp, else
``ZERO_TS``).  The registrations sit in a heap ordered by that bound, so
:meth:`repro.core.table.StateTable.collect_garbage` takes only the arrays
whose bound is at or below the horizon and stops at the first above it;
a sweep under a long-held snapshot visits nothing.  It collects each
array outside the latch and registers a survivor again at the exact
``dts`` of its oldest superseded version, so it reclaims exactly what a
walk over every resident array would.

Interplay with lazy residency (``StateTable(residency="lazy")``): a
*clean* version — the base table holds exactly its value, e.g. the copy
a read faulted in or a written-through commit — is live
(``dts == INF_TS``) until a writer supersedes it, so no GC sweep ever
collects it while it is an object's newest version; once superseded, its
``dts`` becomes the superseding commit's timestamp and the normal death
test (``dts <= OldestActiveVersion``) applies, which is exactly what a
capped cross-shard snapshot needs — the global horizon
(:meth:`~repro.core.sharding.ShardedTransactionManager._global_horizon`)
folds every shard's pins and the snapshot barrier in, so a faulted-in
version stays readable for as long as any snapshot that could still
resolve it exists.  *Residency eviction* is the separate, GC-adjacent
mechanism that drops a whole array back to backend-resident once its only
version not dead at the horizon is clean, live and at or below the
horizon — a never-written fault-in or a written key alike (same horizon
rule); it lives in
:meth:`repro.core.table.StateTable.evict_cold_versions`, removes the
array from the pending set with its index entry, never collects history,
and is invisible to readers — the next read faults the row back in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .context import StateContext
from .table import StateTable


class GCPolicy(Enum):
    """When version garbage is collected."""

    #: Only inside ``install`` when a key's version list is at capacity
    #: (the paper's "no free slot").
    ON_DEMAND = "on-demand"
    #: On-demand plus explicit sweeps every ``interval`` commits.
    PERIODIC = "periodic"


@dataclass
class GCReport:
    """Outcome of one collection sweep."""

    tables: int = 0
    objects_scanned: int = 0
    versions_reclaimed: int = 0
    oldest_active: int = 0


class GarbageCollector:
    """Context-wide version collector.

    The collection horizon is ``OldestActiveVersion`` — the oldest snapshot
    any active transaction may still read (see
    :meth:`repro.core.context.StateContext.oldest_active_version`).
    ``sweeps``, ``arrays_visited`` and ``total_reclaimed`` count every
    sweep's work (the managers' ``stats()`` report them).
    """

    def __init__(self, context: StateContext, policy: GCPolicy = GCPolicy.ON_DEMAND,
                 interval: int = 1000) -> None:
        self.context = context
        self.policy = policy
        self.interval = max(1, interval)
        self._commits_since_sweep = 0
        self.sweeps = 0
        self.arrays_visited = 0
        self.total_reclaimed = 0

    def sweep(self, tables: list[StateTable]) -> GCReport:
        """Collect every table's pending arrays against the current
        horizon; ``objects_scanned`` counts the arrays visited."""
        report = GCReport(oldest_active=self.context.oldest_active_version())
        for table in tables:
            visited, reclaimed = table.collect_garbage(report.oldest_active)
            report.tables += 1
            report.objects_scanned += visited
            report.versions_reclaimed += reclaimed
        self.sweeps += 1
        self.arrays_visited += report.objects_scanned
        self.total_reclaimed += report.versions_reclaimed
        self._commits_since_sweep = 0
        return report

    def notify_commit(self, tables: list[StateTable]) -> GCReport | None:
        """Periodic-policy hook: sweep every ``interval`` commits."""
        if self.policy is not GCPolicy.PERIODIC:
            return None
        self._commits_since_sweep += 1
        if self._commits_since_sweep >= self.interval:
            return self.sweep(tables)
        return None
