"""Background storage maintenance: flushes and compactions off the commit path.

The last inline storage stall after PRs 4–6 was ``LSMStore.put`` itself: a
writer that trips the memtable threshold runs ``flush`` (SSTable build)
and any cascading level merges on its own thread.  The
:class:`StorageMaintenanceDaemon` — the
:class:`~repro.core.sharding.CheckpointDaemon` worker-pool pattern applied
to the storage engine — takes both over for every LSM store in a fleet:

* a store in ``maintenance="background"`` mode performs only the cheap
  **seal pivot** on the writer's thread and enqueues the SSTable build
  here (:meth:`request_flush`);
* compaction requests (:meth:`request_compaction`) feed a debt scheduler:
  each dispatch scores every eligible ``(store, level)`` by L0/level debt
  (table count + bytes, via :meth:`LSMStore.compaction_debt`) and runs
  the **highest-debt merge first** — the merge that is stalling writers
  drains before cosmetic deep-level tidying;
* merges of different stores, and of disjoint level pairs within one
  store, run **concurrently** on the worker pool (the store's per-level
  locks are the only serialisation left — exactly what the bottom-level
  tombstone decision needs); the dispatcher never double-books a
  ``(store, level)`` pair, so workers don't queue up on one lock.

The daemon does flushes and compactions only.  A lazy table's residency
eviction is not its work: the base table already holds every evicted
value, so eviction is an index operation, and the faulting reader's
inline backstop (``StateTable.evict_cold_versions``) is its one path.

Requests coalesce (a trigger storm on one store collapses into one queue
entry).  Failures are counted, not fatal: a transient build error leaves
the sealed memtable and its WAL sidecar in place for a retry, and writers
parked on the store's stop trigger are bounded by their own stall timeout.

Lifecycle mirrors the checkpoint daemon: :meth:`suspend` quiesces one
store for a shard migration (pending work dropped, in-flight work waited
out, the store's backpressure disabled so replayed writes cannot park with
nobody draining); :meth:`close` drains pending *flushes* (sealed memtables
represent real unflushed data), drops pending compactions (cosmetic — the
next open re-triggers them), then joins with a bounded timeout so a wedged
fsync cannot hang shutdown.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from ..analysis import lockranks
from ..analysis.lockcheck import make_condition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .lsm import LSMStore

#: Upper bound on maintenance workers — beyond this, merges just queue on
#: the device anyway (same spirit as the checkpoint daemon's pool limit).
_WORKER_LIMIT = 8


class StorageMaintenanceDaemon:
    """Shared flush/compaction worker pool for a fleet of LSM stores."""

    def __init__(self, workers: int = 2, name: str = "storage-maintenance") -> None:
        #: Scheduler mutex/condition.  Ranked above the store locks (the
        #: debt ranking in :meth:`_pick_merge` takes each store's lock
        #: while holding it) but below the flush lock (``LSMStore.close``
        #: re-kicks the scheduler while holding ``_flush_lock``); workers
        #: release it before calling into a store.
        self._cond = make_condition(lockranks.MAINTENANCE, name="maintenance")
        #: Stores with sealed memtables awaiting their SSTable build.
        self._flush_pending: set[LSMStore] = set()
        #: Stores that may have levels at/over their compaction trigger.
        self._compact_pending: set[LSMStore] = set()
        #: Stores whose flush drain is running (one worker per store —
        #: builds serialise on the store's ``_flush_lock`` anyway).
        self._flush_active: set[LSMStore] = set()
        #: ``(store, level)`` merges in flight — the dispatcher never
        #: double-books a pair, so workers don't pile onto one level lock.
        self._merge_active: set[tuple[LSMStore, int]] = set()
        #: Stores quiesced for a shard migration.
        self._suspended: set[LSMStore] = set()
        self._closed = False
        #: How long :meth:`close` waits before abandoning the workers.
        self.join_timeout = 10.0
        # stats
        self.flushes = 0
        self.compactions = 0
        self.flush_failures = 0
        self.compaction_failures = 0
        self.last_error: BaseException | None = None  #: guarded_by(_cond)
        self._threads = [
            threading.Thread(target=self._run, name=f"{name}-{i}", daemon=True)
            for i in range(max(1, min(workers, _WORKER_LIMIT)))
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------- requests

    def register(self, store: "LSMStore") -> None:
        """Attach ``store`` to this daemon (background mode only takes
        effect if the store was opened with ``maintenance="background"``)."""
        store.attach_maintenance(self)

    def request_flush(self, store: "LSMStore") -> None:
        """Ask for ``store``'s sealed memtables to be built; coalesced,
        never blocks — this is the writer-side enqueue of the seal pivot."""
        with self._cond:
            if self._closed or store in self._suspended:
                return
            if store not in self._flush_pending:
                self._flush_pending.add(store)
                self._cond.notify_all()

    def request_compaction(self, store: "LSMStore") -> None:
        """Ask the scheduler to consider ``store``'s levels; coalesced."""
        with self._cond:
            if self._closed or store in self._suspended:
                return
            if store not in self._compact_pending:
                self._compact_pending.add(store)
                self._cond.notify_all()

    # ------------------------------------------------------------ lifecycle

    def suspend(self, store: "LSMStore", timeout: float = 30.0) -> None:
        """Quiesce maintenance of ``store`` (shard migrations call this the
        way they suspend auto-checkpoints): pending work is dropped,
        in-flight work is waited out (bounded), and the store's
        backpressure returns immediately until :meth:`resume` — replayed
        writes on a migrating shard must never park with nobody draining.
        """
        store.set_maintenance_paused(True)
        deadline = time.monotonic() + timeout
        with self._cond:
            self._suspended.add(store)
            self._flush_pending.discard(store)
            self._compact_pending.discard(store)
            while store in self._flush_active or any(
                s is store for s, _level in self._merge_active
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(remaining, 0.05))

    def resume(self, store: "LSMStore") -> None:
        """Lift a :meth:`suspend`; re-enqueues the store in case debt
        accumulated while it was quiesced."""
        with self._cond:
            self._suspended.discard(store)
        store.set_maintenance_paused(False)
        self.request_flush(store)
        self.request_compaction(store)

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until the queues are empty and no job is in flight.

        Checkpoint/close/test synchronisation point; ``False`` on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while (
                self._flush_pending
                or self._compact_pending
                or self._flush_active
                or self._merge_active
            ):
                wait_s = 0.1
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    wait_s = min(wait_s, remaining)
                self._cond.wait(wait_s)
        return True

    def close(self) -> bool:
        """Drain pending flushes, drop pending compactions, join (bounded).

        Returns ``True`` when every worker exited within ``join_timeout``;
        ``False`` means a build is wedged in a syscall and its daemonic
        worker was abandoned rather than hanging shutdown (the stores'
        own synchronous ``flush``/``close`` still guarantee durability).
        """
        with self._cond:
            self._closed = True
            # Compactions are droppable — reopening re-triggers them; the
            # flush queue drains below because sealed memtables are real
            # unflushed data and the manager's final checkpoint should not
            # have to rebuild them serially on the caller's thread.
            self._compact_pending.clear()
            self._cond.notify_all()
        deadline = time.monotonic() + self.join_timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        return not any(thread.is_alive() for thread in self._threads)

    # ------------------------------------------------------------ scheduler

    def _pick_merge(self) -> tuple["LSMStore", int] | None:
        """Highest-debt eligible ``(store, level)`` merge, or ``None``.

        Caller holds ``_cond``.  Stores with no remaining debt fall out of
        the pending set here; ``compaction_debt`` takes each store's lock
        briefly, which is safe under ``_cond`` (stores never call into the
        daemon while holding their own lock).
        """
        best: tuple[LSMStore, int] | None = None
        best_score = 0.0
        drained: list[LSMStore] = []
        for store in self._compact_pending:
            if store in self._suspended:
                drained.append(store)
                continue
            debt = store.compaction_debt()
            eligible = [
                (level, score)
                for level, score in debt
                if (store, level) not in self._merge_active
            ]
            if not debt:
                drained.append(store)
                continue
            for level, score in eligible:
                if score > best_score:
                    best, best_score = (store, level), score
        for store in drained:
            self._compact_pending.discard(store)
        return best

    def _run(self) -> None:
        while True:
            job: tuple[str, object] | None = None
            with self._cond:
                while job is None:
                    # Flushes first: sealed memtables stall writers (they
                    # count toward L0 debt) *and* pin WAL sidecars.  But a
                    # flush only turns a seal into an L0 table, and only a
                    # merge lowers the L0 debt: once another worker is
                    # flushing, a due merge goes before more flushes.
                    merge = self._pick_merge() if self._flush_active else None
                    if merge is not None:
                        self._merge_active.add(merge)
                        job = ("merge", merge)
                        break
                    flushable = [
                        s
                        for s in self._flush_pending
                        if s not in self._flush_active and s not in self._suspended
                    ]
                    if flushable:
                        store = max(flushable, key=lambda s: s.flush_debt())
                        self._flush_pending.discard(store)
                        self._flush_active.add(store)
                        job = ("flush", store)
                        break
                    merge = self._pick_merge()
                    if merge is not None:
                        self._merge_active.add(merge)
                        job = ("merge", merge)
                        break
                    if self._closed and not self._flush_pending:
                        self._cond.notify_all()
                        return
                    self._cond.wait(0.1 if self._closed else None)
            kind, payload = job
            if kind == "flush":
                store = payload
                try:
                    built = store.maintenance_flush()
                    with self._cond:
                        self.flushes += built
                except Exception as exc:
                    # Transient build error (e.g. ENOSPC): the seal and
                    # its WAL sidecar are still in place — count it and
                    # keep serving; the next trigger retries.
                    with self._cond:
                        self.flush_failures += 1
                        self.last_error = exc
                finally:
                    with self._cond:
                        self._flush_active.discard(store)
                        self._cond.notify_all()
                # The flush may have pushed L0 to its fanout trigger.
                if store.options.auto_compact:
                    self.request_compaction(store)
            else:
                store, level = payload
                try:
                    store.compact_level(level)
                    with self._cond:
                        self.compactions += 1
                except Exception as exc:
                    with self._cond:
                        self.compaction_failures += 1
                        self.last_error = exc
                finally:
                    with self._cond:
                        self._merge_active.discard((store, level))
                        self._cond.notify_all()
                # A merge into `level+1` may itself trip that level.
                self.request_compaction(store)

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict[str, int]:
        with self._cond:
            return {
                "maintenance_flushes": self.flushes,
                "maintenance_compactions": self.compactions,
                "maintenance_flush_failures": self.flush_failures,
                "maintenance_compaction_failures": self.compaction_failures,
                "maintenance_flush_queue": len(self._flush_pending)
                + len(self._flush_active),
                "maintenance_compact_queue": len(self._compact_pending)
                + len(self._merge_active),
            }
