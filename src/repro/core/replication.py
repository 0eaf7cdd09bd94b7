"""Per-shard replication: WAL-tail shipping to N replicas + failover state.

Composes machinery previous PRs built — the bounded commit WAL as the
shipping unit, checkpoint images as replica rebase points, the migration
copy/catch-up pipeline as replica bootstrap — into hot standby replicas a
``failover()`` can promote when a primary *machine* is lost:

* :class:`ShardReplica` — one standby copy of a shard.  Bootstrapped from
  an image of the primary's committed state (exactly migration's copy
  phase) written durably into its own replica WAL, then caught up from
  shipped commit-WAL deltas.  Each key is one
  :class:`~repro.core.version_store.MVCCObject` trimmed at the replica's
  floor.  Can be cold-loaded from its WAL after a primary crash (the
  promotion source).
* :class:`ReplicationDaemon` — the per-primary-shard shipping loop.  It
  consumes the :class:`~repro.core.durability.GroupFsyncDaemon`'s
  exactly-once durable-record feed (``set_on_durable``), buffers records
  by WAL sequence number, and ships **contiguous prefixes** to every
  replica on a background thread: batches can be delivered out of order
  across fsync leaders, but replicas only ever apply gap-free prefixes —
  together with the per-shard WAL-order == commit-timestamp-order
  invariant this makes the replica a totally-ordered log apply, so
  followers converge by construction (the Sun et al. framing in
  PAPERS.md) and the only consistency decision left is the ack policy.

Ack policies (see :mod:`repro.core.sharding` for the user-facing knob):
after a replica's WAL append succeeds the daemon confirms the batch to
the shard's ``GroupFsyncDaemon`` (``confirm_replica_durable``), advancing
the replica-durable watermark ``ack="quorum"`` commits gate their publish
on.

Failure discipline: transient ship/apply failures retry with bounded
jittered backoff (:func:`repro.faults.retry_with_backoff`); a replica
that exhausts its budget is marked *lagging* — excluded from quorum
accounting and follower reads, surfaced in ``stats()`` — instead of
wedging the primary.  A real replica-WAL append failure is never
retried: a torn frame would silently hide every later record from
replay (WAL replay stops at the first bad frame), so the replica goes
lagging immediately and must re-bootstrap.
"""

from __future__ import annotations

import pickle
import threading
import time
from pathlib import Path
from typing import Any, Callable

from ..analysis import lockranks
from ..analysis.lockcheck import make_lock
from ..faults import FaultInjector, retry_with_backoff
from ..storage.wal import KIND_CHECKPOINT, KIND_TXN_COMMIT, WriteAheadLog
from .durability import GroupFsyncDaemon, decode_commit_record
from .timestamps import INF_TS
from .version_store import MVCCObject
from .write_set import WriteKind

#: Replica-WAL frame kind wrapping one shipped primary commit-WAL record
#: (``seq || kind || payload``); private to this module's WAL files.
REPLICA_KIND_SHIPPED = 9

#: A bootstrap image: state id -> ``[(key, value)]`` at the image cut.
Image = dict[str, list[tuple[Any, Any]]]


def _encode_shipped(seq: int, kind: int, payload: bytes) -> bytes:
    return seq.to_bytes(8, "little") + kind.to_bytes(1, "little") + payload


def _decode_shipped(frame: bytes) -> tuple[int, int, bytes]:
    return int.from_bytes(frame[:8], "little"), frame[8], frame[9:]


class FollowerReadTs(int):
    """A follower-read timestamp that pins every replica floor at or
    below itself while referenced; arithmetic on it yields a plain
    ``int``."""

    def __new__(cls, ts: int, unpin: Callable[[], object]) -> "FollowerReadTs":
        pinned = super().__new__(cls, ts)
        pinned.unpin = unpin
        return pinned

    def __del__(self) -> None:
        self.unpin()


class ShardReplica:
    """One standby copy of a primary shard, durable in its own WAL.

    The WAL layout is ``[bootstrap marker, shipped frame, ...]``: the
    marker (kind ``KIND_CHECKPOINT``) carries the bootstrap image — the
    primary's committed state at one cut — plus the per-group ``LastCTS``
    floors and the primary-WAL sequence floor the image covers; every
    later frame is one shipped commit-WAL record.  Identical shape to the
    primary's own ``[checkpoint marker, tail...]`` WAL, so promotion
    replays it with the same idempotent-redo reasoning.

    Each key's versions are one :class:`MVCCObject` list.  Its on-demand
    GC trims at the *floor*: the image cut, raised before each applied
    batch to ``min(floor_hook(), applied_cts)`` — the follower-read
    horizon and every held :class:`FollowerReadTs`.  :meth:`read_at`
    serves ``floor <= ts <= applied_cts``.  :meth:`apply_batch` skips
    records at or below ``confirmed_seq``: a rebase racing a ship round
    leaves older frames after the new marker, and an install out of cts
    order would make a stale value live.
    """

    def __init__(self, path: str | Path, replica_id: int) -> None:
        self.path = Path(path)
        self.replica_id = replica_id
        self.path.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(self.path / "replica.wal", sync=True)
        #: Oldest timestamp reads are served at (the GC trim point).
        self.floor = 0
        #: The manager's follower-read floor; ``None`` on a cold-loaded
        #: replica, which serves no follower reads.
        self.floor_hook: Callable[[], int] | None = None
        #: group id -> LastCTS floor at the bootstrap cut.
        self.last_cts: dict[str, int] = {}
        #: Highest primary-WAL seq durable on this replica's WAL.
        self.confirmed_seq = 0
        #: Highest commit timestamp applied to the in-memory store; every
        #: commit with a smaller cts is applied too (prefix shipping +
        #: WAL-order == cts-order), so reads at ``ts <= applied_cts`` are
        #: complete snapshots.
        self.applied_cts = 0
        #: Retry budget exhausted — excluded from quorum and follower
        #: reads until re-bootstrapped.
        self.lagging = False
        #: state id -> key -> version list.
        self._objects: dict[str, dict[Any, MVCCObject]] = {}
        # Leaf below the replication daemon's own mutex (the ship loop
        # holds neither while appending to the replica WAL).
        self._lock = make_lock(
            lockranks.REPLICA, index=replica_id, name=f"replica[{replica_id}]"
        )

    # ------------------------------------------------------------ bootstrap

    def bootstrap(
        self, bootstrap_cts: int, last_cts: dict[str, int], image: Image, confirmed_seq: int
    ) -> None:
        """(Re)base this replica on a primary image (migration copy phase).

        Atomically rewrites the replica WAL to just the marker frame, then
        rebuilds the in-memory store from the image at ``bootstrap_cts``
        (cold rows of a lazy primary arrive the same way migration hands
        them over: frozen at the bootstrap cut).
        """
        marker = (bootstrap_cts, dict(last_cts), confirmed_seq, image)
        self.wal.reset_to([(KIND_CHECKPOINT, pickle.dumps(marker, pickle.HIGHEST_PROTOCOL))])
        self._install_image(*marker)

    def _install_image(
        self, bootstrap_cts: int, last_cts: dict[str, int], confirmed_seq: int, image: Image
    ) -> None:
        objects: dict[str, dict[Any, MVCCObject]] = {}
        for state_id, rows in image.items():
            table = objects[state_id] = {key: MVCCObject() for key, _ in rows}
            for key, value in rows:
                table[key].install(value, bootstrap_cts, bootstrap_cts)
        with self._lock:
            self.floor = bootstrap_cts
            self.last_cts = last_cts
            self.confirmed_seq = confirmed_seq
            self.applied_cts = bootstrap_cts
            self.lagging = False
            self._objects = objects

    @classmethod
    def load(cls, path: str | Path, replica_id: int) -> "ShardReplica":
        """Cold-open a replica from its WAL (the promotion source after a
        primary crash).  Replay stops at the first torn frame — exactly
        the durable prefix the primary was confirmed."""
        replica = cls(path, replica_id)
        for kind, frame in WriteAheadLog.replay(replica.wal.path):
            if kind == KIND_CHECKPOINT:
                replica._install_image(*pickle.loads(frame))
            elif kind == REPLICA_KIND_SHIPPED:
                replica.apply_batch([_decode_shipped(frame)])
        return replica

    # ----------------------------------------------------------- replication

    def append_batch(self, records: list[tuple[int, int, bytes]]) -> None:
        """Durably append shipped records (one fsync for the batch).

        Never retried by callers on failure: a torn frame hides every
        later frame from replay, so a failed append poisons this replica
        until re-bootstrap.
        """
        self.wal.append_many(
            (
                (REPLICA_KIND_SHIPPED, _encode_shipped(seq, kind, payload))
                for seq, kind, payload in records
            ),
            sync=True,
        )

    def apply_batch(self, records: list[tuple[int, int, bytes]]) -> None:
        """Fold appended records into the version lists, skipping those
        at or below ``confirmed_seq``.  Prepare votes stay unapplied: an
        undecided 2PC commit is resolved presumed-abort at promotion, like
        restart recovery (its decision ships as a regular commit record)."""
        # Outside the leaf lock: the hook reads the snapshot barrier.
        horizon = INF_TS if self.floor_hook is None else self.floor_hook()
        with self._lock:
            self.floor = max(self.floor, min(horizon, self.applied_cts))
            for seq, kind, payload in records:
                if seq <= self.confirmed_seq:
                    continue
                self.confirmed_seq = seq
                if kind != KIND_TXN_COMMIT:
                    continue
                record = decode_commit_record(payload)
                for state_id, entries in record.writes.items():
                    table = self._objects.setdefault(state_id, {})
                    for key, wkind, value in entries:
                        obj = table.get(key)
                        if WriteKind(wkind) is not WriteKind.DELETE:
                            if obj is None:
                                obj = table[key] = MVCCObject()
                            obj.install(value, record.commit_ts, self.floor)
                        elif obj is not None:
                            obj.mark_deleted(record.commit_ts)
                self.applied_cts = max(self.applied_cts, record.commit_ts)

    # ----------------------------------------------------------------- reads

    def read_at(self, state_id: str, key: Any, ts: int) -> tuple[bool, Any]:
        """Snapshot point read: ``(covered, value)``.  ``covered`` is
        ``False`` on a lagging replica or unless ``floor <= ts <=
        applied_cts``; ``value`` is ``None`` when absent or deleted."""
        with self._lock:
            if self.lagging or not self.floor <= ts <= self.applied_cts:
                return False, None
            obj = self._objects.get(state_id, {}).get(key)
            entry = None if obj is None else obj.read_at(ts)
            return True, None if entry is None else entry.value

    def live_items(self) -> dict[str, list[tuple[Any, Any, int]]]:
        """Promotion handover: per state, ``(key, value, cts)`` of the
        newest live (non-deleted) version of every key."""
        with self._lock:
            return {
                state_id: [
                    (key, entry.value, entry.cts)
                    for key, obj in table.items()
                    if (entry := obj.live_version()) is not None
                ]
                for state_id, table in self._objects.items()
            }

    def close(self) -> None:
        # a closed replica serves no follower reads; the hook is bound to
        # the manager that holds this replica
        self.floor_hook = None
        self.wal.close()


class ReplicationDaemon:
    """Asynchronous WAL-tail shipping from one primary shard to its
    replicas.

    ``ingest`` is installed as the shard ``GroupFsyncDaemon``'s
    ``on_durable`` callback: freshly durable records land in a seq-keyed
    buffer, and a background thread ships the contiguous prefix past each
    replica's confirmed watermark — append (durable) → apply (in-memory)
    → ``confirm_replica_durable`` (advances the quorum watermark commit
    publishes gate on).  Fault points ``ship`` and ``replica_apply`` fire
    per replica-batch around the two steps.
    """

    def __init__(
        self,
        shard_idx: int,
        daemon: GroupFsyncDaemon,
        replicas: list[ShardReplica],
        faults: FaultInjector | None = None,
        *,
        retry_attempts: int = 4,
        retry_deadline: float = 0.25,
        max_batch: int = 256,
    ) -> None:
        self.shard_idx = shard_idx
        self.daemon = daemon
        self.replicas = list(replicas)
        self.faults = faults if faults is not None else FaultInjector()
        self.retry_attempts = retry_attempts
        self.retry_deadline = retry_deadline
        self.max_batch = max_batch
        self._buffer: dict[int, tuple[int, bytes]] = {}
        # Effectively a leaf: the ship loop drops this before touching the
        # replica or the fsync daemon, and ``ingest`` runs in the daemon's
        # durable-feed callback *after* the daemon released its own mutex.
        self._lock = make_lock(
            lockranks.REPL_DAEMON,
            index=shard_idx,
            name=f"replication-daemon[{shard_idx}]",
        )
        self._work = threading.Condition(self._lock)
        self._stopped = False
        self.batches_shipped = 0
        self.records_shipped = 0
        self.ship_failures = 0
        self._thread = threading.Thread(
            target=self._ship_loop,
            name=f"replication-shard-{shard_idx}",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------- ingest

    def ingest(self, records: list[tuple[int, int, bytes]]) -> None:
        """Durable-record feed from the shard's fsync daemon.  Batches may
        arrive out of seq order across fsync leaders; the buffer reorders
        and the ship loop only ever takes gap-free prefixes."""
        with self._lock:
            if self._stopped:
                return
            for seq, kind, payload in records:
                self._buffer[seq] = (kind, payload)
            self._work.notify_all()

    # -------------------------------------------------------------- shipping

    def _next_run_locked(self, replica: ShardReplica) -> list[tuple[int, int, bytes]]:
        run: list[tuple[int, int, bytes]] = []
        seq = replica.confirmed_seq + 1
        while len(run) < self.max_batch:
            entry = self._buffer.get(seq)
            if entry is None:
                break
            run.append((seq, entry[0], entry[1]))
            seq += 1
        return run

    def _ship_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopped:
                    return
                pending = any(
                    not r.lagging and self._buffer.get(r.confirmed_seq + 1)
                    for r in self.replicas
                )
                if not pending:
                    self._work.wait(0.05)
                    continue
            self._ship_round()

    def _ship_round(self) -> None:
        for replica in self.replicas:
            if replica.lagging:
                continue
            with self._lock:
                run = self._next_run_locked(replica)
            if not run:
                continue
            if self._ship_to_replica(replica, run):
                with self._lock:
                    self.batches_shipped += 1
                    self.records_shipped += len(run)
        self._trim_buffer()

    def _ship_to_replica(
        self, replica: ShardReplica, run: list[tuple[int, int, bytes]]
    ) -> bool:
        """One replica-batch: fault-checked append + apply + confirm.

        The retry budget wraps only the fault-injection/preflight windows;
        a real WAL append failure is terminal for the replica (torn-frame
        hazard — see :meth:`ShardReplica.append_batch`).
        """
        def fire(point: str) -> None:
            retry_with_backoff(
                lambda: self.faults.fire(point, self.shard_idx, replica.replica_id),
                attempts=self.retry_attempts,
                deadline=self.retry_deadline,
            )

        try:
            fire("ship")
            replica.append_batch(run)
            fire("replica_apply")
        except Exception:
            self._mark_lagging(replica)
            return False
        replica.apply_batch(run)
        self.daemon.confirm_replica_durable(replica.replica_id, run[-1][0])
        return True

    def _mark_lagging(self, replica: ShardReplica) -> None:
        replica.lagging = True
        self.ship_failures += 1
        self.daemon.mark_replica_lagging(replica.replica_id)

    def _trim_buffer(self) -> None:
        """Drop buffered records every healthy replica confirmed.  Lagging
        replicas do not hold the buffer hostage — they re-bootstrap."""
        with self._lock:
            floor = min(
                (r.confirmed_seq for r in self.replicas if not r.lagging),
                default=INF_TS,
            )
            for seq in [s for s in self._buffer if s <= floor]:
                del self._buffer[seq]

    # ------------------------------------------------------------- control

    def wait_shipped(
        self, seq: int, timeout: float = 10.0, replica: ShardReplica | None = None
    ) -> bool:
        """Block until ``replica`` (or any healthy replica) confirmed
        ``seq``; ``False`` on timeout or when every candidate went
        lagging.  Used by live failover's catch-up drain."""
        deadline = time.monotonic() + timeout
        targets = [replica] if replica is not None else self.replicas
        while True:
            healthy = [r for r in targets if not r.lagging]
            if any(r.confirmed_seq >= seq for r in healthy):
                return True
            if not healthy or time.monotonic() >= deadline:
                return False
            time.sleep(0.002)

    def best_replica(self) -> ShardReplica | None:
        """Most-caught-up healthy replica (the promotion candidate)."""
        healthy = [r for r in self.replicas if not r.lagging]
        return max(
            healthy or self.replicas, key=lambda r: r.confirmed_seq, default=None
        )

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._work.notify_all()
        # a stopped loop ships nothing; the feed was also the fsync
        # daemon's only reference back to this daemon
        self.daemon.set_on_durable(None)
        self._thread.join(timeout=5.0)
        for replica in self.replicas:
            replica.close()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "replicas": len(self.replicas),
                "lagging_replicas": sum(1 for r in self.replicas if r.lagging),
                "batches_shipped": self.batches_shipped,
                "records_shipped": self.records_shipped,
                "ship_failures": self.ship_failures,
                "ship_backlog": len(self._buffer),
            }


__all__ = [
    "FollowerReadTs",
    "ReplicationDaemon",
    "ShardReplica",
    "REPLICA_KIND_SHIPPED",
]
