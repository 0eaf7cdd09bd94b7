"""Per-shard commit durability pipeline: batched-fsync group commit.

The paper runs RocksDB with ``sync = true`` "to guarantee failure
atomicity", so every commit pays a full fsync before it is acknowledged,
and one shard can commit no faster than its device fsyncs.
This module decouples the commit critical section (timestamp assignment +
version install) from the durability wait, in the style of PostgreSQL's
``commit_delay`` and RocksDB's group WAL write:

* committers encode their transaction's redo image as a commit record and
  enqueue it on their shard's :class:`GroupFsyncDaemon`;
* the first waiter becomes the *leader*: it drains the queue, writes the
  whole batch through :meth:`~repro.storage.wal.WriteAheadLog.append_many`
  (one buffered write, one fsync) and wakes every follower;
* in ``sync`` mode ``LastCTS`` is published only after the batch is
  durable, so no reader snapshot ever exposes a commit a crash could lose.

Ordering invariant.  Commit timestamps are drawn *under the daemon mutex*
(:meth:`GroupFsyncDaemon.submit_commit`, and
:func:`reserve_group_commit` for cross-shard 2PC), which makes WAL order
equal commit-timestamp order per shard.  Batches are contiguous queue
prefixes, so when a record is durable every commit of that shard with a
smaller commit timestamp is durable too — publishing
``LastCTS = commit_ts`` after one's own record can therefore never expose
an earlier, still-volatile commit of the same shard.

``durability="async"`` acknowledges commits immediately: the enqueue still
happens (a background flusher drains the queue as records arrive), but
nobody waits.  Callers track crash-safety through the durable
watermark (:meth:`GroupFsyncDaemon.durable_watermark`) and can force the
remainder down with :meth:`GroupFsyncDaemon.flush`.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import time
from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..analysis import lockranks
from ..analysis.lockcheck import make_lock
from ..errors import WALError
from ..storage.wal import (
    KIND_CHECKPOINT,
    KIND_TXN_COMMIT,
    KIND_TXN_PREPARE,
    WriteAheadLog,
)
from .write_set import WriteKind, WriteSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .timestamps import TimestampOracle

#: Durability modes: ``sync`` acknowledges a commit only once its record's
#: batch is fsynced; ``async`` acknowledges immediately and lets the
#: background flusher catch up.
DURABILITY_SYNC = "sync"
DURABILITY_ASYNC = "async"
DURABILITY_MODES = (DURABILITY_SYNC, DURABILITY_ASYNC)

#: Fallback ``lock_index`` source for daemons built without an explicit
#: shard index (direct construction in tests / single-shard setups).  The
#: lock-rank checker requires same-rank locks to be taken in ascending
#: index order; :func:`reserve_group_commit` acquires participant daemons
#: sorted by shard, so shard-owned daemons use their shard index and
#: anonymous ones draw from far above any realistic shard count.
_ANON_DAEMON_INDEX = itertools.count(1 << 16)

#: How long an idle dedicated flusher sleeps between re-checks of its
#: queue (it is also woken by every enqueue, so this only bounds the
#: shutdown/poison latency).
_FLUSHER_IDLE_WAIT_S = 0.002


# --------------------------------------------------------------------------
# commit / prepare record encoding
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CommitLogRecord:
    """Decoded redo image of one committed transaction on one shard."""

    txn_id: int
    commit_ts: int
    #: state id -> [(key, write-kind value, value-or-None)]
    writes: dict[str, list[tuple[Any, str, Any]]]


@dataclass(frozen=True)
class PrepareLogRecord:
    """Decoded prepare vote of a 2PC participant (redo image, no ts yet)."""

    txn_id: int
    writes: dict[str, list[tuple[Any, str, Any]]]


@dataclass(frozen=True)
class CheckpointLogRecord:
    """Decoded checkpoint marker on a shard's commit WAL.

    Written after the shard's base tables were flushed to durable storage:
    every commit record *before* the marker is fully reflected in the LSM
    SSTables, so recovery replays only the records after the last marker.
    ``last_cts`` snapshots the shard's per-group ``LastCTS`` at the cut —
    the recovery floor for the group watermarks even when the context store
    lags (it is written unsynced on the hot path).
    """

    #: Highest commit timestamp covered by this checkpoint.
    checkpoint_ts: int
    #: group id -> LastCTS at the time of the cut.
    last_cts: dict[str, int]


def _encode_writes(write_sets: dict[str, WriteSet]) -> dict[str, list]:
    return {
        state_id: [
            (key, entry.kind.value, entry.value)
            for key, entry in write_set.entries.items()
        ]
        for state_id, write_set in write_sets.items()
        if write_set
    }


def encode_commit_body(txn_id: int, write_sets: dict[str, WriteSet]) -> bytes:
    """Serialise the timestamp-independent part of a commit record.

    The commit timestamp is prepended as a fixed 8-byte prefix at enqueue
    time (:func:`stamp_commit_record`): the expensive pickling then happens
    *outside* the daemon mutex, and only the 8-byte stamp is produced
    inside the draw+enqueue critical section.
    """
    return pickle.dumps(
        (txn_id, _encode_writes(write_sets)), protocol=pickle.HIGHEST_PROTOCOL
    )


def stamp_commit_record(commit_ts: int, body: bytes) -> bytes:
    """Prefix an encoded commit body with its commit timestamp."""
    return commit_ts.to_bytes(8, "little") + body


def encode_commit_record(
    txn_id: int, commit_ts: int, write_sets: dict[str, WriteSet]
) -> bytes:
    """Serialise a transaction's redo image for the commit WAL."""
    return stamp_commit_record(commit_ts, encode_commit_body(txn_id, write_sets))


def decode_commit_record(payload: bytes) -> CommitLogRecord:
    commit_ts = int.from_bytes(payload[:8], "little")
    txn_id, writes = pickle.loads(payload[8:])
    return CommitLogRecord(txn_id, commit_ts, writes)


def encode_prepare_record(txn_id: int, write_sets: dict[str, WriteSet]) -> bytes:
    return pickle.dumps(
        (txn_id, _encode_writes(write_sets)), protocol=pickle.HIGHEST_PROTOCOL
    )


def decode_prepare_record(payload: bytes) -> PrepareLogRecord:
    txn_id, writes = pickle.loads(payload)
    return PrepareLogRecord(txn_id, writes)


def encode_checkpoint_record(checkpoint_ts: int, last_cts: dict[str, int]) -> bytes:
    return pickle.dumps(
        (checkpoint_ts, dict(last_cts)), protocol=pickle.HIGHEST_PROTOCOL
    )


def decode_checkpoint_record(payload: bytes) -> CheckpointLogRecord:
    checkpoint_ts, last_cts = pickle.loads(payload)
    return CheckpointLogRecord(checkpoint_ts, last_cts)


def replay_commit_wal(
    path: str | os.PathLike[str],
) -> Iterator[CommitLogRecord | PrepareLogRecord | CheckpointLogRecord]:
    """Yield every intact commit/prepare/checkpoint record of a shard WAL.

    Torn tails end the iteration silently (WAL replay semantics); records
    of unknown kinds are skipped so the format can grow without breaking
    old readers.
    """
    for kind, payload in WriteAheadLog.replay(path):
        if kind == KIND_TXN_COMMIT:
            yield decode_commit_record(payload)
        elif kind == KIND_TXN_PREPARE:
            yield decode_prepare_record(payload)
        elif kind == KIND_CHECKPOINT:
            yield decode_checkpoint_record(payload)


def recovered_commits(path: str | os.PathLike[str]) -> list[CommitLogRecord]:
    """All durable commit records of one shard WAL, in WAL (= ts) order."""
    return [r for r in replay_commit_wal(path) if isinstance(r, CommitLogRecord)]


def commit_wal_tail(
    path: str | os.PathLike[str],
) -> tuple[CheckpointLogRecord | None, list[CommitLogRecord | PrepareLogRecord]]:
    """The records after the *last* intact checkpoint marker, plus the marker.

    This is recovery's unit of work: everything before the last marker is
    already reflected in the base tables (the checkpoint protocol flushes
    the LSM stores before writing the marker), so only the tail needs to be
    replayed.  A WAL without any marker returns ``(None, all records)`` —
    replay-from-the-beginning, which is correct because redo application is
    idempotent.  A *torn* marker at the very end simply does not count as a
    marker (its bytes fail the CRC), so the tail extends back to the
    previous cut — again correct, merely more work.
    """
    marker: CheckpointLogRecord | None = None
    tail: list[CommitLogRecord | PrepareLogRecord] = []
    for record in replay_commit_wal(path):
        if isinstance(record, CheckpointLogRecord):
            marker = record
            tail.clear()
        else:
            tail.append(record)
    return marker, tail


def apply_recovered_commit(
    record: CommitLogRecord | PrepareLogRecord,
) -> dict[str, WriteSet]:
    """Rebuild per-state :class:`WriteSet` objects from a decoded record
    (the redo step sharded recovery replays — also used to roll an
    in-doubt prepare forward once the coordinator's decision is known)."""
    write_sets: dict[str, WriteSet] = {}
    for state_id, entries in record.writes.items():
        ws = WriteSet()
        for key, kind, value in entries:
            if WriteKind(kind) is WriteKind.DELETE:
                ws.delete(key)
            else:
                ws.upsert(key, value)
        write_sets[state_id] = ws
    return write_sets


# --------------------------------------------------------------------------
# the daemon
# --------------------------------------------------------------------------


@dataclass
class DurabilityTicket:
    """Handle a committer holds between enqueue and the durability barrier."""

    daemon: "GroupFsyncDaemon"
    seq: int
    commit_ts: int | None = None
    #: ``True`` while the daemon counts this commit in its
    #: enqueued-but-not-yet-published set (set for records whose commit
    #: path will publish ``LastCTS``; see :meth:`settle_publish`).
    tracks_publish: bool = False

    @property
    def durable(self) -> bool:
        return self.daemon.durable_watermark() >= self.seq

    def wait(self, timeout: float | None = None) -> None:
        """Block until the record's batch is on stable storage."""
        self.daemon.wait_durable(self.seq, timeout=timeout)

    def settle_publish(self) -> None:
        """Tell the daemon this record's ``LastCTS`` publish is settled —
        either published (commit path) or abandoned (abort path).

        Idempotent.  Every ticket handed out by :meth:`submit_commit` /
        :func:`reserve_group_commit` must eventually settle, or
        :meth:`GroupFsyncDaemon.wait_publishes_drained` (the checkpoint
        quiesce) would wait on it until its timeout.
        """
        if self.tracks_publish:
            self.tracks_publish = False
            self.daemon._publish_settled(self.seq)


class GroupFsyncDaemon:
    """Leader/follower batched-fsync pipeline over one commit WAL.

    Committers :meth:`submit` an encoded record and (in ``sync`` mode)
    :meth:`wait_durable` on the returned ticket.  Whoever waits while no
    leader is active claims leadership: it optionally dwells
    ``batch_window`` seconds to let more committers pile on (PostgreSQL
    ``commit_delay``), then writes the drained prefix with a single fsync
    and wakes every follower.  With ``flusher=True`` a dedicated thread
    plays permanent leader (InnoDB log-writer style) and committers only
    ever wait.

    The daemon owns its WAL: :meth:`close` flushes the queue and closes the
    file (both idempotent).
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        mode: str = DURABILITY_SYNC,
        max_batch: int = 128,
        batch_window: float = 0.0,
        flusher: bool | None = None,
        wait_in_latch: bool = False,
        lock_index: int | None = None,
    ) -> None:
        if mode not in DURABILITY_MODES:
            raise ValueError(
                f"unknown durability mode {mode!r}; known: {DURABILITY_MODES}"
            )
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive: {max_batch}")
        self.wal = wal
        self.mode = mode
        self.max_batch = max_batch
        self.batch_window = batch_window
        #: Reference/ablation knob: ``True`` keeps the durability wait
        #: *inside* the table commit latches — the paper's ``sync = true``
        #: design point, where every commit's fsync serialises the whole
        #: commit critical section.  ``False`` (the async-group-commit
        #: pipeline) releases the latches first so concurrent committers
        #: pile up on the daemon and share fsyncs.  Benchmarks compare the
        #: two to isolate what the decoupling buys.
        self.wait_in_latch = wait_in_latch
        #: ``_lock`` guards the queue/counters (short critical sections
        #: only).  Durability waiters each park on their *own* event in
        #: ``_waiters`` — batch completion sets those outside the lock, so
        #: a batch of N wakes N threads without N serialised
        #: re-acquisitions of the mutex.  The flusher (when present)
        #: sleeps on ``_work`` until records arrive.
        #: ``lock_index`` orders same-rank daemon mutexes for the lock-rank
        #: checker: cross-shard reservation acquires participants in
        #: ascending shard order, so shard-owned daemons pass their shard
        #: index here.
        if lock_index is None:
            lock_index = next(_ANON_DAEMON_INDEX)
        self._lock = make_lock(
            lockranks.DAEMON, index=lock_index, name=f"fsync-daemon[{lock_index}]"
        )
        self._work = threading.Condition(self._lock)
        self._waiters: list[tuple[int, threading.Event]] = []
        self._pending: list[tuple[int, int, bytes]] = []
        self._leader_active = False
        self._next_seq = 1
        self._durable_seq = 0
        #: Sequence numbers of commit records drawn-and-enqueued whose
        #: ``LastCTS`` publish has not settled yet.  The publish runs
        #: *outside* the table commit latches, so a checkpoint that only
        #: quiesces the latches can race it —
        #: :meth:`wait_publishes_drained` closes that window (seq-aware:
        #: a background cut only needs the publishes of the records it
        #: truncates, not of the tail it keeps).
        self._unpublished: set[int] = set()
        #: Signals the checkpoint quiesce when the unpublished set drains
        #: (or the pipeline poisons).  Shares the daemon mutex.
        self._publish_cv = threading.Condition(self._lock)
        #: How long :meth:`wait_publishes_drained` waits before giving up
        #: (the publishes it waits for only need the already-completed
        #: flush plus the context lock, so seconds is generous).
        self.publish_drain_timeout = 5.0
        self._failure: BaseException | None = None
        self._closed = False
        #: Exactly-once durable-record feed for WAL-tail shipping: called
        #: with ``[(seq, kind, payload), ...]`` after a batch (or a checkpoint
        #: cut that absorbed pending records) made those records durable.
        #: Invoked *outside* the daemon mutex; batches may be delivered out
        #: of seq order across threads, so consumers buffer by seq (see
        #: :class:`repro.core.replication.ReplicationDaemon`).
        self._on_durable: (
            Callable[[list[tuple[int, int, bytes]]], None] | None
        ) = None
        #: Replica-ack state (``ack="quorum"``): replica id -> highest seq
        #: that replica confirmed durable.  ``_replica_quorum`` is the
        #: number of confirmations a publish must see (0 disables gating);
        #: ``_replica_durable_seq`` is the derived watermark — the
        #: ``quorum``-th highest confirmed seq, i.e. the newest record at
        #: least that many replicas hold durably.
        self._replica_seqs: dict[int, int] = {}
        self._replica_lagging: set[int] = set()
        self._replica_quorum = 0
        self._replica_ack_timeout = 5.0
        self._replica_durable_seq = 0
        self._replica_cv = threading.Condition(self._lock)
        # stats
        self.records_enqueued = 0
        self.batches = 0
        self.largest_batch = 0
        self.checkpoints = 0
        self.quorum_acks = 0
        self.replica_ack_timeouts = 0
        #: ``records_enqueued`` at the last checkpoint cut — the delta to
        #: the live counter is the replayable WAL tail length, which the
        #: sharded manager's auto-checkpoint trigger watches.
        self._records_at_checkpoint = 0
        # Async mode always needs the background flusher (nobody waits);
        # sync mode defaults to leader/follower batching but can opt into a
        # dedicated flusher thread (InnoDB-log-writer style): committers
        # then never burn time on leader election, the fsync chain runs
        # back-to-back on one thread, and the next batch forms while the
        # previous one is in flight.
        use_flusher = mode == DURABILITY_ASYNC if flusher is None else (
            flusher or mode == DURABILITY_ASYNC
        )
        self._flusher: threading.Thread | None = None
        if use_flusher:
            self._flusher = threading.Thread(
                target=self._flush_loop, name="group-fsync-flusher", daemon=True
            )
            self._flusher.start()

    # ------------------------------------------------------------- enqueue

    @property
    def is_sync(self) -> bool:
        return self.mode == DURABILITY_SYNC

    def _check_submittable_locked(self) -> None:
        """Reject enqueues on a closed or poisoned pipeline.  Fail fast
        once the WAL is poisoned: rejecting at enqueue time (before any
        versions are applied) keeps later transactions from installing
        changes that could never become durable.  Shared by
        :meth:`_submit_locked` and :func:`reserve_group_commit`'s
        all-or-nothing pre-flight, so the two can never drift."""
        if self._closed:
            raise WALError(f"submit on closed durability daemon ({self.wal.path})")
        if self._failure is not None:
            raise WALError(
                f"commit WAL {self.wal.path} has failed; daemon is poisoned"
            ) from self._failure

    def _submit_locked(self, kind: int, payload: bytes) -> DurabilityTicket:
        self._check_submittable_locked()
        seq = self._next_seq
        self._next_seq += 1
        self._pending.append((seq, kind, payload))
        self.records_enqueued += 1
        if self._flusher is not None:
            # Only the dedicated flusher sleeps on "work arrived".
            # Turnstile committers never need this signal — they flush for
            # themselves — and extra wakeups are pure GIL churn.
            self._work.notify()
        return DurabilityTicket(self, seq)

    def submit(self, kind: int, payload: bytes) -> DurabilityTicket:
        """Enqueue one encoded record; returns the ticket to wait on."""
        with self._lock:
            return self._submit_locked(kind, payload)

    def submit_commit(
        self, oracle: "TimestampOracle", body: bytes
    ) -> DurabilityTicket:
        """Atomically draw the commit timestamp and enqueue its record.

        Holding the daemon mutex across draw + enqueue is what makes WAL
        order equal commit-timestamp order on this shard (see the module
        docstring) — every commit of the shard must sequence through here
        (or through :func:`reserve_group_commit`).  ``body`` is the record
        from :func:`encode_commit_body`, pickled by the caller *outside*
        this mutex; only the cheap 8-byte timestamp stamp happens inside.
        """
        with self._lock:
            if self._closed:
                raise WALError(
                    f"submit on closed durability daemon ({self.wal.path})"
                )
            commit_ts = oracle.next()
            ticket = self._submit_locked(
                KIND_TXN_COMMIT, stamp_commit_record(commit_ts, body)
            )
            ticket.commit_ts = commit_ts
            ticket.tracks_publish = True
            self._unpublished.add(ticket.seq)
            return ticket

    # ------------------------------------------------------------- waiting

    def durable_watermark(self) -> int:
        """Highest sequence number known to be on stable storage."""
        with self._lock:
            return self._durable_seq

    def last_enqueued(self) -> int:
        with self._lock:
            return self._next_seq - 1

    def wait_durable(self, seq: int, timeout: float | None = None) -> None:
        """Block until ``seq`` is durable.

        Without a dedicated flusher the caller becomes the batch leader
        when nobody else is flushing — that thread performs the shared
        fsync for everyone queued behind it.  Followers park on a private
        per-wait event that the completing batch sets *outside* the daemon
        mutex, so a batch of N wakes N threads without N serialised
        re-acquisitions of the mutex (no thundering herd).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        event: threading.Event | None = None
        while True:
            # Lock-free fast path: the watermark is a monotonically
            # increasing int (its read is GIL-atomic), so observing
            # ``durable >= seq`` is conclusive without the mutex.  Commits
            # whose batch flushed while they were still applying write sets
            # skip the contended lock entirely.
            if self._durable_seq >= seq and self._failure is None:
                return
            with self._lock:
                if self._durable_seq >= seq:
                    return
                if self._failure is not None:
                    raise WALError(
                        f"commit WAL {self.wal.path} failed; record {seq} "
                        "cannot become durable"
                    ) from self._failure
                if self._closed:
                    raise WALError(
                        f"durability daemon closed before record {seq} was durable"
                    )
                lead = (
                    self._flusher is None
                    and not self._leader_active
                    and bool(self._pending)
                )
                if not lead and (event is None or event.is_set()):
                    event = threading.Event()
                    self._waiters.append((seq, event))
            if lead:
                self._lead_one_batch()
                continue
            wait_s = 0.05
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(f"record {seq} not durable within {timeout}s")
                wait_s = min(wait_s, remaining)
            event.wait(wait_s)

    def flush(self, timeout: float | None = None) -> int:
        """Force everything enqueued so far to stable storage.

        Returns the durable watermark after the flush (== the last sequence
        that was enqueued before the call).  Works in both modes; in
        ``async`` mode this is the API committers use before externalising
        an acknowledgement that must survive a crash.  ``timeout`` bounds
        the wait (:class:`TimeoutError` on expiry) — the background
        checkpoint daemon flushes with a deadline so a wedged device
        cannot park it inside a cut forever.
        """
        target = self.last_enqueued()
        if target:
            self.wait_durable(target, timeout=timeout)
        return target

    def _publish_settled(self, seq: int) -> None:
        with self._lock:
            self._unpublished.discard(seq)
            self._publish_cv.notify_all()

    @property
    def failed(self) -> bool:
        """``True`` once the pipeline is poisoned (WAL failure or a commit
        that could not apply/publish its durable record): submits, waits
        and checkpoints all fail fast."""
        with self._lock:
            return self._failure is not None

    def poison(self, exc: BaseException) -> None:
        """Mark the pipeline failed: submits, waits, checkpoints and
        publish drains all fail fast from here on.

        Used by commit paths whose *post-durability* step failed (the
        ``LastCTS`` publish raised, or the wait died on a closed daemon):
        the commit record may be durable while remaining invisible, so no
        later commit may sequence past it and no checkpoint may truncate
        it — the engine is expected to be torn down and recovered from
        the WAL.  Keeps the first failure; idempotent.
        """
        with self._lock:
            if self._failure is None:
                self._failure = exc
            ready = self._collect_ready_waiters_locked(self._failure)
            # Publish-drain waiters must also wake: their commits may
            # never publish now, and the drain fails fast on the poison.
            self._publish_cv.notify_all()
            self._replica_cv.notify_all()
        for ev in ready:
            ev.set()

    def wait_publishes_drained(
        self, timeout: float | None = None, up_to: int | None = None
    ) -> None:
        """Block until no enqueued commit record still awaits its
        ``LastCTS`` publish.

        The publish (the visibility flip) runs *after* the table commit
        latches are released, so a checkpoint that quiesced the latches and
        flushed the WAL can still observe a ``LastCTS`` snapshot that does
        not cover a record already durable in the WAL — and would truncate
        that record under a marker that cannot restore it.  This is the
        missing quiesce step: with the latches held no new record can
        enqueue, and the in-flight committers only need the (already
        completed) flush plus the context lock, so the set drains in
        bounded time.

        ``up_to`` waits only for records with ``seq <= up_to`` — the
        background cut needs the publishes of the prefix it *truncates*; the kept
        tail's commits may still be waiting on their durability barrier
        (the cut itself is what makes them durable), so waiting on them
        here would deadlock against the latches this caller holds.

        Raises :class:`~repro.errors.WALError` when the WAL has failed
        (those commits may never publish) or on timeout, so the checkpoint
        aborts instead of cutting an uncovered marker.
        """
        if timeout is None:
            timeout = self.publish_drain_timeout
        deadline = time.monotonic() + timeout
        with self._publish_cv:
            while True:
                if self._failure is not None:
                    raise WALError(
                        f"commit WAL {self.wal.path} failed with commits "
                        "still waiting to publish"
                    ) from self._failure
                waiting = (
                    len(self._unpublished)
                    if up_to is None
                    else sum(1 for seq in self._unpublished if seq <= up_to)
                )
                if waiting == 0:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WALError(
                        f"{waiting} commit(s) on {self.wal.path} "
                        f"did not publish LastCTS within {timeout}s; "
                        "checkpoint aborted"
                    )
                self._publish_cv.wait(remaining)

    # ------------------------------------------------------- replica acks

    def set_on_durable(
        self, callback: Callable[[list[tuple[int, int, bytes]]], None] | None
    ) -> None:
        """Install the exactly-once durable-record feed (WAL-tail ship)."""
        with self._lock:
            self._on_durable = callback

    def configure_replication(self, quorum: int, ack_timeout: float) -> None:
        """Set how many replica confirmations a publish must gather
        (``0`` disables the gate) and the bounded wait per commit."""
        with self._lock:
            self._replica_quorum = quorum
            self._replica_ack_timeout = ack_timeout
            self._replica_cv.notify_all()

    def register_replica(self, replica_id: int) -> None:
        """Announce a replica before it confirms anything (seq floor 0)."""
        with self._lock:
            self._replica_seqs.setdefault(replica_id, 0)

    def retire_replica(self, replica_id: int) -> None:
        with self._lock:
            self._replica_seqs.pop(replica_id, None)
            self._replica_lagging.discard(replica_id)
            self._recompute_replica_watermark_locked()

    def confirm_replica_durable(self, replica_id: int, seq: int) -> None:
        """A replica reports every record ``<= seq`` durable on its WAL.

        Monotonic per replica; heals a previously lagging replica.  Wakes
        quorum waiters whenever the derived watermark advances.
        """
        with self._lock:
            prev = self._replica_seqs.get(replica_id, 0)
            self._replica_seqs[replica_id] = max(prev, seq)
            self._replica_lagging.discard(replica_id)
            self._recompute_replica_watermark_locked()

    def mark_replica_lagging(self, replica_id: int) -> None:
        """Exclude a replica from the healthy set (retry budget exhausted).

        Quorum waiters re-check on the wakeup: with fewer healthy replicas
        than the quorum they degrade immediately instead of burning the
        full ack timeout on every commit.
        """
        with self._lock:
            if replica_id in self._replica_seqs:
                self._replica_lagging.add(replica_id)
            self._replica_cv.notify_all()

    def _recompute_replica_watermark_locked(self) -> None:
        quorum = self._replica_quorum
        if quorum <= 0:
            return
        confirmed = sorted(self._replica_seqs.values(), reverse=True)
        mark = confirmed[quorum - 1] if len(confirmed) >= quorum else 0
        if mark != self._replica_durable_seq:
            self._replica_durable_seq = mark
            self._replica_cv.notify_all()

    def replica_durable_watermark(self) -> int:
        """Highest seq confirmed durable by a replica quorum (0 when the
        ack policy is local or no quorum has formed yet)."""
        with self._lock:
            return self._replica_durable_seq

    def lagging_replicas(self) -> int:
        with self._lock:
            return len(self._replica_lagging)

    def await_replica_quorum(self, seq: int, timeout: float | None = None) -> bool:
        """Bounded wait for ``seq`` to reach the replica-durable watermark.

        Returns ``True`` when the quorum confirmed (or no quorum gate is
        configured), ``False`` on the bounded timeout or when fewer
        healthy replicas than the quorum remain (degrade fast — a dead
        replica set must not tax every commit with the full timeout).
        **Never raises**: this runs inside the commit publish path, where
        an exception would poison the durability pipeline for a commit
        that is already locally durable.
        """
        if self._replica_quorum <= 0:
            return True
        if timeout is None:
            timeout = self._replica_ack_timeout
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                if self._replica_quorum <= 0 or self._replica_durable_seq >= seq:
                    self.quorum_acks += 1
                    return True
                healthy = len(self._replica_seqs) - len(self._replica_lagging)
                degraded = (
                    healthy < self._replica_quorum
                    or self._failure is not None
                    or self._closed
                )
                remaining = deadline - time.monotonic()
                if degraded or remaining <= 0:
                    self.replica_ack_timeouts += 1
                    return False
                self._replica_cv.wait(min(remaining, 0.05))

    def _deliver_durable(self, records: list[tuple[int, int, bytes]]) -> None:
        """Feed freshly durable records to the ship callback (caller must
        NOT hold the daemon mutex)."""
        cb = self._on_durable
        if cb is not None and records:
            cb(records)

    # ---------------------------------------------------------- checkpoints

    def records_since_checkpoint(self) -> int:
        """Commit-WAL tail length in records (what recovery would replay)."""
        with self._lock:
            return self.records_enqueued - self._records_at_checkpoint

    @contextmanager
    def paused(self, timeout: float | None = None) -> Iterator[None]:
        """Hold the daemon mutex with no batch leader in flight.

        Inside the block no record can enqueue and no ``append_many`` is
        running, so the caller may atomically rewrite the WAL file
        (``reset_to``) without racing an append — the precondition
        ``reset_to`` documents.  Raises :class:`~repro.errors.WALError`
        if an in-flight batch does not finish within ``timeout``.
        """
        if timeout is None:
            timeout = self.publish_drain_timeout
        with self._lock:
            deadline = time.monotonic() + timeout
            while self._leader_active:
                if time.monotonic() >= deadline:
                    raise WALError(
                        f"in-flight fsync batch on {self.wal.path} did "
                        "not finish in time"
                    )
                self._work.wait(0.01)
            yield

    def covered_watermark(self) -> int:
        """Highest seq a checkpoint pre-flush may claim to cover: every
        record at or below it has *settled its publish*, which happens
        strictly after the record's write-sets were applied to the base
        tables.

        ``last_enqueued()`` would over-cover: commits enqueue their record
        (under the table latches) *before* applying, so an in-flight
        commit's seq can be enqueued while its writes are still absent
        from the memtable a concurrent pre-flush seals — a marker covering
        that seq would truncate redo for data that exists nowhere durable.
        The settled prefix cannot: settle ⇒ published ⇒ applied before the
        pre-flush reads the memtable.  Records that never track a publish
        (prepare votes, bulk loads) are safe at any watermark — prepare
        redo is only needed while its transaction is unresolved, which
        pins the latches a cut must take, and bulk loads write through to
        the backend *before* enqueueing.
        """
        with self._lock:
            last = self._next_seq - 1
            if not self._unpublished:
                return last
            return min(min(self._unpublished) - 1, last)

    def export_tail(
        self,
    ) -> tuple[CheckpointLogRecord | None, list[CommitLogRecord | PrepareLogRecord]]:
        """Decoded records after the last checkpoint marker — the
        migration catch-up unit.

        A shard split copies the base tables off a checkpoint image and
        then replays exactly this suffix onto the target: the marker
        proves everything before it is in the image's SSTables, and the
        tail is every commit since.  Caller contract: the shard is
        quiesced (all commit latches held — no enqueue possible) and
        :meth:`flush` has completed, so the file holds every submitted
        record; enforced by rejecting a call with records still pending
        or a batch in flight.
        """
        with self._lock:
            if self._failure is not None:
                raise WALError(
                    f"export_tail on failed commit WAL {self.wal.path}"
                ) from self._failure
            if self._pending or self._leader_active:
                raise WALError(
                    f"export_tail on {self.wal.path} with records still "
                    "in flight (shard not quiesced/flushed)"
                )
            return commit_wal_tail(self.wal.path)

    def preload_tail(self, records: int) -> None:
        """Account for an on-disk WAL tail that predates this process.

        Called by restart recovery after parsing the tail: the fresh
        daemon's counters would otherwise start at zero, under-reporting
        :meth:`records_since_checkpoint` by the whole replayed tail — the
        auto-checkpoint trigger would let the file grow past its bound,
        and :meth:`write_checkpoint` would report ``dropped=0`` for a
        truncation that in fact dropped the tail.
        """
        with self._lock:
            self._records_at_checkpoint = -records

    def write_checkpoint(
        self, checkpoint_ts: int, last_cts: dict[str, int], covered_seq: int
    ) -> int:
        """Cut a checkpoint whose marker covers only records ``<=
        covered_seq`` (an ARIES-style fuzzy checkpoint).

        Caller contract (see ``ShardedTransactionManager.checkpoint_shard``):
        the shard is *quiesced* — every table commit latch held, so no new
        record can enqueue — and every record ``<= covered_seq`` is
        reflected in durable SSTables.  The file is atomically rewritten
        (:meth:`~repro.storage.wal.WriteAheadLog.reset_to`) to ``[marker,
        uncovered records...]``, so recovery replays exactly the uncovered
        suffix (idempotent redo).  A full cut passes the last enqueued seq
        and leaves just ``[marker]``; the background cut passes its
        pre-flush watermark and keeps the small delta enqueued during the
        pre-flush instead of flushing it inside the latches.  Either way the
        quiesced window pays one ``reset_to`` and nothing else.

        The marker is never appended to the old file: a marker *after*
        records it does not cover would, on a crash before the rewrite,
        make replay skip them.  A crash before the rename keeps the old
        file (the previous marker's longer tail replays — more work, same
        state); after it, the new file.  ``last_cts``/``checkpoint_ts`` may
        cover the kept delta (they are snapshotted under the latches):
        recovery still converges because the delta stays replayable — the
        marker's watermark is a floor the replayed tail reaches, never a
        claim about records that were dropped.

        The cut *absorbs* still-pending records instead of flushing them
        first: the rewrite writes them (fsynced) into the new tail, so the
        absorbed records become durable as a side effect and their waiting
        committers are woken, batched into the checkpoint's own fsync.
        Returns the number of records the truncation dropped.
        """
        with self._lock:
            if self._closed:
                raise WALError(
                    f"checkpoint on closed durability daemon ({self.wal.path})"
                )
            if self._failure is not None:
                raise WALError(
                    f"commit WAL {self.wal.path} has failed; daemon is poisoned"
                ) from self._failure
            # Wait out an in-flight batch leader: it drained records from
            # the queue and may not have written them to the file yet —
            # the frame read below must see every non-pending record.
            # (New leaders cannot start while we hold the daemon mutex.)
            deadline = time.monotonic() + self.publish_drain_timeout
            while self._leader_active:
                if time.monotonic() >= deadline:
                    raise WALError(
                        f"checkpoint on {self.wal.path}: in-flight "
                        "fsync batch did not finish in time"
                    )
                self._work.wait(0.01)
                if self._failure is not None:
                    raise WALError(
                        f"commit WAL {self.wal.path} has failed; daemon "
                        "is poisoned"
                    ) from self._failure
            total = self._next_seq - 1
            delta = max(0, total - covered_seq)
            tail = self.records_enqueued - self._records_at_checkpoint
            kept_pending = [
                (kind, frame)
                for seq, kind, frame in self._pending
                if seq > covered_seq
            ]
            keep_from_file = delta - len(kept_pending)
            # A full cut keeps nothing from the file, so it never reads
            # the tail back.
            frames = (
                [
                    (kind, frame)
                    for kind, frame in WriteAheadLog.replay(self.wal.path)
                    if kind != KIND_CHECKPOINT
                ]
                if keep_from_file
                else []
            )
            if keep_from_file < 0 or keep_from_file > len(frames):
                # pragma: no cover - accounting corrupted
                raise WALError(
                    f"checkpoint on {self.wal.path}: {keep_from_file} "
                    f"uncovered file records expected, {len(frames)} intact "
                    "frames found"
                )
            payload = encode_checkpoint_record(checkpoint_ts, last_cts)
            keep = frames[len(frames) - keep_from_file :]
            self.wal.reset_to([(KIND_CHECKPOINT, payload)] + keep + kept_pending)
            # The rewrite fsynced the new file: every submitted record is
            # now durable — the absorbed ones (pending ≤ covered_seq are
            # equally settled: their writes sit in the flushed SSTables
            # the marker covers).  Wake their committers.
            absorbed = list(self._pending)
            if self._pending:
                self.batches += 1
                self.largest_batch = max(self.largest_batch, len(self._pending))
            self._pending.clear()
            self._durable_seq = total
            self._records_at_checkpoint = self.records_enqueued - delta
            self.checkpoints += 1
            ready = self._collect_ready_waiters_locked(None)
        for ev in ready:
            ev.set()
        # The rewrite made the absorbed pending records durable without a
        # batch leader running — feed them to the ship callback here so
        # replicas see every record exactly once.
        self._deliver_durable(absorbed)
        return tail - delta

    # ------------------------------------------------------------- leading

    def _lead_one_batch(self) -> bool:
        """Claim leadership, drain one contiguous prefix, fsync, wake all."""
        with self._lock:
            if self._leader_active or not self._pending:
                return False
            self._leader_active = True
            batch: list[tuple[int, int, bytes]] = []
            if self.batch_window <= 0.0:
                batch = self._pending[: self.max_batch]
                del self._pending[: len(batch)]
        if not batch:
            # Dwell with the lock released so more committers can join this
            # batch (the commit_delay knob), then drain.
            time.sleep(self.batch_window)
            with self._lock:
                batch = self._pending[: self.max_batch]
                del self._pending[: len(batch)]
        error: BaseException | None = None
        try:
            self.wal.append_many(
                ((kind, payload) for _, kind, payload in batch), sync=True
            )
        except BaseException as exc:  # pragma: no cover - disk failure path
            error = exc
        with self._lock:
            self._leader_active = False
            if error is None and batch:
                self._durable_seq = batch[-1][0]
                self.batches += 1
                self.largest_batch = max(self.largest_batch, len(batch))
            elif error is not None:
                self._failure = error
            ready = self._collect_ready_waiters_locked(error)
            # A checkpoint cut may be parked waiting for this in-flight
            # batch to finish before it rewrites the file (see
            # :meth:`write_checkpoint`).
            self._work.notify_all()
        # Wake outside the mutex: each waiter parks on its own event, so
        # none of them re-contend the daemon lock on the way out.
        for ev in ready:
            ev.set()
        if error is None and batch:
            self._deliver_durable(batch)
        return error is None and bool(batch)

    def _collect_ready_waiters_locked(
        self, error: BaseException | None
    ) -> list[threading.Event]:
        """Pop the waiter events this batch completion should wake."""
        if not self._waiters:
            return []
        if error is not None or self._closed:
            ready = [ev for _, ev in self._waiters]
            self._waiters.clear()
            return ready
        ready = [ev for s, ev in self._waiters if s <= self._durable_seq]
        self._waiters = [(s, ev) for s, ev in self._waiters if s > self._durable_seq]
        if self._flusher is None and self._pending and self._waiters:
            # Leaderless with work left (a max_batch split): hand the baton
            # to one parked waiter so it can claim leadership promptly.
            ready.append(self._waiters[0][1])
        return ready

    def _flush_loop(self) -> None:
        """Dedicated flusher: event-driven drain of batches on one thread.

        While one batch's fsync is in flight every committer thread is free
        to run Python, so the next batch accumulates for free and fsyncs
        chain back-to-back — the device and the interpreter stay busy at
        the same time.
        """
        while True:
            with self._work:
                if self._failure is not None:
                    return
                if not self._pending:
                    if self._closed:
                        return
                    self._work.wait(_FLUSHER_IDLE_WAIT_S)
                    continue
            self._lead_one_batch()

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Flush the queue, stop the flusher, close the WAL.  Idempotent."""
        with self._lock:
            already = self._closed
        if not already:
            try:
                self.flush()
            except WALError:  # pragma: no cover - disk failure path
                pass
        with self._lock:
            self._closed = True
            ready = [ev for _, ev in self._waiters]
            self._waiters.clear()
            self._work.notify_all()
            self._replica_cv.notify_all()
        for ev in ready:
            ev.set()
        if self._flusher is not None and self._flusher.is_alive():
            self._flusher.join(timeout=2.0)
        self.wal.close()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "durable_records": self.records_enqueued,
                "fsync_batches": self.batches,
                "largest_fsync_batch": self.largest_batch,
                "durable_watermark": self._durable_seq,
                "durability_backlog": (self._next_seq - 1) - self._durable_seq,
                "checkpoints": self.checkpoints,
                "wal_tail_records": self.records_enqueued
                - self._records_at_checkpoint,
                "replica_durable_watermark": self._replica_durable_seq,
                "quorum_acks": self.quorum_acks,
                "replica_ack_timeouts": self.replica_ack_timeouts,
                "lagging_replicas": len(self._replica_lagging),
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GroupFsyncDaemon(mode={self.mode}, wal={self.wal.path}, "
            f"enqueued={self.records_enqueued}, batches={self.batches})"
        )


# --------------------------------------------------------------------------
# cross-shard commit sequencing
# --------------------------------------------------------------------------


def reserve_group_commit(
    daemons: dict[int, GroupFsyncDaemon],
    oracle: "TimestampOracle",
    bodies: dict[int, bytes],
) -> tuple[int, dict[int, DurabilityTicket]]:
    """Draw ONE commit timestamp and enqueue a commit record per shard.

    2PC phase-two sequencing: all participant daemons' mutexes are held (in
    ascending shard order, the same global order the prepare phase uses, so
    no deadlock against other reservations) while the shared timestamp is
    drawn and every shard's record enters its local queue.  That preserves
    each shard's WAL-order == ts-order invariant even though the timestamp
    comes from outside the shard.  ``bodies`` maps each participant shard
    to its :func:`encode_commit_body` payload (pickled outside the locks).
    """
    if set(bodies) != set(daemons):
        raise ValueError("bodies and daemons must cover the same shards")
    tickets: dict[int, DurabilityTicket] = {}
    with ExitStack() as stack:
        for idx in sorted(daemons):
            stack.enter_context(daemons[idx]._lock)
        # Pre-flight every daemon before enqueuing on any: the reservation
        # must be all-or-nothing — a record enqueued on one shard while
        # another shard's daemon rejects would become durable decision
        # evidence for a commit the caller then reports as cleanly aborted.
        for idx in sorted(daemons):
            daemons[idx]._check_submittable_locked()
        commit_ts = oracle.next()
        for idx in sorted(daemons):
            ticket = daemons[idx]._submit_locked(
                KIND_TXN_COMMIT, stamp_commit_record(commit_ts, bodies[idx])
            )
            ticket.commit_ts = commit_ts
            ticket.tracks_publish = True
            daemons[idx]._unpublished.add(ticket.seq)
            tickets[idx] = ticket
    return commit_ts, tickets
