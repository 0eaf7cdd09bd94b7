"""Sharded restart recovery: per-shard redo, 2PC resolution, checkpoints.

This module is the restart half of the durable sharded storage design
(:mod:`repro.core.sharding` with ``data_dir=``).  The on-disk layout it
owns::

    data_dir/
      schema.json            states / groups / shard count (recreated on open)
      coordinator.log        global 2PC commit decisions (presumed-abort)
      shard-00/
        commit.wal           the shard's commit redo log (+ checkpoint marker)
        context.log          per-group LastCTS write-through (ContextStore)
        tables/<state_id>/   one LSMStore directory per state partition
      shard-01/ ...

Recovery contract (the paper's Section 4 requirements, per shard):

1. the LSM base tables reopen themselves (own WAL replay, manifest);
2. the commit-WAL *tail* — everything after the last checkpoint marker —
   is redone into the base tables in WAL (= commit-timestamp) order;
   redo is idempotent, so records that partially survived through the
   LSM's buffered WAL converge on the same bytes;
3. in-doubt 2PC prepares (a durable prepare vote with no commit record on
   that shard) are resolved **presumed-abort**: a prepare rolls forward
   only when a durable commit decision exists — in the global
   ``coordinator.log`` or as a commit record on *any* participant shard
   (each commit record doubles as decision evidence, covering the window
   between record enqueue and decision logging) — otherwise it is dropped;
4. each group's ``LastCTS`` is restored to the max of the persisted
   context-store value, the checkpoint marker's snapshot and the replayed
   commit timestamps, and the shared timestamp oracle restarts above every
   timestamp seen, so post-recovery transactions sort after everything
   recovered;
5. the version indexes are bootstrapped from the (now exact) base tables,
   and a fresh checkpoint truncates the replayed tails so a second crash
   replays nothing twice.  Under ``state_residency="lazy"`` step 5 is
   O(tail) instead of O(rows): only the keys the tail touched are
   installed eagerly (from the redo records, at their true commit
   timestamps); every other row stays backend-resident behind the
   partition's ``bootstrap_cts`` and faults in on first read (see
   :mod:`repro.core.table`).
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import StorageError, WALError
from ..storage.wal import (
    KIND_COORD_COMMIT,
    KIND_SLOT_FLIP,
    WriteAheadLog,
    fsync_dir,
)
from ..core.codecs import ORDERED_KEY_CODEC
from ..core.slots import SlotFlip
from ..core.durability import (
    CommitLogRecord,
    GroupFsyncDaemon,
    PrepareLogRecord,
    apply_recovered_commit,
    commit_wal_tail,
)
from ..core.table import RESIDENCY_LAZY
from ..core.write_set import WriteKind

#: Sentinel marking a tail key whose newest tail record is a DELETE — it
#: must stay cold (the redo removed the backend row, so a later fault-in
#: correctly misses) instead of hydrating a value.
_TAIL_DELETED = object()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.sharding import ShardedTransactionManager

_SCHEMA_NAME = "schema.json"
_COORD_LOG_NAME = "coordinator.log"


# --------------------------------------------------------------------------
# on-disk layout
# --------------------------------------------------------------------------


def shard_dir(data_dir: str | os.PathLike[str], shard: int) -> Path:
    return Path(data_dir) / f"shard-{shard:02d}"


def context_store_path(data_dir: str | os.PathLike[str], shard: int) -> Path:
    return shard_dir(data_dir, shard) / "context.log"


def table_dir(data_dir: str | os.PathLike[str], shard: int, state_id: str) -> Path:
    return shard_dir(data_dir, shard) / "tables" / state_id


def coordinator_log_path(data_dir: str | os.PathLike[str]) -> Path:
    return Path(data_dir) / _COORD_LOG_NAME


def schema_path(data_dir: str | os.PathLike[str]) -> Path:
    return Path(data_dir) / _SCHEMA_NAME


# --------------------------------------------------------------------------
# schema persistence
# --------------------------------------------------------------------------


@dataclass
class ShardedSchema:
    """Recovery-critical catalog: what to recreate before replay.

    The redo records only carry state *ids*; tables and groups must exist
    (with the right partition count) before the tail can be replayed, so
    the durable manager persists this tiny catalog on every DDL call.
    """

    num_shards: int
    protocol: str
    #: state id -> version_slots of its tables.
    states: dict[str, int] = field(default_factory=dict)
    #: group id -> member state ids (insertion order preserved).
    groups: dict[str, list[str]] = field(default_factory=dict)
    #: slot -> shard routing table (``None`` = pre-slot-map catalog; the
    #: manager synthesises the uniform default, which reproduces the
    #: historical modulo routing).
    slot_map: list[int] | None = None
    #: Epoch of the persisted slot map.  Flip records in the coordinator
    #: log with a *newer* epoch are applied on top during open — the
    #: schema rewrite runs after the flip record is durable, so it may lag
    #: by exactly the crash window between the two.
    slot_epoch: int = 0
    #: Durably ``True`` from the moment the first migration's copy phase
    #: may have written anything (set and fsynced *before* it).  Recovery
    #: uses it to tell migration leftovers (evict: the authoritative copy
    #: is with the slot owner) from legacy pre-slot-map placement (re-home:
    #: deleting would destroy committed data).  A legacy data dir can never
    #: carry this flag, and a dir that ever started a migration always
    #: does — even when a crash left ``slot_epoch`` at 0.
    migrations_started: bool = False
    #: Residency mode every partition is created with (``"full"`` =
    #: bootstrap the whole version index at open; ``"lazy"`` = fault rows
    #: in on first read).  Persisted like ``protocol``: a policy of the
    #: store, not of one process, so a plain reopen keeps it.
    state_residency: str = "full"
    #: Replicas per shard (0 = replication off) and the commit-ack policy
    #: (``"local"``/``"quorum"``).  Persisted like ``protocol``: a plain
    #: reopen keeps shipping to its replicas with the same ack guarantee;
    #: explicit constructor arguments update the catalog.
    replication_factor: int = 0
    ack: str = "local"
    #: Encoding of every partition's base-table keys.  ``None`` marks a
    #: catalog written before keys were order-preserving (pickled keys),
    #: which :meth:`check_key_encoding` refuses to open.
    key_encoding: str | None = ORDERED_KEY_CODEC.format_name

    def check_key_encoding(self, data_dir: str | os.PathLike[str]) -> None:
        """Refuse a data dir whose rows this engine cannot decode or scan.

        Keys are stored with :class:`~repro.core.codecs.OrderedKeyCodec`;
        pickle-keyed rows would fail to decode on a full-residency open
        and be silently invisible to a lazy one.
        """
        if self.key_encoding == ORDERED_KEY_CODEC.format_name:
            return
        found = (
            "pickled keys (schema.json records no key_encoding)"
            if self.key_encoding is None
            else f"key_encoding {self.key_encoding!r}"
        )
        raise StorageError(
            f"data_dir {data_dir} stores {found}; this engine reads base "
            f"tables keyed with {ORDERED_KEY_CODEC.format_name!r}. Rebuild "
            "the store by re-loading its rows into a new data_dir."
        )

    def save(self, data_dir: str | os.PathLike[str]) -> None:
        """Atomically persist (tmp + fsync + rename + directory fsync)."""
        path = schema_path(data_dir)
        payload = {
            "num_shards": self.num_shards,
            "protocol": self.protocol,
            "states": self.states,
            "groups": self.groups,
            "slot_map": self.slot_map,
            "slot_epoch": self.slot_epoch,
            "migrations_started": self.migrations_started,
            "state_residency": self.state_residency,
            "replication_factor": self.replication_factor,
            "ack": self.ack,
            "key_encoding": self.key_encoding,
        }
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(path)
        fsync_dir(path.parent)

    @staticmethod
    def load(data_dir: str | os.PathLike[str]) -> "ShardedSchema":
        path = schema_path(data_dir)
        if not path.exists():
            raise StorageError(
                f"no sharded schema at {path}; was this directory created by "
                "ShardedTransactionManager(data_dir=...)?"
            )
        payload = json.loads(path.read_text())
        slot_map = payload.get("slot_map")
        return ShardedSchema(
            num_shards=int(payload["num_shards"]),
            protocol=str(payload["protocol"]),
            states={str(s): int(v) for s, v in payload["states"].items()},
            groups={str(g): [str(s) for s in ids] for g, ids in payload["groups"].items()},
            slot_map=None if slot_map is None else [int(s) for s in slot_map],
            slot_epoch=int(payload.get("slot_epoch", 0)),
            migrations_started=bool(payload.get("migrations_started", False)),
            state_residency=str(payload.get("state_residency", "full")),
            replication_factor=int(payload.get("replication_factor", 0)),
            ack=str(payload.get("ack", "local")),
            key_encoding=payload.get("key_encoding"),
        )


# --------------------------------------------------------------------------
# the global 2PC outcome log
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinatorOutcome:
    """One durable commit decision of a cross-shard transaction."""

    txn_id: int
    commit_ts: int
    shards: tuple[int, ...]


class CoordinatorLog:
    """Durable log of cross-shard commit decisions (presumed-abort 2PC).

    The distributed commit point of the sharded manager: once a decision
    record is on stable storage, recovery rolls the transaction forward on
    every participant (each holds a durable prepare record with its redo
    image); a prepare with **no** decision anywhere rolls back.  Abort
    decisions are never logged — that is the presumed-abort optimisation.

    ``batched=True`` (the default) routes decision records through a
    :class:`~repro.core.durability.GroupFsyncDaemon` on the log file:
    :meth:`log_commit` becomes enqueue-then-wait, so N concurrent
    cross-shard coordinators share **one** decision fsync
    (``append_many``) instead of serialising N private fsyncs under this
    log's lock — the classic 2PC coordinator-log bottleneck, amortised
    the same way the per-shard commit WALs already are.  The durability
    contract is unchanged: :meth:`log_commit` returns only once the
    decision is on stable storage, so phase two still starts strictly
    after the decision is durable and recovery's presumed-abort reading
    holds.  ``batched=False`` keeps the fsync-per-decision reference
    behaviour (benchmarks compare the two).

    Decisions for transactions whose commit records every shard has since
    checkpointed are garbage; :meth:`compact` drops every outcome at or
    below the fleet-wide minimum checkpoint timestamp.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        sync: bool = True,
        batched: bool = True,
        max_batch: int = 128,
        batch_window: float = 0.0,
    ) -> None:
        self.path = Path(path)
        self._outcomes, self._flips = self._read_log(self.path)
        batched = batched and sync
        self._wal = WriteAheadLog(self.path, sync=sync and not batched)
        if self.path.stat().st_size > 0:
            # Rewrite to exactly the intact records before appending: a
            # crash-torn tail frame would otherwise sit *before* every new
            # append and hide it from replay forever (replay stops at the
            # first bad frame).  Doubles as compaction of duplicate
            # records.  Slot flips are rewritten too (epoch order) — they
            # stay the routing authority until the schema catches up.
            self._wal.reset_to(self._all_records_locked())
        #: Leader/follower batcher over the log (no dedicated thread): the
        #: first waiting coordinator drains the queue and fsyncs for all.
        self._daemon = (
            GroupFsyncDaemon(
                self._wal, max_batch=max_batch, batch_window=batch_window
            )
            if batched
            else None
        )
        self._lock = threading.Lock()

    @staticmethod
    def _encode(outcome: CoordinatorOutcome) -> bytes:
        return pickle.dumps(
            (outcome.txn_id, outcome.commit_ts, outcome.shards),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @staticmethod
    def _encode_flip(flip: SlotFlip) -> bytes:
        return pickle.dumps(
            (flip.epoch, sorted(flip.moves.items())),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @staticmethod
    def read_outcomes(path: str | os.PathLike[str]) -> dict[int, CoordinatorOutcome]:
        """Replay the intact prefix into a txn-id -> outcome map."""
        return CoordinatorLog._read_log(path)[0]

    @staticmethod
    def _read_log(
        path: str | os.PathLike[str],
    ) -> tuple[dict[int, CoordinatorOutcome], dict[int, SlotFlip]]:
        """Replay the intact prefix: commit decisions + slot flips."""
        outcomes: dict[int, CoordinatorOutcome] = {}
        flips: dict[int, SlotFlip] = {}
        for kind, payload in WriteAheadLog.replay(path):
            if kind == KIND_COORD_COMMIT:
                txn_id, commit_ts, shards = pickle.loads(payload)
                outcomes[txn_id] = CoordinatorOutcome(
                    txn_id, commit_ts, tuple(shards)
                )
            elif kind == KIND_SLOT_FLIP:
                epoch, moves = pickle.loads(payload)
                flips[epoch] = SlotFlip(epoch, dict(moves))
        return outcomes, flips

    def _all_records_locked(self) -> list[tuple[int, bytes]]:
        """Every live record for a file rewrite (flips in epoch order
        first — replay order is irrelevant for correctness, but keeping a
        stable layout makes the rewrites deterministic)."""
        records: list[tuple[int, bytes]] = [
            (KIND_SLOT_FLIP, self._encode_flip(self._flips[epoch]))
            for epoch in sorted(self._flips)
        ]
        records.extend(
            (KIND_COORD_COMMIT, self._encode(o)) for o in self._outcomes.values()
        )
        return records

    def log_commit(self, txn_id: int, commit_ts: int, shards: list[int]) -> None:
        """Make one commit decision durable (fsynced before returning).

        Batched mode enqueues the record and waits on its ticket — the
        wait runs *outside* this log's lock, so concurrent coordinators
        pile onto the batcher and one ``append_many`` fsync covers all of
        them.  The in-memory outcome is recorded at enqueue time (not
        after the fsync): :meth:`compact` rewrites the file from the
        in-memory map, and a decision that is enqueued-but-not-yet-synced
        must survive that rewrite — over-including an outcome whose fsync
        then fails is harmless, because a failed decision fsync fences the
        whole manager before any later checkpoint (and therefore compact)
        can run.
        """
        payload = pickle.dumps(
            (txn_id, commit_ts, tuple(shards)), protocol=pickle.HIGHEST_PROTOCOL
        )
        outcome = CoordinatorOutcome(txn_id, commit_ts, tuple(shards))
        if self._daemon is not None:
            with self._lock:
                ticket = self._daemon.submit(KIND_COORD_COMMIT, payload)
                self._outcomes[txn_id] = outcome
            ticket.wait()
            return
        with self._lock:
            if self._wal.closed:
                raise WALError(f"log_commit on closed coordinator log {self.path}")
            self._wal.append(KIND_COORD_COMMIT, payload)
            self._outcomes[txn_id] = outcome

    def log_slot_flip(self, flip: SlotFlip) -> None:
        """Make one slot-map flip durable (fsynced before returning).

        The commit point of an online shard migration: recovery presumes
        the *source* shard owns the migrating slots until this record is
        on stable storage, and routes by the flipped map from then on —
        even if the crash hit before ``schema.json`` was rewritten.
        Batched mode shares the decision fsync with concurrent 2PC
        coordinators, exactly like :meth:`log_commit`.
        """
        payload = self._encode_flip(flip)
        if self._daemon is not None:
            with self._lock:
                ticket = self._daemon.submit(KIND_SLOT_FLIP, payload)
                self._flips[flip.epoch] = flip
            try:
                ticket.wait()
            except BaseException:
                # The fsync failed: the flip may or may not be on disk,
                # but it must NOT survive in memory — a later compact()
                # rewrite works from ``_flips`` and would durably persist
                # a flip the migration reported as failed (the caller
                # also fences the manager, because the on-disk state is
                # now genuinely uncertain).
                with self._lock:
                    self._flips.pop(flip.epoch, None)
                raise
            return
        with self._lock:
            if self._wal.closed:
                raise WALError(
                    f"log_slot_flip on closed coordinator log {self.path}"
                )
            self._wal.append(KIND_SLOT_FLIP, payload)
            self._flips[flip.epoch] = flip

    def slot_flips(self) -> list[SlotFlip]:
        """Durable slot-map flips, ascending epoch order."""
        with self._lock:
            return [self._flips[epoch] for epoch in sorted(self._flips)]

    def outcomes(self) -> dict[int, CoordinatorOutcome]:
        with self._lock:
            return dict(self._outcomes)

    def outcome(self, txn_id: int) -> CoordinatorOutcome | None:
        with self._lock:
            return self._outcomes.get(txn_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._outcomes)

    def compact(
        self, min_checkpoint_ts: int, min_slot_epoch: int | None = None
    ) -> int:
        """Drop outcomes fully covered by every shard's checkpoint.

        An outcome with ``commit_ts <= min_checkpoint_ts`` can leave no
        in-doubt prepare behind: prepares resolve before a shard's
        checkpoint marker can be written (the checkpointer needs the commit
        latches a prepared transaction pins), so both the prepare and the
        commit record sit in truncated prefixes.  Slot flips with
        ``epoch <= min_slot_epoch`` (the epoch the persisted schema
        already reflects) are likewise garbage; newer flips always
        survive the rewrite.  Returns how many decisions were dropped.
        """
        with self._lock:
            survivors = {
                txn_id: outcome
                for txn_id, outcome in self._outcomes.items()
                if outcome.commit_ts > min_checkpoint_ts
            }
            dropped = len(self._outcomes) - len(survivors)
            surviving_flips = {
                epoch: flip
                for epoch, flip in self._flips.items()
                if min_slot_epoch is None or epoch > min_slot_epoch
            }
            dropped += len(self._flips) - len(surviving_flips)
            if dropped:
                self._outcomes = survivors
                self._flips = surviving_flips
                records = self._all_records_locked()
                if self._daemon is not None:
                    # Quiesce the batcher around the rewrite: a batch
                    # leader mid-``append_many`` would otherwise race
                    # ``reset_to``'s no-concurrent-append precondition
                    # (and re-append already-rewritten frames after it).
                    with self._daemon.paused():
                        self._wal.reset_to(records)
                else:
                    self._wal.reset_to(records)
            return dropped

    def close(self) -> None:
        if self._daemon is not None:
            # Flushes the last decision batch, then closes the WAL.
            self._daemon.close()
            return
        with self._lock:
            self._wal.close()


# --------------------------------------------------------------------------
# the recovery procedure
# --------------------------------------------------------------------------


@dataclass
class ShardRecovery:
    """What restart recovery did on one shard."""

    shard: int
    commits_replayed: int = 0
    keys_redone: int = 0
    prepares_rolled_forward: int = 0
    prepares_rolled_back: int = 0
    #: Keys evicted after bootstrap because the slot map routes them to a
    #: different shard — stale copies left by a crash inside a slot
    #: migration (between the durable flip and the source's purge
    #: checkpoint); without the purge they would shadow-survive forever.
    stale_keys_purged: int = 0
    #: tail length in records (commit + prepare) that replay processed.
    tail_records: int = 0
    #: checkpoint marker timestamp the tail replay started from (0 = none).
    checkpoint_ts: int = 0
    rows_loaded: dict[str, int] = field(default_factory=dict)
    last_cts: dict[str, int] = field(default_factory=dict)


@dataclass
class ShardedRecoveryReport:
    """Aggregate outcome of :func:`recover_sharded`."""

    shards: list[ShardRecovery] = field(default_factory=list)
    oracle_restarted_at: int = 0
    #: decisions found in the coordinator log at recovery time.
    coordinator_outcomes: int = 0
    #: wall-clock seconds spent in recovery (replay + bootstrap).
    recovery_s: float = 0.0
    #: WAL records dropped by the post-recovery checkpoint (0 if disabled).
    truncated_records: int = 0
    #: Legacy-routed rows moved to their slot-map home (epoch-0 reopens of
    #: pre-slot-map data dirs only; never overwrites an existing row).
    keys_rehomed: int = 0

    @property
    def commits_replayed(self) -> int:
        return sum(s.commits_replayed for s in self.shards)

    @property
    def tail_records(self) -> int:
        return sum(s.tail_records for s in self.shards)

    @property
    def prepares_rolled_forward(self) -> int:
        return sum(s.prepares_rolled_forward for s in self.shards)

    @property
    def prepares_rolled_back(self) -> int:
        return sum(s.prepares_rolled_back for s in self.shards)

    @property
    def stale_keys_purged(self) -> int:
        return sum(s.stale_keys_purged for s in self.shards)

    @property
    def rows_loaded(self) -> dict[str, int]:
        """state id -> total rows bootstrapped across all partitions."""
        totals: dict[str, int] = {}
        for shard in self.shards:
            for state_id, rows in shard.rows_loaded.items():
                totals[state_id] = totals.get(state_id, 0) + rows
        return totals

    @property
    def last_cts(self) -> dict[str, int]:
        """group id -> recovered watermark (max across shard partitions)."""
        merged: dict[str, int] = {}
        for shard in self.shards:
            for group_id, ts in shard.last_cts.items():
                merged[group_id] = max(merged.get(group_id, 0), ts)
        return merged


def _resolve_workers(num_shards: int, max_workers: int | None) -> int:
    """Bounded pool size for the per-shard recovery fan-out.

    ``None`` auto-sizes to ``min(shards, cores, 8)``; ``0``/``1`` force
    the sequential reference procedure (benchmarks compare the two).
    """
    if max_workers is None:
        max_workers = min(os.cpu_count() or 4, 8)
    return max(1, min(num_shards, max_workers))


def _recover_shard(
    manager: "ShardedTransactionManager",
    idx: int,
    marker,
    records: list[CommitLogRecord | PrepareLogRecord],
    decisions: dict[int, int],
) -> tuple[ShardRecovery, int, list[tuple[str, object, object]]]:
    """Pass 2 for one shard: redo the tail, resolve in-doubt prepares,
    restore ``LastCTS``, bootstrap the version indexes.

    Touches only shard-local state (the shard manager, its tables and
    context, its context store and commit-WAL daemon) plus the read-only
    ``decisions`` map, so shards can run concurrently.  Returns the
    per-shard report, the highest timestamp seen (merged
    deterministically by the caller — max is order-free) and any
    legacy-routed rows for the sequential re-homing pass.
    """
    shard = manager.shards[idx]
    info = ShardRecovery(shard=idx, tail_records=len(records))
    group_cts: dict[str, int] = dict(marker.last_cts) if marker else {}
    max_seen = 0
    if marker is not None:
        info.checkpoint_ts = marker.checkpoint_ts
        max_seen = marker.checkpoint_ts

    committed_here = {
        r.txn_id for r in records if isinstance(r, CommitLogRecord)
    }

    # Per-state newest tail write per key (lazy partitions only): the
    # redo above applies to the backend, and in lazy mode nothing later
    # rebuilds the version index from it — the tail keys hydrate eagerly
    # from these records instead (O(tail) memory), everything else stays
    # cold until a read faults it in.
    tail_latest: dict[str, dict[object, tuple[int, object]]] = {}

    def redo(writes_record, commit_ts: int) -> int:
        keys = 0
        for state_id, write_set in apply_recovered_commit(writes_record).items():
            table = shard.table(state_id)
            keys += table.redo_write_set(write_set)
            if table.residency == RESIDENCY_LAZY:
                latest = tail_latest.setdefault(state_id, {})
                for key, entry in write_set.entries.items():
                    prev = latest.get(key)
                    if prev is None or commit_ts >= prev[0]:
                        latest[key] = (
                            commit_ts,
                            _TAIL_DELETED
                            if entry.kind is WriteKind.DELETE
                            else entry.value,
                        )
            gid = shard.context.group_id_of(state_id)
            group_cts[gid] = max(group_cts.get(gid, 0), commit_ts)
        return keys

    prepares: list[PrepareLogRecord] = []
    for record in records:
        max_seen = max(max_seen, record.txn_id)
        if isinstance(record, CommitLogRecord):
            info.keys_redone += redo(record, record.commit_ts)
            info.commits_replayed += 1
            max_seen = max(max_seen, record.commit_ts)
        else:
            prepares.append(record)

    # In-doubt resolution.  Safe to run after the commit redo pass: a
    # prepared transaction pins its tables' commit latches until phase
    # two, so no later commit to the same table can sit behind an
    # unresolved prepare in this WAL.
    for prepare in prepares:
        if prepare.txn_id in committed_here:
            continue  # its own commit record already replayed it
        decided_ts = decisions.get(prepare.txn_id)
        if decided_ts is None:
            info.prepares_rolled_back += 1  # presumed abort
            continue
        info.keys_redone += redo(prepare, decided_ts)
        info.prepares_rolled_forward += 1
        max_seen = max(max_seen, decided_ts)

    # LastCTS: never below any durable evidence — persisted context
    # appends (possibly unsynced), the checkpoint marker's snapshot,
    # and the timestamps just replayed.
    persisted = manager.context_stores[idx].values() if manager.context_stores else {}
    merged: dict[str, int] = {}
    for group_id in shard.context.group_ids():
        merged[group_id] = max(
            persisted.get(group_id, 0), group_cts.get(group_id, 0)
        )
    shard.context.restore_last_cts(merged)
    info.last_cts = merged

    misplaced: list[tuple[str, object, object]] = []
    for table in shard.tables():
        group = shard.context.group_of(table.state_id)
        lazy = table.residency == RESIDENCY_LAZY
        if lazy:
            # O(WAL-tail) startup: skip the full backend scan.  Keys the
            # tail touched hydrate from the redo records just replayed —
            # the newest committed value at its true commit timestamp;
            # a key whose newest tail record is a delete stays cold (its
            # backend row is gone, so a fault-in correctly misses).
            # Everything untouched by the tail stays cold behind
            # ``bootstrap_cts`` and faults in on first read.
            with table.commit_latch:
                table.bootstrap_cts = group.last_cts
            hydrated = 0
            for key, (ts, value) in tail_latest.get(table.state_id, {}).items():
                if value is _TAIL_DELETED:
                    continue
                if manager.slot_map.shard_of(key) != idx:
                    continue  # stale migration leftover; swept below
                table.mvcc_object(key, create=True).install(value, ts, ts)
                hydrated += 1
            info.rows_loaded[table.state_id] = hydrated
        else:
            info.rows_loaded[table.state_id] = table.load_from_backend(
                bootstrap_cts=group.last_cts
            )
        # Slot-ownership sweep.  Once any migration has durably started
        # (``migrations_started``, fsynced before the first copy phase
        # could write a byte), a key this shard's slots do not own can
        # only be a migration leftover — a crash between the durable flip
        # and the source's purge checkpoint (stale copy; the flip is
        # durable only *after* the owner's checkpoint, so the
        # authoritative copy provably exists there), or a crash before
        # the flip (half-copied target rows) — and is evicted.  Without
        # the flag, no migration ever ran, so a misrouted key is a row
        # placed by a *historical* routing scheme (pre-slot-map modulo
        # over a non-power-of-two shard count, or crc-routed integral
        # floats): deleting it would destroy committed data — instead it
        # is handed to the sequential re-homing pass after the joins.
        if lazy:
            # The version index only holds the tail here, so the sweep
            # must read the *backend*.  Only a dir that durably started a
            # migration can hold leftovers (the flag is fsynced before
            # the first copy phase writes a byte); a never-migrated lazy
            # dir skips the scan entirely, keeping startup O(tail) — a
            # lazy dir is never a legacy pre-slot-map layout (the
            # residency field postdates slot routing), so the re-homing
            # case cannot arise.
            stale = []
            if manager.migrations_started:
                for kbytes, _vbytes in table.backend.scan():
                    key = table.key_codec.decode(kbytes)
                    if manager.slot_map.shard_of(key) != idx:
                        stale.append(key)
        else:
            stale = [
                key
                for key in table.keys()
                if manager.slot_map.shard_of(key) != idx
            ]
        if stale:
            if not manager.migrations_started:
                # Legacy rows are NOT evicted here: pass 3 must install
                # them durably at their owner first — deleting the only
                # copy before the re-home lands would destroy committed
                # data if the process dies in between.
                for key in stale:
                    live = table.read_live(key)
                    if live is not None:
                        misplaced.append((table.state_id, key, live.value))
            else:
                info.stale_keys_purged += table.evict_keys(stale)
                if not lazy:
                    info.rows_loaded[table.state_id] -= len(stale)
    daemon = manager.daemons[idx]
    if daemon is not None:
        # Seed the tail accounting so the auto-checkpoint bound and the
        # truncation report cover the pre-crash records, not just the
        # ones this process will enqueue.
        daemon.preload_tail(len(records))
    return info, max_seen, misplaced


def recover_sharded(
    manager: "ShardedTransactionManager",
    checkpoint: bool = True,
    max_workers: int | None = None,
) -> ShardedRecoveryReport:
    """Replay every shard's commit-WAL tail into its base tables.

    ``manager`` must be a freshly constructed durable manager
    (``data_dir=``) with its tables and groups recreated —
    :meth:`~repro.core.sharding.ShardedTransactionManager.open` does both
    from the persisted schema and then calls this.  See the module
    docstring for the step-by-step contract.

    Shards are self-contained directories that never touch each other's
    state, so both passes fan out over a bounded thread pool
    (``max_workers=None`` auto-sizes, ``1`` forces the sequential
    reference).  The per-shard work is dominated by file reads, LSM
    writes and fsyncs — syscalls that release the GIL — so the fan-out
    wins real wall-clock even in CPython.  Everything order-sensitive
    (the oracle fast-forward, the report's shard list, the global
    decision map) is merged deterministically after the joins: the
    recovered state is byte-identical to the sequential procedure's.
    """
    if manager.data_dir is None:
        raise StorageError("recover_sharded needs a manager with data_dir set")
    t0 = time.perf_counter()
    report = ShardedRecoveryReport()
    shard_ids = range(manager.num_shards)
    workers = _resolve_workers(manager.num_shards, max_workers)

    def parse_tail(idx: int):
        return commit_wal_tail(manager.commit_wal_path(manager.data_dir, idx))

    # Pass 1 — parse every shard's tail and gather global commit evidence:
    # the coordinator log's decisions plus every durable commit record (a
    # commit record on any participant proves the decision was commit).
    # The decision map needs *every* tail before any shard can resolve its
    # prepares, so this pass is a barrier before pass 2.
    if workers > 1:
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="shard-recovery"
        ) as pool:
            tails = dict(zip(shard_ids, pool.map(parse_tail, shard_ids)))
    else:
        tails = {idx: parse_tail(idx) for idx in shard_ids}
    decisions: dict[int, int] = {}
    if manager.coordinator_log is not None:
        for txn_id, outcome in manager.coordinator_log.outcomes().items():
            decisions[txn_id] = outcome.commit_ts
        report.coordinator_outcomes = len(manager.coordinator_log)
    for _marker, records in tails.values():
        for record in records:
            if isinstance(record, CommitLogRecord):
                decisions.setdefault(record.txn_id, record.commit_ts)

    # Pass 2 — per shard, in parallel: redo tails, resolve in-doubt
    # prepares, restore LastCTS, bootstrap version indexes.
    def run_shard(idx: int) -> tuple[ShardRecovery, int, list]:
        marker, records = tails[idx]
        return _recover_shard(manager, idx, marker, records, decisions)

    if workers > 1:
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="shard-recovery"
        ) as pool:
            outcomes = list(pool.map(run_shard, shard_ids))
    else:
        outcomes = [run_shard(idx) for idx in shard_ids]
    report.shards = [info for info, _, _ in outcomes]
    max_seen = max((seen for _, seen, _ in outcomes), default=0)

    # Pass 2.5 — equalise each group's LastCTS to the global maximum
    # across shards.  Recovery restores only the *newest* version per key
    # (LSM base tables keep no history), so a shard whose local prefix
    # ended earlier than its peers must still expose the global prefix:
    # the global snapshot vector pins reads at the *minimum* of the pinned
    # shards, and a row whose only restored version carries a timestamp
    # above that minimum would otherwise vanish from capped reads.  Safe
    # to raise: ``LastCTS`` is the max a shard ever published, so no shard
    # holds any commit inside the gap being skipped over.
    global_cts: dict[str, int] = {}
    for info in report.shards:
        for group_id, ts in info.last_cts.items():
            if ts > global_cts.get(group_id, 0):
                global_cts[group_id] = ts
    for idx in shard_ids:
        shard = manager.shards[idx]
        merged = {
            group_id: max(
                global_cts.get(group_id, 0),
                shard.context.last_cts(group_id),
            )
            for group_id in shard.context.group_ids()
        }
        shard.context.restore_last_cts(merged)
        report.shards[idx].last_cts = merged

    # Pass 3 — sequential re-homing of legacy-routed rows (pre-migration
    # data dirs only; pass 2 never produces these once a migration has
    # durably started).  Each row moves to the shard its slot owns —
    # *only* when the key is absent there, so a fork left by the
    # historical int/float aliasing bug (two equal keys with divergent
    # histories on two shards) keeps the copy routing already reaches and
    # never gets overwritten.  Crash-safe order: install at the owner,
    # *flush the owner's backend durable*, and only then evict the legacy
    # holder's copy — at no point does the row exist nowhere, and a rerun
    # after any crash converges (owner-has-key rows just skip the
    # install).  Sequential on purpose: it writes across shards, which
    # the per-shard pool must not.
    rehome_groups: dict[tuple[int, str], list] = {}
    for info, _seen, misplaced in outcomes:
        for state_id, key, value in misplaced:
            rehome_groups.setdefault((info.shard, state_id), []).append(
                (key, value)
            )
    if rehome_groups:
        touched: set[tuple[int, str]] = set()
        for (_holder, state_id), rows in rehome_groups.items():
            for key, value in rows:
                owner = manager.slot_map.shard_of(key)
                table = manager.shards[owner].table(state_id)
                if table.read_live(key) is not None:
                    continue
                ts = manager.shards[owner].context.group_of(state_id).last_cts
                table.mvcc_object(key, create=True).install(value, ts, ts)
                table.backend.write_batch(
                    [
                        (
                            table.key_codec.encode(key),
                            table.value_codec.encode(value),
                        )
                    ],
                    [],
                )
                touched.add((owner, state_id))
                report.keys_rehomed += 1
        for owner, state_id in touched:
            flush = getattr(
                manager.shards[owner].table(state_id).backend, "flush", None
            )
            if callable(flush):
                flush()
        for (holder, state_id), rows in rehome_groups.items():
            table = manager.shards[holder].table(state_id)
            purged = table.evict_keys([key for key, _ in rows])
            report.shards[holder].stale_keys_purged += purged
            report.shards[holder].rows_loaded[state_id] -= purged

    manager.oracle.advance_to(max_seen)
    report.oracle_restarted_at = manager.oracle.current()

    if checkpoint:
        # Truncate the replayed tails (and the now-covered coordinator
        # decisions) so a second crash replays only post-recovery work.
        report.truncated_records = manager.checkpoint(parallel=workers > 1)
    else:
        # Even without a checkpoint the WAL files must be made appendable:
        # a crash-torn tail frame would sit before every new append and
        # hide it from replay (replay stops at the first bad frame), so
        # each WAL is rewritten to exactly its intact records.
        for idx in shard_ids:
            daemon = manager.daemons[idx]
            if daemon is None:
                continue
            intact = list(WriteAheadLog.replay(daemon.wal.path))
            if daemon.wal.size_bytes() > sum(
                len(p) + 9 for _, p in intact  # 9 = frame header bytes
            ):
                daemon.wal.reset_to(intact)
    report.recovery_s = time.perf_counter() - t0
    return report
