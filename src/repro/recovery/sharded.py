"""Sharded restart recovery: per-shard redo, 2PC resolution, checkpoints.

This module is the restart half of the durable sharded storage design
(:mod:`repro.core.sharding` with ``data_dir=``).  The on-disk layout it
owns::

    data_dir/
      schema.json            states / groups / shard count (recreated on open)
      coordinator.log        global 2PC commit decisions (presumed-abort)
      shard-00/
        commit.wal           the shard's commit redo log (+ checkpoint marker)
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
4. each group's ``LastCTS`` is restored from the commit WAL alone — the
   max of the checkpoint marker's snapshot and the replayed and
   rolled-forward commit timestamps — and the shared timestamp oracle
   restarts above every timestamp seen, so post-recovery transactions
   sort after everything recovered;
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
from typing import TYPE_CHECKING, Any

from ..errors import StorageError
from ..storage.wal import (
    KIND_COORD_COMMIT,
    KIND_SLOT_FLIP,
    WriteAheadLog,
    fsync_dir,
)
from ..core.codecs import ORDERED_KEY_CODEC
from ..core.slots import SlotFlip, SlotMap
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

#: Constructor settings the catalog persists (see :func:`load_catalog`).
CATALOG_SETTINGS = (
    "num_shards",
    "protocol",
    "state_residency",
    "replication_factor",
    "ack",
)


# --------------------------------------------------------------------------
# on-disk layout
# --------------------------------------------------------------------------


def shard_dir(data_dir: str | os.PathLike[str], shard: int) -> Path:
    return Path(data_dir) / f"shard-{shard:02d}"


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
    #: slot -> shard routing table.
    slot_map: list[int]
    #: state id -> version_slots of its tables.
    states: dict[str, int] = field(default_factory=dict)
    #: group id -> member state ids (insertion order preserved).
    groups: dict[str, list[str]] = field(default_factory=dict)
    #: Epoch of the persisted slot map.  Flip records in the coordinator
    #: log with a *newer* epoch are applied on top during open — the
    #: schema rewrite runs after the flip record is durable, so it may lag
    #: by exactly the crash window between the two.
    slot_epoch: int = 0
    #: Durably ``True`` from the moment the first migration's copy phase
    #: may have written anything (set and fsynced *before* it).  Recovery
    #: uses it to tell migration leftovers (evict: the authoritative copy
    #: is with the slot owner) from a damaged layout (refuse: nothing but
    #: a migration moves a key off its home shard).  A dir that ever
    #: started a migration carries it — even when a crash left
    #: ``slot_epoch`` at 0.
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

    def settings(self) -> dict[str, Any]:
        """The persisted constructor settings, by parameter name."""
        return {name: getattr(self, name) for name in CATALOG_SETTINGS}

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
            "key_encoding": ORDERED_KEY_CODEC.format_name,
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
        """Read the catalog of ``data_dir``; never writes.

        Raises :class:`~repro.errors.StorageError` naming the file when it
        is missing, is not valid JSON, records another key encoding than
        the engine's, or lacks or mistypes a field.  The key encoding is
        checked first: base tables are keyed with
        :class:`~repro.core.codecs.OrderedKeyCodec`, and pickle-keyed rows
        (a catalog with no ``key_encoding``) would fail to decode on a
        full-residency open and be silently invisible to a lazy one.
        """
        path = schema_path(data_dir)
        if not path.exists():
            raise StorageError(
                f"no sharded schema at {path}; was this directory created by "
                "ShardedTransactionManager(data_dir=...)?"
            )
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise StorageError(f"catalog {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise StorageError(f"catalog {path} is not a JSON object")
        encoding = payload.get("key_encoding")
        if encoding != ORDERED_KEY_CODEC.format_name:
            found = (
                "pickled keys (schema.json records no key_encoding)"
                if encoding is None
                else f"key_encoding {encoding!r}"
            )
            raise StorageError(
                f"data_dir {data_dir} stores {found}; this engine reads base "
                f"tables keyed with {ORDERED_KEY_CODEC.format_name!r}. Rebuild "
                "the store by re-loading its rows into a new data_dir."
            )
        try:
            return ShardedSchema(
                num_shards=int(payload["num_shards"]),
                protocol=str(payload["protocol"]),
                slot_map=[int(s) for s in payload["slot_map"]],
                states={str(s): int(v) for s, v in payload["states"].items()},
                groups={
                    str(g): [str(s) for s in ids]
                    for g, ids in payload["groups"].items()
                },
                slot_epoch=int(payload["slot_epoch"]),
                migrations_started=bool(payload["migrations_started"]),
                state_residency=str(payload["state_residency"]),
                replication_factor=int(payload["replication_factor"]),
                ack=str(payload["ack"]),
            )
        except KeyError as exc:
            raise StorageError(
                f"catalog {path} has no {exc.args[0]!r} field"
            ) from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise StorageError(f"catalog {path} has a malformed field: {exc}") from exc


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

    Decision records go through a
    :class:`~repro.core.durability.GroupFsyncDaemon` on the log file:
    :meth:`log_commit` is enqueue-then-wait, so N concurrent cross-shard
    coordinators share **one** decision fsync (``append_many``) instead of
    serialising N private fsyncs under this log's lock — the classic 2PC
    coordinator-log bottleneck, amortised the same way the per-shard
    commit WALs are.  :meth:`log_commit` returns only once the decision is
    on stable storage, so phase two starts strictly after the decision is
    durable and recovery's presumed-abort reading holds.

    Decisions for transactions whose commit records every shard has since
    checkpointed are garbage; :meth:`compact` drops every outcome at or
    below the fleet-wide minimum checkpoint timestamp.
    """

    def __init__(
        self, path: str | os.PathLike[str], batch_window: float = 0.0
    ) -> None:
        self.path = Path(path)
        self._outcomes, self._flips = self._read_log(self.path)
        # The batcher fsyncs; the WAL's own per-append sync stays off.
        self._wal = WriteAheadLog(self.path, sync=False)
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
        self._daemon = GroupFsyncDaemon(self._wal, batch_window=batch_window)
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

        Enqueues the record and waits on its ticket — the wait runs
        *outside* this log's lock, so concurrent coordinators pile onto the
        batcher and one ``append_many`` fsync covers all of them.  The
        in-memory outcome is recorded at enqueue time (not after the
        fsync): :meth:`compact` rewrites the file from the in-memory map,
        and a decision that is enqueued-but-not-yet-synced must survive
        that rewrite — over-including an outcome whose fsync
        then fails is harmless, because a failed decision fsync fences the
        whole manager before any later checkpoint (and therefore compact)
        can run.
        """
        payload = pickle.dumps(
            (txn_id, commit_ts, tuple(shards)), protocol=pickle.HIGHEST_PROTOCOL
        )
        outcome = CoordinatorOutcome(txn_id, commit_ts, tuple(shards))
        with self._lock:
            ticket = self._daemon.submit(KIND_COORD_COMMIT, payload)
            self._outcomes[txn_id] = outcome
        ticket.wait()

    def log_slot_flip(self, flip: SlotFlip) -> None:
        """Make one slot-map flip durable (fsynced before returning).

        The commit point of an online shard migration: recovery presumes
        the *source* shard owns the migrating slots until this record is
        on stable storage, and routes by the flipped map from then on —
        even if the crash hit before ``schema.json`` was rewritten.
        Shares the decision fsync with concurrent 2PC coordinators,
        exactly like :meth:`log_commit`.
        """
        payload = self._encode_flip(flip)
        with self._lock:
            ticket = self._daemon.submit(KIND_SLOT_FLIP, payload)
            self._flips[flip.epoch] = flip
        try:
            ticket.wait()
        except BaseException:
            # The fsync failed: the flip may or may not be on disk, but it
            # must NOT survive in memory — a later compact() rewrite works
            # from ``_flips`` and would durably persist a flip the
            # migration reported as failed (the caller also fences the
            # manager, because the on-disk state is now genuinely
            # uncertain).
            with self._lock:
                self._flips.pop(flip.epoch, None)
            raise

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
                # Quiesce the batcher around the rewrite: a batch leader
                # mid-``append_many`` would otherwise race ``reset_to``'s
                # no-concurrent-append precondition (and re-append
                # already-rewritten frames after it).
                with self._daemon.paused():
                    self._wal.reset_to(records)
            return dropped

    def close(self) -> None:
        # Flushes the last decision batch, then closes the WAL.
        self._daemon.close()


# --------------------------------------------------------------------------
# reopening a store
# --------------------------------------------------------------------------


def _check_routes(what: str, shards: list[int], num_shards: int) -> None:
    bad = sorted({s for s in shards if not 0 <= s < num_shards})
    if bad:
        raise StorageError(
            f"{what} routes to shard(s) {bad} outside the {num_shards}-shard "
            "layout; the catalog is inconsistent with the shard directories "
            "— refusing to re-route keys over them"
        )


def load_catalog(
    data_dir: str | os.PathLike[str], overrides: dict[str, Any]
) -> ShardedSchema:
    """Load and check the catalog a reopen builds on; never writes.

    The one place
    :meth:`~repro.core.sharding.ShardedTransactionManager.open` checks a
    store, all before any file is touched:

    * :meth:`ShardedSchema.load`'s format and key-encoding checks;
    * ``overrides`` (explicit :data:`CATALOG_SETTINGS` arguments, ``None``
      = not given) replace the persisted settings — the protocol,
      residency and replication policy are not data formats — except
      ``num_shards``, which must match: another count would re-route keys
      over the existing shard directories;
    * the slot map, rolled forward over coordinator-log flip records
      newer than the schema (a crash between a durable flip and the
      schema rewrite must still resolve post-flip), routes only to shards
      of the layout;
    * no ``shard-NN`` directory lies beyond the layout (its data would be
      unroutable, e.g. after a hand-edited schema).
    """
    schema = ShardedSchema.load(data_dir)
    num_shards = overrides.get("num_shards")
    if num_shards is not None and num_shards != schema.num_shards:
        raise StorageError(
            f"data_dir {data_dir} was created with "
            f"num_shards={schema.num_shards}; reopening it with "
            f"num_shards={num_shards} would re-route keys over the existing "
            "shard directories"
        )
    for name in CATALOG_SETTINGS:
        if name != "num_shards" and overrides.get(name) is not None:
            setattr(schema, name, overrides[name])
    _check_routes(f"slot map in {data_dir}", schema.slot_map, schema.num_shards)
    slot_map = SlotMap(schema.slot_map, schema.slot_epoch)
    flips = CoordinatorLog._read_log(coordinator_log_path(data_dir))[1]
    for epoch in sorted(e for e in flips if e > slot_map.epoch):
        _check_routes(
            f"slot flip epoch {epoch} in the coordinator log",
            list(flips[epoch].moves.values()),
            schema.num_shards,
        )
        slot_map = slot_map.apply(flips[epoch])
    schema.slot_map = list(slot_map.slots)
    schema.slot_epoch = slot_map.epoch
    for entry in Path(data_dir).glob("shard-*"):
        try:
            shard_no = int(entry.name.split("-", 1)[1])
        except ValueError:
            continue
        if entry.is_dir() and shard_no >= schema.num_shards:
            raise StorageError(
                f"{entry} exists but the catalog only covers "
                f"{schema.num_shards} shard(s); the slot map cannot route to "
                "it — the directory layout is inconsistent with the schema"
            )
    return schema


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
class ShardedRestartReport:
    """Aggregate outcome of :func:`recover_sharded`."""

    shards: list[ShardRecovery] = field(default_factory=list)
    oracle_restarted_at: int = 0
    #: decisions found in the coordinator log at recovery time.
    coordinator_outcomes: int = 0
    #: wall-clock seconds spent in recovery (replay + bootstrap).
    recovery_s: float = 0.0
    #: WAL records dropped by the post-recovery checkpoint.
    truncated_records: int = 0

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
) -> tuple[ShardRecovery, int]:
    """Pass 2 for one shard: redo the tail, resolve in-doubt prepares,
    restore ``LastCTS``, bootstrap the version indexes.

    Touches only shard-local state (the shard manager, its tables and
    context and its commit-WAL daemon) plus the read-only
    ``decisions`` map, so shards can run concurrently.  Returns the
    per-shard report and the highest timestamp seen (merged
    deterministically by the caller — max is order-free).
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

    # LastCTS: the commit WAL is its one durable record — the checkpoint
    # marker's snapshot raised by the timestamps just replayed.
    restored = {
        group_id: group_cts.get(group_id, 0)
        for group_id in shard.context.group_ids()
    }
    shard.context.restore_last_cts(restored)
    info.last_cts = restored

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
                # the redo pass above already put this value in the base
                # table, so the entry is clean (evictable once old enough)
                table.install_version(key, value, ts, clean=True)
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
        # the flag, no migration ever ran and nothing can have moved a
        # key off its home shard: a misrouted key means a hand-edited or
        # damaged layout, and recovery refuses it instead of deleting
        # what may be the only copy of a committed row.
        if lazy:
            # The version index only holds the tail here, so the sweep
            # must read the *backend*.  Only a dir that durably started a
            # migration can hold leftovers; a never-migrated lazy dir
            # skips the scan entirely, keeping startup O(tail).
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
                raise StorageError(
                    f"shard {idx} of {manager.data_dir} holds key "
                    f"{stale[0]!r} of state {table.state_id!r}, which its "
                    "slot map routes to shard "
                    f"{manager.slot_map.shard_of(stale[0])}, but no slot "
                    "migration ever started there; the layout is damaged "
                    "or hand-edited — refusing to recover over it"
                )
            info.stale_keys_purged += table.evict_keys(stale)
            if not lazy:
                info.rows_loaded[table.state_id] -= len(stale)
    return info, max_seen


def recover_sharded(
    manager: "ShardedTransactionManager",
    max_workers: int | None = None,
) -> ShardedRestartReport:
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
    report = ShardedRestartReport()
    shard_ids = range(manager.num_shards)
    workers = _resolve_workers(manager.num_shards, max_workers)

    def parse_tail(idx: int):
        return commit_wal_tail(manager.commit_wal_path(manager.data_dir, idx))

    def run_shard(idx: int) -> tuple[ShardRecovery, int]:
        marker, records = tails[idx]
        return _recover_shard(manager, idx, marker, records, decisions)

    decisions: dict[int, int] = {}
    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="shard-recovery"
    ) as pool:
        # Pass 1 — parse every shard's tail and gather global commit
        # evidence: the coordinator log's decisions plus every durable
        # commit record (a commit record on any participant proves the
        # decision was commit).  The decision map needs *every* tail
        # before any shard can resolve its prepares, so this pass is a
        # barrier before pass 2.
        tails = dict(zip(shard_ids, pool.map(parse_tail, shard_ids)))
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
        outcomes = list(pool.map(run_shard, shard_ids))
    report.shards = [info for info, _ in outcomes]
    max_seen = max((seen for _, seen in outcomes), default=0)

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

    manager.oracle.advance_to(max_seen)
    report.oracle_restarted_at = manager.oracle.current()

    # Truncate the replayed tails (and the now-covered coordinator
    # decisions) so a second crash replays only post-recovery work.  The
    # full cut rewrites each WAL to just its marker, which also drops a
    # crash-torn tail frame that would otherwise hide every later append
    # from replay.  Its own count covers only records this process
    # enqueued — none yet — so the replayed tails are added.
    report.truncated_records = report.tail_records + manager.checkpoint(
        parallel=workers > 1
    )
    report.recovery_s = time.perf_counter() - t0
    return report
