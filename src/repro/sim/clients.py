"""Simulated protocol clients: the Figure-4 workload in virtual time.

Each client is a coroutine driving *real* core data structures (state
tables, write/read sets, version arrays, First-Committer-Wins and backward
validation logic, the shared state context with its group ``LastCTS``)
while charging service times from the :class:`~repro.sim.costmodel.CostModel`
and synchronising through simulated locks/latches.

The paper's workload (Section 5.1): one stream writer continuously writing
to two grouped states (transactions of 10 operations), N ad-hoc readers
each running 10-point-read transactions, keys Zipf(θ)-distributed.

Protocol timing behaviour reproduced:

* **MVCC** — readers pin a snapshot and never block or abort; the writer
  commits under short per-table latches plus one synchronous I/O.
* **S2PL** — clients acquire simulated key locks (readers S, writer X) in
  key order and hold them until commit end, so the writer's lock span
  covers its synchronous I/O and readers queue behind it on hot keys.
  Acquisition is conservative: every client takes its whole lock set in
  one global order, so no wait cycle can form and no deadlock detector is
  needed.
* **BOCC** — readers run latch-free and validate backward in a serial
  critical section against commits that finished during their read phase;
  a conflict restarts the whole read phase (fresh timestamp), burning the
  attempt's work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.context import StateContext
from ..core.table import StateTable
from ..core.write_set import WriteSet
from ..storage.kvstore import MemoryKVStore
from ..workload.generator import GROUP_ID, WorkloadConfig, WorkloadGenerator
from .costmodel import CostModel, SimCache
from .des import Acquire, Delay, Release, Simulator
from .resources import SimLatch, SimLock


@dataclass
class SimStats:
    """Counters shared by all clients of one simulation run."""

    reader_commits: int = 0
    writer_commits: int = 0
    reader_aborts: int = 0
    writer_aborts: int = 0
    reads: int = 0
    writes: int = 0
    lock_waits: int = 0
    validations: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def commits(self) -> int:
        return self.reader_commits + self.writer_commits

    @property
    def aborts(self) -> int:
        return self.reader_aborts + self.writer_aborts


@dataclass
class _BOCCRecord:
    commit_ts: int
    writes: dict[str, set[Any]]


class SimEnvironment:
    """Shared world of one simulation run: context, tables, locks, cache."""

    def __init__(
        self,
        config: WorkloadConfig,
        cost: CostModel | None = None,
        populate: bool = False,
    ) -> None:
        self.config = config
        self.cost = cost or CostModel()
        self.context = StateContext()
        self.tables: dict[str, StateTable] = {}
        for state_id in config.states:
            self.context.register_state(state_id)
            self.tables[state_id] = StateTable(state_id, backend=MemoryKVStore())
        self.context.register_group(GROUP_ID, list(config.states))
        if populate:
            # Timing does not depend on data presence, but correctness
            # assertions in tests do; benches keep tables lazy for speed.
            from ..workload.generator import initial_rows

            for table in self.tables.values():
                table.bulk_load(initial_rows(config))

        self.cache = SimCache(self.cost.cache_capacity)
        self.stats = SimStats()
        #: simulated per-(state, key) reader-writer locks (S2PL), lazy.
        self._key_locks: dict[tuple[str, Any], SimLock] = {}
        #: simulated per-state commit latches (MVCC / S2PL apply step).
        self.commit_latches = {
            state_id: SimLatch(f"commit:{state_id}") for state_id in config.states
        }
        #: simulated serial validation section (BOCC).
        self.validation_latch = SimLatch("bocc:validation")
        self._bocc_log: list[_BOCCRecord] = []
        self._bocc_active: dict[int, int] = {}  # client id -> start_ts

    def key_lock(self, state_id: str, key: Any) -> SimLock:
        lock = self._key_locks.get((state_id, key))
        if lock is None:
            lock = self._key_locks[(state_id, key)] = SimLock(f"{state_id}:{key}")
        return lock

    def group_of(self, state_id: str) -> str:
        return self.context.state(state_id).group_id

    # BOCC bookkeeping -----------------------------------------------------

    def bocc_begin(self, client_id: int, start_ts: int) -> None:
        self._bocc_active[client_id] = start_ts

    def bocc_end(self, client_id: int) -> None:
        self._bocc_active.pop(client_id, None)

    def bocc_records_after(self, start_ts: int) -> list[_BOCCRecord]:
        return [r for r in self._bocc_log if r.commit_ts > start_ts]

    def bocc_append(self, record: _BOCCRecord) -> None:
        self._bocc_log.append(record)
        horizon = min(self._bocc_active.values(), default=record.commit_ts)
        keep = 0
        for i, rec in enumerate(self._bocc_log):
            if rec.commit_ts > horizon:
                keep = i
                break
        else:
            keep = max(0, len(self._bocc_log) - 1)
        if keep:
            del self._bocc_log[:keep]


# --------------------------------------------------------------------------
# MVCC clients
# --------------------------------------------------------------------------


def mvcc_reader(
    env: SimEnvironment, sim: Simulator, wl: WorkloadGenerator, deadline: float
):
    """Snapshot-isolated ad-hoc reader: never blocks, never aborts."""
    cost = env.cost
    while sim.now < deadline:
        script = wl.reader_transaction()
        service = cost.begin_us + cost.mvcc_pin_us
        for op in script.ops:
            hit = env.cache.access((op.state_id, op.key))
            service += cost.read_us(hit) + cost.mvcc_read_overhead_us
        yield Delay(service)
        txn = env.context.begin()
        for op in script.ops:
            ts = env.context.pin_snapshot(txn, env.group_of(op.state_id))
            env.tables[op.state_id].read_version_at(op.key, ts)
            env.stats.reads += 1
        env.context.finish(txn)
        env.stats.reader_commits += 1


def mvcc_writer(
    env: SimEnvironment, sim: Simulator, wl: WorkloadGenerator, deadline: float
):
    """The stream writer: buffered writes, FCW validation, sync commit."""
    cost = env.cost
    while sim.now < deadline:
        script = wl.writer_transaction()
        txn = env.context.begin()
        yield Delay(cost.begin_us + len(script.ops) * cost.write_buffer_us)
        write_sets: dict[str, WriteSet] = {}
        for op in script.ops:
            write_sets.setdefault(op.state_id, WriteSet()).upsert(op.key, op.value)
            env.stats.writes += 1

        states = sorted(write_sets)
        for state_id in states:
            yield Acquire(env.commit_latches[state_id])
        yield Delay(len(states) * cost.latch_us)

        # First-Committer-Wins against the real version arrays.
        conflict = False
        for state_id in states:
            snapshot = txn.snapshot_or_start(env.group_of(state_id))
            table = env.tables[state_id]
            if any(table.latest_cts(k) > snapshot for k in write_sets[state_id].entries):
                conflict = True
                break
        if conflict:
            for state_id in reversed(states):
                yield Release(env.commit_latches[state_id])
            env.context.finish(txn)
            env.stats.writer_aborts += 1
            continue

        nkeys = sum(len(ws) for ws in write_sets.values())
        yield Delay(cost.commit_base_us + nkeys * cost.apply_per_key_us)
        yield Delay(cost.commit_sync_io_us)
        commit_ts = env.context.oracle.next()
        oldest = env.context.oldest_active_version()
        for state_id in states:
            env.tables[state_id].apply_write_set(write_sets[state_id], commit_ts, oldest)
        env.context.publish_group_commit(GROUP_ID, commit_ts)
        for state_id in reversed(states):
            yield Release(env.commit_latches[state_id])
        env.context.finish(txn)
        env.stats.writer_commits += 1


# --------------------------------------------------------------------------
# S2PL clients
# --------------------------------------------------------------------------


def s2pl_reader(
    env: SimEnvironment, sim: Simulator, wl: WorkloadGenerator, deadline: float
):
    """Locking reader: S locks per key, held until transaction end."""
    cost = env.cost
    while sim.now < deadline:
        script = wl.reader_transaction()
        resources = sorted(
            {(op.state_id, op.key) for op in script.ops},
            key=lambda r: (r[0], r[1]),
        )
        held = []
        service = cost.begin_us
        yield Delay(len(resources) * cost.lock_acquire_us)
        for state_id, key in resources:
            lock = env.key_lock(state_id, key)
            if lock.held() or lock.queue_length():
                env.stats.lock_waits += 1
            yield Acquire(lock, "S")
            held.append(lock)
        for op in script.ops:
            hit = env.cache.access((op.state_id, op.key))
            service += cost.read_us(hit)
        yield Delay(service)
        for op in script.ops:
            env.tables[op.state_id].read_live(op.key)
            env.stats.reads += 1
        yield Delay(cost.lock_release_all_us)
        for lock in reversed(held):
            yield Release(lock)
        env.stats.reader_commits += 1


def s2pl_writer(
    env: SimEnvironment, sim: Simulator, wl: WorkloadGenerator, deadline: float
):
    """Locking writer: X locks per key, held across the synchronous commit."""
    cost = env.cost
    while sim.now < deadline:
        script = wl.writer_transaction()
        resources = sorted(
            {(op.state_id, op.key) for op in script.ops},
            key=lambda r: (r[0], r[1]),
        )
        held = []
        yield Delay(len(resources) * cost.lock_acquire_us)
        for state_id, key in resources:
            lock = env.key_lock(state_id, key)
            if lock.held() or lock.queue_length():
                env.stats.lock_waits += 1
            yield Acquire(lock, "X")
            held.append(lock)

        yield Delay(len(script.ops) * cost.write_buffer_us)
        write_sets: dict[str, WriteSet] = {}
        for op in script.ops:
            write_sets.setdefault(op.state_id, WriteSet()).upsert(op.key, op.value)
            env.stats.writes += 1

        states = sorted(write_sets)
        for state_id in states:
            yield Acquire(env.commit_latches[state_id])
        nkeys = sum(len(ws) for ws in write_sets.values())
        yield Delay(cost.commit_base_us + nkeys * cost.apply_per_key_us)
        yield Delay(cost.commit_sync_io_us)
        commit_ts = env.context.oracle.next()
        oldest = env.context.oldest_active_version()
        for state_id in states:
            env.tables[state_id].apply_write_set(write_sets[state_id], commit_ts, oldest)
        env.context.publish_group_commit(GROUP_ID, commit_ts)
        for state_id in reversed(states):
            yield Release(env.commit_latches[state_id])
        # strict 2PL: key locks released only after the durable commit.
        yield Delay(cost.lock_release_all_us)
        for lock in reversed(held):
            yield Release(lock)
        env.stats.writer_commits += 1


# --------------------------------------------------------------------------
# BOCC clients
# --------------------------------------------------------------------------


def bocc_reader(
    env: SimEnvironment,
    sim: Simulator,
    wl: WorkloadGenerator,
    deadline: float,
    client_id: int,
):
    """Optimistic reader: free read phase, serial backward validation,
    whole-transaction restart on conflict."""
    cost = env.cost
    while sim.now < deadline:
        script = wl.reader_transaction()
        while True:  # attempts until validation passes
            start_ts = env.context.oracle.next()
            env.bocc_begin(client_id, start_ts)
            service = cost.begin_us
            read_sets: dict[str, set[Any]] = {}
            for op in script.ops:
                hit = env.cache.access((op.state_id, op.key))
                service += cost.read_us(hit)
                read_sets.setdefault(op.state_id, set()).add(op.key)
            yield Delay(service)
            for op in script.ops:
                env.tables[op.state_id].read_live(op.key)
                env.stats.reads += 1

            yield Acquire(env.validation_latch)
            records = env.bocc_records_after(start_ts)
            yield Delay(cost.validate_base_us + len(records) * cost.validate_per_record_us)
            env.stats.validations += 1
            conflict = any(
                read_sets.get(state_id) and read_sets[state_id] & keys
                for record in records
                for state_id, keys in record.writes.items()
            )
            yield Release(env.validation_latch)
            env.bocc_end(client_id)
            if not conflict:
                env.stats.reader_commits += 1
                break
            env.stats.reader_aborts += 1
            if sim.now >= deadline:
                return


def bocc_writer(
    env: SimEnvironment,
    sim: Simulator,
    wl: WorkloadGenerator,
    deadline: float,
    client_id: int,
):
    """Optimistic writer: empty read set always validates; write phase
    applies inside the critical section, durability I/O outside."""
    cost = env.cost
    while sim.now < deadline:
        script = wl.writer_transaction()
        start_ts = env.context.oracle.next()
        env.bocc_begin(client_id, start_ts)
        yield Delay(cost.begin_us + len(script.ops) * cost.write_buffer_us)
        write_sets: dict[str, WriteSet] = {}
        for op in script.ops:
            write_sets.setdefault(op.state_id, WriteSet()).upsert(op.key, op.value)
            env.stats.writes += 1

        # serial section: validation + commit-record publication only, so
        # readers' validations are never stuck behind the writer's apply/IO.
        yield Acquire(env.validation_latch)
        yield Delay(cost.validate_base_us)
        env.stats.validations += 1
        commit_ts = env.context.oracle.next()
        env.bocc_append(
            _BOCCRecord(commit_ts, {sid: ws.keys() for sid, ws in write_sets.items()})
        )
        yield Release(env.validation_latch)

        nkeys = sum(len(ws) for ws in write_sets.values())
        yield Delay(cost.commit_base_us + nkeys * cost.apply_per_key_us)
        oldest = env.context.oldest_active_version()
        for state_id, write_set in sorted(write_sets.items()):
            env.tables[state_id].apply_write_set(write_set, commit_ts, oldest)
        yield Delay(cost.commit_sync_io_us)  # durability outside the section
        env.context.publish_group_commit(GROUP_ID, commit_ts)
        env.bocc_end(client_id)
        env.stats.writer_commits += 1


#: protocol name -> (reader factory, writer factory).  Reader/writer
#: factories share the signature (env, sim, wl, deadline [, client_id]).
CLIENTS = {
    "mvcc": (mvcc_reader, mvcc_writer),
    "s2pl": (s2pl_reader, s2pl_writer),
    "bocc": (bocc_reader, bocc_writer),
}
