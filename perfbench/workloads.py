"""The four workloads of the real-engine benchmark.

Every workload drives the real engine (no ``repro.sim``) through two
grouped states, ``measurements1`` and ``measurements2`` — the paper's
Section-5 benchmark pair.  A stream transaction writes the same batch tag
into both states, so every query can check the group's consistency: for
every key it reads, both states must show the same tag.

Inputs come only from the seed: each input stream has its own ``random.Random``
seeded with a string (string seeds do not depend on ``PYTHONHASHSEED``),
and the engine sees nothing but the generated keys and values.

A workload object lives for one set-up: ``setup`` builds the engine,
``warmup`` runs a fixed operation count (its counters must repeat
exactly for a given seed), ``measure`` runs the closed-loop client on the
calling thread for a fixed step count, and ``verify`` compares the final state
with a reference replay of every committed transaction, kept as a running
expected state.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core import ShardedTransactionManager, TransactionManager
from repro.core.gc import GCPolicy
from repro.errors import ReplicaAckTimeout
from repro.storage.lsm import LSMOptions
from repro.streams import Topology
from repro.streams.punctuations import bot, commit
from repro.streams.sources import Source
from repro.streams.tuples import StreamTuple

STATES = ("measurements1", "measurements2")
GROUP = "meter"
QUERY_KEYS = 10
#: The measured phase runs in this many fixed-count segments.
SEGMENTS = 16


class Zipf:
    """Seeded Zipf(theta) over ``n`` ranks, mapped to keys by a seeded
    permutation so the hot keys spread over shards and key ranges."""

    def __init__(self, n: int, theta: float, rng: random.Random) -> None:
        total = 0.0
        self._cdf = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** theta
            self._cdf.append(total)
        self._total = total
        self._perm = list(range(n))
        rng.shuffle(self._perm)
        self._rng = rng

    def __call__(self) -> int:
        rank = bisect.bisect_left(self._cdf, self._rng.random() * self._total)
        return self._perm[min(rank, len(self._perm) - 1)]

    def distinct(self, count: int) -> list[int]:
        out: list[int] = []
        while len(out) < count:
            value = self()
            if value not in out:
                out.append(value)
        return out


@dataclass
class Samples:
    """What the client measured (latencies in seconds)."""

    txn: list[float] = field(default_factory=list)
    query: list[float] = field(default_factory=list)
    scan: list[float] = field(default_factory=list)
    rows: int = 0
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def merge(self, other: "Samples") -> None:
        self.txn += other.txn
        self.query += other.query
        self.scan += other.scan
        self.rows += other.rows
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


@dataclass
class Segment:
    """One segment of the measured phase, with what the pause before it
    and the pause after it returned."""

    samples: Samples
    before: float
    after: float


class ConsistencyError(AssertionError):
    """An output check failed: the engine returned a state the paper's
    consistency guarantees rule out."""


class Workload:
    """Shared bookkeeping: tags, expected state, query checks, replay."""

    name = ""
    #: Steps per second of ``--seconds``: a little under what one run
    #: achieves at the reference speed of ``run.REFERENCE_S``.
    STEPS_PER_SECOND = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: tag -> keys the stream transaction with that tag wrote.
        self.txn_keys: dict[int, tuple[int, ...]] = {}
        #: reference replay: bulk-loaded rows with every committed
        #: transaction applied in commit order.
        self.expected: dict[int, tuple[int, int]] = {}

    def load_rows(self, keys: int) -> list[tuple[int, tuple[int, int]]]:
        """The bulk-loaded rows (tag 0); also resets the replay state."""
        rng = self.rng("bulk")
        self.expected = {k: (0, rng.randrange(1 << 16)) for k in range(keys)}
        self.txn_keys = {}
        return sorted(self.expected.items())

    def committed(self, tag: int, rows: dict[int, int]) -> None:
        for key, reading in rows.items():
            self.expected[key] = (tag, reading)

    def rng(self, role: str) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{role}")

    # -- checks -----------------------------------------------------------

    def check_group(self, keys: list[int], first: dict, second: dict) -> None:
        """Multi-state consistency and cross-shard atomicity of one read.

        Both states must show the same tag for every key.  A transaction
        that wrote several keys must be all-or-nothing: if one key shows
        tag ``t``, every other key ``t`` wrote shows ``t`` or a later tag
        (tags grow in commit order)."""
        seen: dict[int, int] = {}
        for key in keys:
            a, b = first.get(key), second.get(key)
            if a is None or b is None:
                raise ConsistencyError(f"key {key} missing: {a!r} / {b!r}")
            if a[0] != b[0]:
                raise ConsistencyError(
                    f"key {key}: measurements1 tag {a[0]} != "
                    f"measurements2 tag {b[0]}"
                )
            seen[key] = a[0]
        for key, tag in seen.items():
            if tag == 0:
                continue
            for other in self.txn_keys[tag]:
                if other != key and other in seen and seen[other] < tag:
                    raise ConsistencyError(
                        f"torn transaction {tag}: key {key} shows it, key "
                        f"{other} shows older tag {seen[other]}"
                    )

    def verify(self) -> None:
        """Final state of both states == reference replay of the commits."""
        expected = self.expected
        for state_id, rows in zip(STATES, self.final_scan()):
            if rows != expected:
                missing = expected.keys() - rows.keys()
                wrong = [k for k in rows if rows[k] != expected.get(k)]
                raise ConsistencyError(
                    f"{state_id} differs from the replay: {len(missing)} "
                    f"missing, {len(wrong)} wrong (e.g. {wrong[:3]})"
                )

    # -- engine-specific hooks -------------------------------------------

    def setup(self, data_dir: Path) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        samples = Samples()
        self._warmup(samples)
        if samples.failed or samples.errors:
            raise ConsistencyError(f"warm-up failed: {samples.errors[:3]}")

    def _warmup(self, samples: Samples) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, pause: Callable[[], float]) -> list[Segment]:
        """Run the closed-loop client for a fixed number of steps,
        ``seconds`` times ``STEPS_PER_SECOND``, in ``SEGMENTS`` segments.
        The work, not the clock, is fixed, so two versions of the engine
        run identical operations and the phase's wall time is what
        differs.  ``pause`` runs before the first segment and after each
        one; each segment keeps what it returned on both sides."""
        steps = max(SEGMENTS, round(seconds * self.STEPS_PER_SECOND))
        segments: list[Segment] = []
        before = pause()
        for seg in range(SEGMENTS):
            samples = Samples()
            began = time.perf_counter()
            for _ in range(steps * seg // SEGMENTS, steps * (seg + 1) // SEGMENTS):
                self._step(samples)
            samples.elapsed = time.perf_counter() - began
            after = pause()
            segments.append(Segment(samples, before, after))
            before = after
        return segments

    def _step(self, samples: Samples) -> None:
        raise NotImplementedError

    def _scan(self, low: int, high: int, samples: Samples) -> None:
        """Range scan of both states under one snapshot; one sample each."""
        samples.attempted += 1
        with self.mgr.snapshot() as view:
            t0 = time.perf_counter()
            first = dict(view.scan(STATES[0], low, high))
            t1 = time.perf_counter()
            second = dict(view.scan(STATES[1], low, high))
            t2 = time.perf_counter()
        samples.scan += [t1 - t0, t2 - t1]
        if first.keys() != second.keys():
            raise ConsistencyError(f"scan [{low},{high}) key sets differ")
        self.check_group(sorted(first), first, second)

    def final_scan(self) -> list[dict]:
        with self.mgr.snapshot() as view:
            return [dict(view.scan(state_id)) for state_id in STATES]

    def counters(self) -> dict[str, float]:
        return engine_counters(self.mgr)

    def close(self) -> None:
        self.mgr.close()


#: Counters of ``engine_counters`` that depend on the inputs only, never
#: on timing, as long as one thread drives the engine (the warm-up).
EXACT_COUNTERS = (
    "durable_records",
    "commits",
    "cross_shard_commits",
    "hydrations",
    "residency_evictions",
    "lsm_sstable_reads",
    "gc_reclaimed",
)


def engine_counters(mgr: Any) -> dict[str, float]:
    """The engine's cumulative layer counters, for either manager type.

    Read from the public ``stats()`` and ``replication_stats()``; only
    LSM gets and value-cache hits and misses, which ``stats()`` does not
    sum, come from the stores themselves."""
    stats = mgr.stats()
    out: dict[str, float] = {
        key: stats.get(key, 0)
        for key in (
            "commits", "aborts", "hydrations", "residency_evictions",
            "cross_shard_commits", "single_shard_commits",
            "barrier_slow_path", "barrier_fast_path", "durable_records",
            "fsync_batches", "lsm_sstable_reads", "lsm_bloom_skips",
            "lsm_flushes", "lsm_compactions", "lsm_stall_seconds",
            "background_checkpoints",
        )
    }
    out["gc_reclaimed"] = sum(
        shard.gc.total_reclaimed for shard in getattr(mgr, "shards", [mgr])
    )
    out["records_shipped"] = out["batches_shipped"] = 0
    if isinstance(mgr, ShardedTransactionManager):
        for shard in mgr.replication_stats()["shards"]:
            if shard is not None:
                out["records_shipped"] += shard["records_shipped"]
                out["batches_shipped"] += shard["batches_shipped"]
    out["lsm_gets"] = out["lsm_cache_hits"] = out["lsm_cache_misses"] = 0
    for store in getattr(mgr, "_lsm_backends", lambda: [])():
        out["lsm_gets"] += store.stats.gets
        out["lsm_cache_hits"] += store._cache.hits
        out["lsm_cache_misses"] += store._cache.misses
    return out


# ---------------------------------------------------------------------------
# sharded engine: shared transaction and query bodies
# ---------------------------------------------------------------------------


class _ShardedWorkload(Workload):
    NUM_SHARDS = 4
    mgr: ShardedTransactionManager

    def _write_txn(self, tag: int, rows: dict[int, int], samples: Samples) -> None:
        """One stream transaction: the batch into both grouped states."""
        mgr = self.mgr
        self.txn_keys[tag] = tuple(rows)
        samples.attempted += 1
        t0 = time.perf_counter()
        txn = mgr.begin(list(STATES))
        try:
            for state_id in STATES:
                for key, reading in rows.items():
                    mgr.write(txn, state_id, key, (tag, reading))
            mgr.commit(txn)
        except ReplicaAckTimeout:
            # Committed and locally durable; only the replica quorum
            # confirmation timed out.  Counted as failed, replayed as
            # committed.
            samples.failed += 1
        except Exception as exc:
            if not txn.is_finished():
                mgr.abort(txn)
            samples.failed += 1
            samples.errors.append(f"{type(exc).__name__}: {exc}")
            return
        samples.txn.append(time.perf_counter() - t0)
        samples.rows += len(rows) * len(STATES)
        self.committed(tag, rows)

    def _query(self, keys: list[int], samples: Samples) -> None:
        """One ad-hoc query: ``read_many`` over both states, one snapshot."""
        mgr = self.mgr
        samples.attempted += 1
        t0 = time.perf_counter()
        txn = mgr.begin()
        try:
            first = mgr.read_many(txn, STATES[0], keys)
            second = mgr.read_many(txn, STATES[1], keys)
            mgr.commit(txn)
        except Exception as exc:
            if not txn.is_finished():
                mgr.abort(txn)
            samples.failed += 1
            samples.errors.append(f"{type(exc).__name__}: {exc}")
            return
        samples.query.append(time.perf_counter() - t0)
        self.check_group(keys, first, second)



# ---------------------------------------------------------------------------
# ingest_replicated
# ---------------------------------------------------------------------------


class IngestReplicated(_ShardedWorkload):
    """A closed-loop stream writer on the durable, replicated write path.

    Keys ``0..KEYS-1``; key ``4 * row + shard`` lives on ``shard``.  A
    transaction writes ``BATCH`` keys of one shard; every
    ``CROSS_EVERY``-th writes ``BATCH/2`` rows' key pairs on two shards.
    The writer runs one query after every ``QUERY_EVERY`` transactions and
    one scan after every ``SCAN_EVERY`` transactions.

    The writer never waits on another thread: commits are acknowledged
    before their fsync (``durability="async"``) and before replicas
    confirm (``ack="local"``).  The group fsync, replication, checkpoint
    and maintenance daemons still do all their work and share the
    interpreter lock with the writer, so their cost shows in the
    writer's latency and throughput.  Waits for other threads' wake-ups
    made a run's transaction p50 swing by a third between runs.
    """

    name = "ingest_replicated"
    KEYS = 4096
    BATCH = 8
    THETA = 0.6
    CROSS_EVERY = 10
    QUERY_EVERY = 4
    SCAN_EVERY = 100
    SCAN_SPAN = 256
    WARMUP_TXNS = 300
    CHECKPOINT_INTERVAL = 2048
    MEMTABLE_BYTES = 128 * 1024
    STEPS_PER_SECOND = 400

    def setup(self, data_dir: Path) -> None:
        rows = self.load_rows(self.KEYS)
        rng = self.rng("writer")
        self.client = {
            "rng": rng,
            "zipf": Zipf(self.KEYS // self.NUM_SHARDS, self.THETA, rng),
            "seq": 0,
        }
        self.mgr = ShardedTransactionManager(
            num_shards=self.NUM_SHARDS,
            protocol="mvcc",
            data_dir=data_dir,
            replication_factor=1,
            ack="local",
            durability="async",
            checkpoint_interval=self.CHECKPOINT_INTERVAL,
            lsm_options=LSMOptions(sync=False, memtable_bytes=self.MEMTABLE_BYTES),
        )
        for state_id in STATES:
            self.mgr.create_table(state_id)
        self.mgr.register_group(GROUP, list(STATES))
        for state_id in STATES:
            self.mgr.bulk_load(state_id, rows)

    def _next_txn(self) -> tuple[int, dict[int, int]]:
        client = self.client
        rng, zipf = client["rng"], client["zipf"]
        client["seq"] += 1
        seq = client["seq"]
        shard = rng.randrange(self.NUM_SHARDS)
        rows: dict[int, int] = {}
        if seq % self.CROSS_EVERY == 0:
            partner = (shard + 1) % self.NUM_SHARDS
            for row in zipf.distinct(self.BATCH // 2):
                rows[4 * row + shard] = rng.randrange(1 << 16)
                rows[4 * row + partner] = rng.randrange(1 << 16)
        else:
            for row in zipf.distinct(self.BATCH):
                rows[4 * row + shard] = rng.randrange(1 << 16)
        return seq, rows

    def _query_keys(self) -> list[int]:
        """Five key pairs that cross-shard transactions write together."""
        rng, zipf = self.client["rng"], self.client["zipf"]
        shard = rng.randrange(self.NUM_SHARDS)
        partner = (shard + 1) % self.NUM_SHARDS
        keys: list[int] = []
        for row in zipf.distinct(QUERY_KEYS // 2):
            keys += [4 * row + shard, 4 * row + partner]
        return keys

    def _step(self, samples: Samples) -> None:
        tag, rows = self._next_txn()
        self._write_txn(tag, rows, samples)
        if tag % self.QUERY_EVERY == 0:
            self._query(self._query_keys(), samples)
        if tag % self.SCAN_EVERY == 0:
            low = self.client["rng"].randrange(self.KEYS - self.SCAN_SPAN)
            self._scan(low, low + self.SCAN_SPAN, samples)

    def _warmup(self, samples: Samples) -> None:
        for _ in range(self.WARMUP_TXNS):
            self._step(samples)
        self.mgr.flush_durability()


# ---------------------------------------------------------------------------
# adhoc_cold
# ---------------------------------------------------------------------------


class AdhocCold(_ShardedWorkload):
    """Ad-hoc reads on a store several times larger than its budgets.

    The store (``KEYS`` rows per state) is built, checkpointed, closed and
    reopened with ``state_residency="lazy"``; ``memory_budget`` and
    ``cache_budget`` hold an eighth of the rows.  One closed-loop client
    runs Zipf queries over every key through ``read_many``, one stream
    transaction per ``WRITE_EVERY`` queries and one range scan of both
    states per ``SCAN_EVERY`` queries.

    Stream transactions update a fixed pool of ``POOL`` active meters
    (a seeded sample of ``POOL / 4`` keys of each shard), and the warm-up
    writes every pool key once.  A written key keeps a version array the
    residency sweep cannot evict, so the pool is what stays pinned in
    memory; it is the same size in every run, which keeps the measured
    phase stationary.
    """

    name = "adhoc_cold"
    STEPS_PER_SECOND = 300
    KEYS = 24000
    POOL = 2048
    BATCH = 8
    THETA = 0.8
    WRITE_EVERY = 2
    SCAN_EVERY = 300
    SCAN_SPAN = 500
    WARMUP_QUERIES = 300

    def setup(self, data_dir: Path) -> None:
        rows = self.load_rows(self.KEYS)
        # The same number of written keys on every shard, whatever the
        # seed: the resident set, and with it the eviction walk, is then
        # the same size in every run.
        rng = self.rng("pool")
        self.pools = [
            sorted(rng.sample(range(shard, self.KEYS, self.NUM_SHARDS),
                              self.POOL // self.NUM_SHARDS))
            for shard in range(self.NUM_SHARDS)
        ]
        rng = self.rng("client")
        self.client = {
            "rng": rng,
            "zipf": Zipf(self.KEYS, self.THETA, rng),
            "pool_zipf": [Zipf(len(part), self.THETA, rng) for part in self.pools],
            "seq": 0,
        }
        build = ShardedTransactionManager(
            num_shards=self.NUM_SHARDS, protocol="mvcc", data_dir=data_dir
        )
        for state_id in STATES:
            build.create_table(state_id)
        build.register_group(GROUP, list(STATES))
        for state_id in STATES:
            build.bulk_load(state_id, rows)
        build.close()
        budget = len(STATES) * self.KEYS // 8
        # Commits acknowledge before their fsync (the daemon still syncs
        # every batch): on this read workload the commit latency should be
        # the engine's commit path, not the disk's fsync latency.  Storage
        # maintenance runs inline: the maintenance daemon's eviction
        # sweeps hold the commit latch and race the reader for the
        # interpreter lock, and with them the query mean spread by a
        # quarter between runs.
        self.mgr = ShardedTransactionManager.open(
            data_dir,
            state_residency="lazy",
            memory_budget=budget,
            cache_budget=budget,
            durability="async",
            storage_maintenance="inline",
        )

    def _write(self, keys: list[int], samples: Samples) -> None:
        rng = self.client["rng"]
        self.writes += 1
        rows = {key: rng.randrange(1 << 16) for key in keys}
        self._write_txn(self.writes, rows, samples)

    def _step(self, samples: Samples) -> None:
        inputs = self.client
        rng = inputs["rng"]
        inputs["seq"] += 1
        seq = inputs["seq"]
        self._query(inputs["zipf"].distinct(QUERY_KEYS), samples)
        if seq % self.WRITE_EVERY == 0:
            shard = rng.randrange(self.NUM_SHARDS)
            part = self.pools[shard]
            self._write(
                [part[i] for i in inputs["pool_zipf"][shard].distinct(self.BATCH)],
                samples,
            )
        if seq % self.SCAN_EVERY == 0:
            low = rng.randrange(self.KEYS - self.SCAN_SPAN)
            self._scan(low, low + self.SCAN_SPAN, samples)

    def _warmup(self, samples: Samples) -> None:
        self.writes = 0
        for part in self.pools:
            for i in range(0, len(part), self.BATCH):
                self._write(part[i:i + self.BATCH], samples)
        for _ in range(self.WARMUP_QUERIES):
            self._step(samples)


class AdhocPinned(AdhocCold):
    """``adhoc_cold`` with more written keys than the residency budget.

    The pool of written meters holds ``POOL / 4`` keys per shard and
    state, above the shard's ``KEYS / 32`` share of ``memory_budget``.
    Written keys keep version arrays that the residency sweep cannot
    evict, so after the warm-up the resident set is over budget for good
    and every query that faults a key in pays the engine's over-budget
    eviction path.  The pool is fixed, so the phase stays stationary."""

    name = "adhoc_pinned"
    STEPS_PER_SECOND = 80
    KEYS = 2000
    POOL = 400
    WRITE_EVERY = 1
    SCAN_EVERY = 50
    WARMUP_QUERIES = 50


# ---------------------------------------------------------------------------
# stream_hot
# ---------------------------------------------------------------------------


class StreamHot(Workload):
    """The paper's path: a punctuated stream into two TO_TABLE states.

    ``Topology.push`` drives BOT -> ``BATCH`` tuples -> COMMIT into the
    group on the single-site, in-memory MVCC ``TransactionManager``.  One
    thread; a snapshot query after every transaction, a range scan every
    ``SCAN_EVERY`` transactions, and every ``HOLD_EVERY`` transactions a
    snapshot that stays open for ``HOLD_FOR`` commits (then re-reads its
    keys and must see the same values), so version arrays fill and the
    periodic GC sweep has work.
    """

    name = "stream_hot"
    STEPS_PER_SECOND = 600
    KEYS = 4096
    BATCH = 10
    THETA = 0.99
    SCAN_EVERY = 50
    SCAN_SPAN = 200
    HOLD_EVERY = 400
    HOLD_FOR = 200
    GC_INTERVAL = 41
    WARMUP_TXNS = 1500

    def setup(self, data_dir: Path) -> None:
        rows = self.load_rows(self.KEYS)
        rng = self.rng("client")
        self.client = {"rng": rng, "zipf": Zipf(self.KEYS, self.THETA, rng), "seq": 0}
        self.held: tuple[Any, list[int], dict, dict] | None = None
        self.held_until = 0
        self.mgr = TransactionManager(
            protocol="mvcc", gc_policy=GCPolicy.PERIODIC, gc_interval=self.GC_INTERVAL
        )
        for state_id in STATES:
            self.mgr.create_table(state_id)
            self.mgr.table(state_id).bulk_load(rows)
        self.topology = Topology(self.mgr, GROUP)
        stream = self.topology.source(Source("readings"))
        for state_id in STATES:
            stream.to_table(state_id)
        self.topology.build()

    def _read_both(self, txn, keys: list[int]) -> tuple[dict, dict]:
        mgr = self.mgr
        return tuple(
            {key: mgr.read(txn, state_id, key) for key in keys}
            for state_id in STATES
        )

    def _step(self, samples: Samples) -> None:
        inputs, mgr, push = self.client, self.mgr, self.topology.push
        rng, zipf = inputs["rng"], inputs["zipf"]
        inputs["seq"] += 1
        tag = inputs["seq"]
        rows = {key: rng.randrange(1 << 16) for key in zipf.distinct(self.BATCH)}
        self.txn_keys[tag] = tuple(rows)
        tuples = [
            StreamTuple((tag, reading), timestamp=tag, key=key)
            for key, reading in rows.items()
        ]
        samples.attempted += 1
        t0 = time.perf_counter()
        try:
            push(bot(tag))
            for tup in tuples:
                push(tup)
            push(commit(tag))
        except Exception as exc:
            samples.failed += 1
            samples.errors.append(f"{type(exc).__name__}: {exc}")
            txn = self.topology.txn_context.current()
            if txn is not None and not txn.is_finished():
                mgr.abort(txn)
            self.topology.txn_context.clear()
            return
        samples.txn.append(time.perf_counter() - t0)
        samples.rows += len(rows) * len(STATES)
        self.committed(tag, rows)

        keys = zipf.distinct(QUERY_KEYS)
        samples.attempted += 1
        t0 = time.perf_counter()
        txn = mgr.begin()
        first, second = self._read_both(txn, keys)
        mgr.commit(txn)
        samples.query.append(time.perf_counter() - t0)
        self.check_group(keys, first, second)

        if tag % self.SCAN_EVERY == 0:
            low = rng.randrange(self.KEYS - self.SCAN_SPAN)
            self._scan(low, low + self.SCAN_SPAN, samples)

        if self.held is None and tag % self.HOLD_EVERY == 0:
            held_txn = mgr.begin()
            held_keys = zipf.distinct(QUERY_KEYS)
            self.held = (held_txn, held_keys, *self._read_both(held_txn, held_keys))
            self.held_until = tag + self.HOLD_FOR
        elif self.held is not None and tag >= self.held_until:
            held_txn, held_keys, first, second = self.held
            if self._read_both(held_txn, held_keys) != (first, second):
                raise ConsistencyError("a held snapshot saw a later commit")
            mgr.commit(held_txn)
            self.held = None

    def _release_held(self) -> None:
        if self.held is not None:
            self.mgr.commit(self.held[0])
            self.held = None

    def _warmup(self, samples: Samples) -> None:
        for _ in range(self.WARMUP_TXNS):
            self._step(samples)

    def final_scan(self) -> list[dict]:
        self._release_held()
        return super().final_scan()

    def close(self) -> None:
        self._release_held()
        super().close()


WORKLOADS = {
    cls.name: cls for cls in (IngestReplicated, AdhocCold, AdhocPinned, StreamHot)
}
