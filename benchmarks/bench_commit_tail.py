"""Commit tail latency with background checkpoints; batched 2PC decisions.

The durability-offload study, on the real engine and real files:

* **background checkpoints** — writer threads commit through a durable
  4-shard manager with ``checkpoint_interval=32``.  The
  :class:`~repro.core.sharding.CheckpointDaemon` absorbs every cut off the
  commit path (fuzzy cut: the quiesced window pays one atomic WAL rewrite,
  no SSTable flush).  Measured: per-commit latency percentiles
  (p50/p95/p99) and how many cuts happened.

* **batched coordinator decisions** — 8 writer threads drive cross-shard
  (2PC) commits over 16 shards.  Every cross-shard commit makes its
  decision durable on the global ``coordinator.log`` before phase two;
  concurrent coordinators share one decision fsync through a
  :class:`~repro.core.durability.GroupFsyncDaemon` exactly like shard
  commits do.  Measured: cross-shard commit throughput and latency
  percentiles.

The inline-checkpoint and fsync-per-decision modes these paths replaced
are gone from the engine, so the study no longer has a runnable baseline
to divide by; ``tests/README.md`` records the last measured ratios.

Device-latency dimension (same rationale as ``bench_group_fsync``): this
container's ``fsync`` barrier is fast and the single-core GIL adds noise
that swamps the I/O structure under test, so each study runs on the
native device and with modelled SSD / cloud-volume barriers (a sleep per
real fsync/flush, which *releases* the GIL exactly like a real device
wait).  The cloud configuration, where durability I/O dominates as it
does in production, reports the median of several rounds.

Results land in ``BENCH_commit_tail.json`` (smoke: the ``.smoke.json``
sidecar).

Run:   pytest benchmarks/bench_commit_tail.py --benchmark-only -s
Smoke: pytest benchmarks/bench_commit_tail.py --benchmark-only -s --smoke
"""

from __future__ import annotations

import gc
import statistics
import threading
import time

import pytest

from repro.core import ShardedTransactionManager
from repro.storage.lsm import LSMOptions

from conftest import latency_stats, record_bench, report_lines

NUM_SHARDS = 4
CHECKPOINT_INTERVAL = 32
CKPT_WRITERS = 4
CKPT_TXNS_PER_WRITER = 200
#: Per-commit payload bulk: makes the periodic LSM flush (SSTable build,
#: bloom filters, compactions) a real cost next to the fixed fsync count
#: — the work the background daemon absorbs off the commit path.
PAD = "x" * 2048

CROSS_WRITERS = 8
#: More shards than the checkpoint study: with few shards the 2PC latch
#: pairs collide so hard that only a couple of decisions can ever be in
#: flight together — 16 shards let all 8 committers run concurrently, so
#: the coordinator log is the shared bottleneck under test, not the
#: participant latches.
CROSS_NUM_SHARDS = 16
CROSS_TXNS_PER_WRITER = 40

#: Modelled device barrier time per fsync/flush (seconds): 0 = native
#: container device, 0.0005 = a local-SSD barrier, 0.003 = the
#: cloud-volume / EBS-class barrier (real barrier flushes span 0.5–5 ms).
#: This container is a single core, so only when durability waits
#: dominate the commit does the I/O *structure* under test (who pays which
#: fsync, what batches) show through the GIL instead of being hidden by it.
DEVICE_LATENCIES_S = [0.0, 0.0005, 0.003]
DEVICE_TAGS = {0.0: "native", 0.0005: "ssd", 0.003: "cloud"}
CLOUD_LATENCY_S = 0.003
#: The cloud configuration runs this many rounds and reports the medians:
#: single-round tail percentiles on a shared single-core container are
#: too noisy to read.
CLOUD_ROUNDS = 3
#: Leader dwell for the coordinator log (PostgreSQL ``commit_delay``):
#: without it batch formation depends on arrival luck — a 1 ms dwell
#: makes 8 concurrent coordinators reliably share each decision fsync at
#: the cost of 1 ms added decision latency.
COORD_BATCH_WINDOW_S = 0.001

SMOKE_CKPT_TXNS_PER_WRITER = 40
SMOKE_CROSS_TXNS_PER_WRITER = 10


def _attach_device_model(smgr: ShardedTransactionManager, extra_s: float) -> None:
    """Add a modelled device barrier to every durability I/O of ``smgr``.

    Wraps (per instance, benchmark-only) the commit WALs' synced batch
    appends, the coordinator log's appends, the WAL rewrites behind
    checkpoint truncation, and the LSM flushes — one sleep per *real*
    barrier, so batched pipelines amortise it and per-commit pipelines pay
    it per commit, exactly as on slower hardware.  ``time.sleep`` releases
    the GIL like a real device wait, so the single-core container stops
    serialising what a production box would overlap.
    """
    if extra_s <= 0.0:
        return

    def wrap_wal(wal) -> None:
        orig_many = wal.append_many
        orig_sync, orig_reset = wal.sync, wal.reset_to

        def append_many(records, sync=None):
            count = orig_many(records, sync)
            if count and (wal.sync_on_append if sync is None else sync):
                time.sleep(extra_s)
            return count

        def sync_():
            orig_sync()
            time.sleep(extra_s)

        def reset_to(records):
            count = orig_reset(records)
            time.sleep(extra_s)
            return count

        wal.append_many = append_many
        wal.sync, wal.reset_to = sync_, reset_to

    def wrap_flush(backend) -> None:
        orig = backend.flush

        def flush():
            before = backend.stats.flushes
            orig()
            if backend.stats.flushes > before:
                time.sleep(extra_s)

        backend.flush = flush

    for daemon in smgr.daemons:
        if daemon is not None:
            wrap_wal(daemon.wal)
    if smgr.coordinator_log is not None:
        wrap_wal(smgr.coordinator_log._wal)
    for shard in range(smgr.num_shards):
        wrap_flush(smgr.table(shard, "t").backend)


def _drive(smgr: ShardedTransactionManager, writers: int, txns_each: int,
           make_keys) -> tuple[list[float], float]:
    """N writer threads commit disjoint-key transactions; returns the
    per-commit latencies (seconds) and the measured wall time."""
    latencies: list[float] = []
    lat_lock = threading.Lock()
    barrier = threading.Barrier(writers + 1)

    def worker(wid: int) -> None:
        local: list[float] = []
        barrier.wait()
        for i in range(txns_each):
            keys = make_keys(wid, i)
            t0 = time.perf_counter()
            txn = smgr.begin()
            for key in keys:
                smgr.write(txn, "t", key, {"i": i, "pad": PAD})
            smgr.commit(txn)
            local.append(time.perf_counter() - t0)
        with lat_lock:
            latencies.extend(local)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(writers)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return latencies, time.perf_counter() - t0


def _single_shard_keys(wid: int, i: int) -> list[int]:
    """One key, home shard rotating with ``i`` — an even single-shard load."""
    return [(wid * 1_000_000 + i) * NUM_SHARDS + (i % NUM_SHARDS)]


def _cross_shard_keys(wid: int, i: int) -> list[int]:
    """Two integer keys on distinct home shards, pair rotating with both
    the writer and the transaction so latch pairs spread over the ring."""
    base = (wid * 1_000_000 + i) * CROSS_NUM_SHARDS + (wid + i) % CROSS_NUM_SHARDS
    return [base, base + 1 + (i % (CROSS_NUM_SHARDS - 1))]


def _median_rounds(rows: list[dict], keys: tuple[str, ...]) -> dict:
    """The first round's row with ``keys`` replaced by the medians over
    every round (a single round is returned as-is)."""
    row = dict(rows[0])
    if len(rows) > 1:
        for key in keys:
            row[key] = statistics.median(r[key] for r in rows)
        row["rounds"] = len(rows)
    return row


@pytest.mark.benchmark(group="commit-tail")
def test_commit_latency_with_background_checkpoints(benchmark, tmp_path, smoke):
    """Per-commit latency percentiles with the checkpoint daemon cutting."""
    txns_each = SMOKE_CKPT_TXNS_PER_WRITER if smoke else CKPT_TXNS_PER_WRITER
    devices = [CLOUD_LATENCY_S] if smoke else DEVICE_LATENCIES_S

    def run_once(device_s: float, tag: str) -> dict:
        gc.collect()
        # auto_compact off: a size-tiered merge firing inside one round's
        # Nth cut but not another's dominates the tail with compaction
        # cost instead of the checkpoint placement under test.
        smgr = ShardedTransactionManager(
            num_shards=NUM_SHARDS,
            protocol="mvcc",
            data_dir=tmp_path / tag,
            checkpoint_interval=CHECKPOINT_INTERVAL,
            lsm_options=LSMOptions(sync=False, auto_compact=False),
        )
        smgr.create_table("t")
        _attach_device_model(smgr, device_s)
        latencies, wall_s = _drive(smgr, CKPT_WRITERS, txns_each, _single_shard_keys)
        stats = smgr.stats()
        smgr.close()
        row = latency_stats(latencies, scale=1e3)  # ms
        row["throughput_tps"] = len(latencies) / wall_s
        row["checkpoints"] = stats["background_checkpoints"]
        return row

    def sweep() -> dict:
        results: dict[str, dict] = {}
        for device_s in devices:
            dev = DEVICE_TAGS[device_s]
            rounds = CLOUD_ROUNDS if device_s == CLOUD_LATENCY_S else 1
            rows = [
                run_once(device_s, f"{dev}-background-{n}") for n in range(rounds)
            ]
            results[f"{dev}/background"] = _median_rounds(rows, ("p95", "p99"))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report_lines(
        f"Commit latency, {CKPT_WRITERS} writers, "
        f"checkpoint_interval={CHECKPOINT_INTERVAL} ({NUM_SHARDS} shards)",
        [
            f"{key:18s}: p50 {r['p50']:6.2f} ms  p95 {r['p95']:6.2f} ms  "
            f"p99 {r['p99']:6.2f} ms  mean {r['mean']:6.2f} ms  "
            f"{r['throughput_tps']:8.0f} tps  ckpts {r['checkpoints']}"
            for key, r in results.items()
        ],
    )
    record_bench(
        __file__,
        "checkpoint_offload",
        {
            "config": {
                "num_shards": NUM_SHARDS,
                "writers": CKPT_WRITERS,
                "txns_per_writer": txns_each,
                "checkpoint_interval": CHECKPOINT_INTERVAL,
                "device_latencies_s": devices,
                "smoke": smoke,
            },
            "latency_ms": results,
        },
    )
    # The daemon must actually have cut — otherwise the percentiles
    # measure commits with no checkpoint anywhere near them.
    for r in results.values():
        assert r["checkpoints"] > 0


@pytest.mark.benchmark(group="commit-tail")
def test_cross_shard_throughput_batched_decisions(benchmark, tmp_path, smoke):
    """2PC commit throughput with concurrent decisions sharing an fsync."""
    txns_each = SMOKE_CROSS_TXNS_PER_WRITER if smoke else CROSS_TXNS_PER_WRITER
    devices = [CLOUD_LATENCY_S] if smoke else DEVICE_LATENCIES_S

    def run_once(device_s: float, tag: str) -> dict:
        # durability="async" (the acknowledge-later pipeline) keeps the
        # per-shard WAL batches off the foreground path, leaving the
        # coordinator's decision fsync as the commit's only durability
        # barrier — the 2PC coordinator log in isolation.  In sync mode
        # the study measures the shard barriers instead: on this container
        # every fsync serialises on one filesystem journal, so the 4-5
        # shard-WAL fsyncs per cross-shard commit drown the single
        # decision fsync under test.  The decision itself is still
        # fsynced before phase two.
        gc.collect()
        smgr = ShardedTransactionManager(
            num_shards=CROSS_NUM_SHARDS,
            protocol="mvcc",
            data_dir=tmp_path / tag,
            checkpoint_interval=0,  # isolate the coordinator-log cost
            fsync_batch_window=COORD_BATCH_WINDOW_S,
            durability="async",
        )
        smgr.create_table("t")
        _attach_device_model(smgr, device_s)
        latencies, wall_s = _drive(smgr, CROSS_WRITERS, txns_each, _cross_shard_keys)
        stats = smgr.stats()
        smgr.close()
        row = latency_stats(latencies, scale=1e3)  # ms
        row["throughput_tps"] = len(latencies) / wall_s
        row["cross_shard_commits"] = stats["cross_shard_commits"]
        row["coordinator_outcomes"] = stats["coordinator_outcomes"]
        return row

    def sweep() -> dict:
        results: dict[str, dict] = {}
        for device_s in devices:
            dev = DEVICE_TAGS[device_s]
            rounds = CLOUD_ROUNDS if device_s == CLOUD_LATENCY_S else 1
            rows = [
                run_once(device_s, f"{dev}-batched-{n}") for n in range(rounds)
            ]
            results[f"{dev}/batched"] = _median_rounds(
                rows, ("throughput_tps", "p99")
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report_lines(
        f"Cross-shard 2PC, {CROSS_WRITERS} writers ({CROSS_NUM_SHARDS} shards)",
        [
            f"{key:16s}: {r['throughput_tps']:8.0f} tps  "
            f"p50 {r['p50']:6.2f} ms  p95 {r['p95']:6.2f} ms  "
            f"p99 {r['p99']:6.2f} ms"
            for key, r in results.items()
        ],
    )
    record_bench(
        __file__,
        "coordinator_decisions",
        {
            "config": {
                "num_shards": CROSS_NUM_SHARDS,
                "writers": CROSS_WRITERS,
                "txns_per_writer": txns_each,
                "device_latencies_s": devices,
                "smoke": smoke,
            },
            "latency_ms": results,
        },
    )
    # Every commit really took the two-phase path and logged a decision.
    for r in results.values():
        assert r["cross_shard_commits"] == CROSS_WRITERS * txns_each
        assert r["coordinator_outcomes"] > 0
