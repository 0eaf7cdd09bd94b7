"""Async group commit on real files: batched fsync vs. fsync-per-commit.

The paper's ``sync = true`` configuration charges every commit a full
fsync, which caps how fast one shard can commit.  This benchmark drives
the *real* commit pipeline — MVCC commits through
:class:`~repro.core.durability.GroupFsyncDaemon` onto a real WAL file —
and measures what leader/follower fsync batching buys:

* **baseline** — ``max_batch=1`` with ``wait_in_latch``: every commit
  fsyncs its own record *inside* the commit latch — the paper's
  ``sync=true`` design point, where durability I/O serialises the whole
  commit critical section (same code path, batching and decoupling off);
* **group-lf** — ``max_batch=64`` leader/follower batching (PostgreSQL
  ``commit_delay`` style): the first waiter drains the queue and fsyncs
  for everyone;
* **group** — ``max_batch=64`` with the dedicated flusher thread (InnoDB
  log-writer style) and a sweep of dwell windows: fsyncs chain
  back-to-back on one thread while committers keep the interpreter busy.

It runs wall-clock threads on real ``os.fsync``: the GIL serialises the
Python work but fsync releases it, which is exactly why group commit
helps even in CPython.

Device-latency dimension: CI containers sit on overlay filesystems whose
``fsync`` returns in ~0.15 ms — an order of magnitude faster than a real
SSD barrier flush (0.5–5 ms), which makes the amortisation look *smaller*
than it is in production.  The sweep therefore runs each point twice: on
the native device, and with a modelled 0.5 ms SSD barrier added after
each real fsync (per *batch*, so the baseline pays it per commit and the
group pipeline amortises it — exactly as on real hardware).

Asserted: ≥3× commit throughput with 8 concurrent writers (group vs.
per-commit-fsync baseline) on the SSD-latency configuration, where the
fsync cost dominates as it does outside the container.  Results —
including the native-device numbers — land in ``BENCH_group_fsync.json``.

Run:   pytest benchmarks/bench_group_fsync.py --benchmark-only -s
Smoke: pytest benchmarks/bench_group_fsync.py --benchmark-only -s --smoke
"""

from __future__ import annotations

import gc
import statistics
import threading
import time

import pytest

from repro.core import GroupFsyncDaemon, TransactionManager, recovered_commits
from repro.storage.wal import WriteAheadLog

from conftest import _percentile, record_bench, report_lines

WRITER_COUNTS = [1, 2, 4, 8]
#: Leader dwell windows (seconds) — 0 flushes as soon as a leader drains.
BATCH_WINDOWS_S = [0.0, 0.0005, 0.002]
#: Modelled device barrier-flush time added per batch fsync (seconds):
#: 0 = the container's native device, 0.0005 = a realistic SSD barrier.
DEVICE_LATENCIES_S = [0.0, 0.0005]
SSD_LATENCY_S = 0.0005
TXNS_PER_WRITER = 60
SMOKE_WRITER_COUNTS = [1, 4]
SMOKE_TXNS_PER_WRITER = 15


class DeviceModelWAL(WriteAheadLog):
    """Real WAL plus a modelled device barrier time per batch flush.

    The sleep happens after the real ``fsync``, once per *batch* — the
    same cost structure as a slower device: per-commit for the baseline,
    amortised across the batch for group commit.
    """

    def __init__(self, path, extra_flush_s: float) -> None:
        super().__init__(path, sync=False)
        self.extra_flush_s = extra_flush_s

    def append_many(self, records, sync=None):
        count = super().append_many(records, sync)
        if count and self.extra_flush_s > 0.0 and (sync or self.sync_on_append):
            time.sleep(self.extra_flush_s)
        return count


def _drive_commits(mgr: TransactionManager, writers: int, txns_each: int) -> dict:
    """N writer threads commit distinct-key transactions; measures wall
    time and per-commit latency through the full commit pipeline."""
    latencies: list[float] = []
    lat_lock = threading.Lock()
    barrier = threading.Barrier(writers + 1)

    def worker(wid: int) -> None:
        local: list[float] = []
        barrier.wait()
        for i in range(txns_each):
            t0 = time.perf_counter()
            txn = mgr.begin()
            mgr.write(txn, "t", wid * 1_000_000 + i, i)
            mgr.commit(txn)
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
    wall_s = time.perf_counter() - t0
    commits = writers * txns_each
    stats = mgr.stats()
    return {
        "writers": writers,
        "commits": commits,
        "throughput_tps": commits / wall_s,
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "fsync_batches": stats["fsync_batches"],
        "largest_fsync_batch": stats["largest_fsync_batch"],
        "commits_per_fsync": commits / max(1, stats["fsync_batches"]),
    }


def _run_config(
    tmp_path,
    tag: str,
    writers: int,
    txns_each: int,
    max_batch: int,
    window_s: float,
    flusher: bool = False,
    wait_in_latch: bool = False,
    device_s: float = 0.0,
) -> dict:
    wal_path = tmp_path / f"{tag}.wal"
    gc.collect()  # keep allocator turbulence out of the measurement window
    daemon = GroupFsyncDaemon(
        DeviceModelWAL(wal_path, device_s),
        max_batch=max_batch,
        batch_window=window_s,
        flusher=flusher,
        wait_in_latch=wait_in_latch,
    )
    mgr = TransactionManager(protocol="mvcc", durability_daemon=daemon)
    mgr.create_table("t")
    result = _drive_commits(mgr, writers, txns_each)
    mgr.close()
    # every acknowledged commit must be recoverable from the WAL
    assert len(recovered_commits(wal_path)) == result["commits"]
    result.update(
        mode="baseline" if max_batch == 1 else ("group" if flusher else "group-lf"),
        window_ms=window_s * 1e3,
        wait_in_latch=wait_in_latch,
        device_ms=device_s * 1e3,
    )
    return result


@pytest.mark.benchmark(group="group-fsync")
def test_group_fsync_scaling(benchmark, tmp_path, smoke):
    """Writer-count × batch-window sweep on real files, vs. the
    fsync-per-commit baseline (asserted: ≥3× at 8 writers)."""
    writer_counts = SMOKE_WRITER_COUNTS if smoke else WRITER_COUNTS
    windows = [SSD_LATENCY_S] if smoke else BATCH_WINDOWS_S
    devices = [SSD_LATENCY_S] if smoke else DEVICE_LATENCIES_S
    txns_each = SMOKE_TXNS_PER_WRITER if smoke else TXNS_PER_WRITER

    def sweep() -> list[dict]:
        results = []
        for device_s in devices:
            for writers in writer_counts:
                results.append(
                    _run_config(
                        tmp_path,
                        f"base-{device_s}-{writers}",
                        writers,
                        txns_each,
                        1,
                        0.0,
                        wait_in_latch=True,
                        device_s=device_s,
                    )
                )
                # leader/follower variant (no dedicated flusher thread)
                results.append(
                    _run_config(
                        tmp_path,
                        f"lf-{device_s}-{writers}",
                        writers,
                        txns_each,
                        64,
                        0.0,
                        device_s=device_s,
                    )
                )
                for window_s in windows:
                    results.append(
                        _run_config(
                            tmp_path,
                            f"group-{device_s}-{writers}-{window_s}",
                            writers,
                            txns_each,
                            64,
                            window_s,
                            flusher=True,
                            device_s=device_s,
                        )
                    )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report_lines(
        "Group-commit fsync batching (real files, MVCC commit pipeline)",
        [
            f"{r['mode']:8s} dev={r['device_ms']:3.1f}ms writers={r['writers']} "
            f"window={r['window_ms']:4.1f}ms: {r['throughput_tps']:9.0f} tps  "
            f"p50 {r['p50_ms']:6.2f}ms  p99 {r['p99_ms']:6.2f}ms  "
            f"{r['commits_per_fsync']:4.1f} commits/fsync"
            for r in results
        ],
    )
    record_bench(
        __file__,
        "real_files",
        {
            "config": {
                "protocol": "mvcc",
                "writer_counts": writer_counts,
                "batch_windows_ms": [w * 1e3 for w in windows],
                "txns_per_writer": txns_each,
                "max_batch": 64,
                "smoke": smoke,
            },
            "results": results,
        },
    )

    # Headline: median baseline vs. median group at the top writer count on
    # the SSD-latency device, over the sweep result plus two dedicated
    # repetitions each.  Single short windows are noisy on shared container
    # I/O; medians are a robust, symmetric estimator.
    top = max(writer_counts)
    hl_txns = txns_each if smoke else 2 * txns_each
    baseline_runs = [
        r
        for r in results
        if r["mode"] == "baseline"
        and r["writers"] == top
        and r["device_ms"] == SSD_LATENCY_S * 1e3
    ]
    # The tuned group configuration: a commit_delay of roughly the device
    # flush time maximises batch fill (PostgreSQL's guidance for
    # commit_delay), so the headline uses window == device latency.
    group_runs = [
        r
        for r in results
        if r["mode"] == "group"
        and r["writers"] == top
        and r["window_ms"] == SSD_LATENCY_S * 1e3
        and r["device_ms"] == SSD_LATENCY_S * 1e3
    ]
    for rep in range(2):
        baseline_runs.append(
            _run_config(
                tmp_path,
                f"hl-base-{rep}",
                top,
                hl_txns,
                1,
                0.0,
                wait_in_latch=True,
                device_s=SSD_LATENCY_S,
            )
        )
        group_runs.append(
            _run_config(
                tmp_path,
                f"hl-group-{rep}",
                top,
                hl_txns,
                64,
                SSD_LATENCY_S,
                flusher=True,
                device_s=SSD_LATENCY_S,
            )
        )
    median_tps = lambda runs: statistics.median(r["throughput_tps"] for r in runs)  # noqa: E731
    baseline_tps = median_tps(baseline_runs)
    group_tps = median_tps(group_runs)
    baseline = min(baseline_runs, key=lambda r: abs(r["throughput_tps"] - baseline_tps))
    group = min(group_runs, key=lambda r: abs(r["throughput_tps"] - group_tps))
    speedup = group_tps / baseline_tps
    record_bench(
        __file__,
        "headline",
        {
            "writers": top,
            "device_ms": SSD_LATENCY_S * 1e3,
            "speedup_vs_fsync_per_commit": round(speedup, 2),
            "baseline_median_tps": round(baseline_tps),
            "group_median_tps": round(group_tps),
            "baseline_p99_ms": round(baseline["p99_ms"], 2),
            "group_p99_ms": round(group["p99_ms"], 2),
        },
    )
    # batching must actually happen at full concurrency
    assert group["commits_per_fsync"] > 1.5, group
    if not smoke:
        assert speedup >= 3.0, (
            f"group commit speedup only x{speedup:.2f} at {top} writers"
        )
