"""Online rebalancing study: a live shard split loses nothing.

Threaded committers drive the real ``ShardedTransactionManager``
through a 4 → 8 split (:meth:`repro.core.sharding.ShardedTransactionManager.split_shard`)
and the run asserts the migration loses and duplicates **zero** commits:
the full post-split state (snapshot scan across all shards) must equal
the state computed from every acknowledged commit, including the
transactions the flip aborted retryably mid-flight.  Wall-clock
throughput and the split's wall time are reported, not asserted: CPython
threads cannot exhibit shard parallelism, and no real measurement backs
a post-split throughput gain.

Run:  pytest benchmarks/bench_rebalance.py --benchmark-only -s
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import ShardedTransactionManager

from conftest import latency_stats, record_bench, report_lines

INITIAL_SHARDS = 4
FINAL_SHARDS = 8


@pytest.mark.benchmark(group="rebalance")
def test_real_engine_live_split(benchmark, smoke):
    """Zero lost/duplicated commits across a real online 4 -> 8 split."""
    writers = 4
    seconds = 0.4 if smoke else 1.5

    def run_once():
        smgr = ShardedTransactionManager(num_shards=INITIAL_SHARDS, protocol="mvcc")
        smgr.create_table("acct")
        smgr.register_group("bank", ["acct"])
        smgr.bulk_load("acct", [(k, 0) for k in range(1024)])
        stop = threading.Event()
        # per-writer disjoint key stripes; every commit increments one key
        # and the writer journals the acknowledged value — the ground
        # truth for the post-split diff.
        acked: list[dict[int, int]] = [dict() for _ in range(writers)]
        latencies: list[list[float]] = [[] for _ in range(writers)]
        errors: list[BaseException] = []

        def writer(w: int) -> None:
            rng_keys = [k for k in range(1024) if k % writers == w]
            i = 0
            try:
                while not stop.is_set():
                    key = rng_keys[i % len(rng_keys)]
                    i += 1

                    def work(txn, key=key):
                        current = smgr.read(txn, "acct", key) or 0
                        smgr.write(txn, "acct", key, current + 1)
                        return current + 1

                    t0 = time.perf_counter()
                    value = smgr.run_transaction(work, max_restarts=10_000)
                    latencies[w].append(time.perf_counter() - t0)
                    acked[w][key] = max(acked[w].get(key, 0), value)
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(writers)
        ]
        for t in threads:
            t.start()
        time.sleep(seconds / 3)
        t_split = time.perf_counter()
        for source in range(INITIAL_SHARDS):
            smgr.split_shard(source)
        split_s = time.perf_counter() - t_split
        time.sleep(seconds / 3)
        stop.set()
        for t in threads:
            t.join()
        assert not errors, errors
        assert smgr.num_shards == FINAL_SHARDS
        with smgr.snapshot() as view:
            state = dict(view.scan("acct"))
        expected = {k: 0 for k in range(1024)}
        for journal in acked:
            expected.update(journal)
        # zero lost, zero duplicated: every acknowledged increment is
        # visible exactly once, every untouched key is untouched.
        assert state == expected
        stats = smgr.stats()
        return stats, split_s, [s for lat in latencies for s in lat]

    stats, split_s, lat = benchmark.pedantic(run_once, rounds=1, iterations=1)
    timing = latency_stats(lat, scale=1e3)
    report_lines(
        "Real engine live split 4 -> 8 (zero-loss asserted)",
        [
            f"commits: {stats['single_shard_commits']}  "
            f"(rebalance aborts {stats['rebalance_aborts']}, retried)",
            f"slots moved: {stats['slots_moved']}, "
            f"keys migrated: {stats['keys_migrated']}",
            f"split wall time (4 splits): {split_s * 1000.0:.1f} ms",
            f"commit latency ms: p50 {timing['p50']:.2f} "
            f"p95 {timing['p95']:.2f} p99 {timing['p99']:.2f}",
        ],
    )
    record_bench(
        __file__,
        "real_engine_live_split",
        {
            "writers": writers,
            "initial_shards": INITIAL_SHARDS,
            "final_shards": FINAL_SHARDS,
            "commits": stats["single_shard_commits"],
            "rebalance_aborts": stats["rebalance_aborts"],
            "slots_moved": stats["slots_moved"],
            "keys_migrated": stats["keys_migrated"],
            "split_wall_ms": round(split_s * 1000.0, 1),
            "commit_latency_ms": timing,
            "zero_loss": True,
        },
    )
    assert stats["slots_moved"] == 128  # half of every source's 64 slots, x4
