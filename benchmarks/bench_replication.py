"""Replication study: what a quorum ack costs on the commit path.

The same single-key commit stream against a 2-shard rf=2 manager
(:mod:`repro.core.replication`, manager knobs ``replication_factor=`` /
``ack=``) under ``ack="local"`` (returns after the local batched fsync,
replicas catch up asynchronously) and ``ack="quorum"`` (returns only
after a majority of replicas confirms the batch durable).  Per-commit
p50/p95/p99 are *reported* — wall clock on in-process loopback replicas
understates a real network RTT, so the shape (quorum ≥ local) is the
signal, not the absolute gap.

Follower-read throughput and failover retention have no real-engine
measurement yet.

Run:  pytest benchmarks/bench_replication.py --benchmark-only -s
"""

from __future__ import annotations

import time

import pytest

from repro.core import ShardedTransactionManager

from conftest import latency_stats, record_bench, report_lines

NUM_SHARDS = 2
REPLICATION_FACTOR = 2
COMMITS = 150


def _commit_latencies(tmp_path, ack: str, commits: int) -> list[float]:
    smgr = ShardedTransactionManager(
        num_shards=NUM_SHARDS,
        protocol="mvcc",
        data_dir=tmp_path / ack,
        replication_factor=REPLICATION_FACTOR,
        ack=ack,
    )
    try:
        smgr.create_table("A")
        smgr.register_group("g", ["A"])
        samples: list[float] = []
        for i in range(commits):
            txn = smgr.begin()
            smgr.write(txn, "A", i, i)
            started = time.perf_counter()
            smgr.commit(txn)
            samples.append(time.perf_counter() - started)
        return samples
    finally:
        smgr.close()


@pytest.mark.benchmark(group="replication")
def test_quorum_vs_local_commit_latency_real(benchmark, smoke, tmp_path):
    """Per-commit wall-clock latency under both ack policies (reported)."""
    commits = 40 if smoke else COMMITS

    def measure():
        return {
            ack: _commit_latencies(tmp_path, ack, commits)
            for ack in ("local", "quorum")
        }

    samples = benchmark.pedantic(measure, rounds=1, iterations=1)
    stats = {
        ack: latency_stats(data, scale=1e3) for ack, data in samples.items()
    }
    report_lines(
        f"Commit latency, real engine ({NUM_SHARDS} shards, "
        f"rf={REPLICATION_FACTOR}, {commits} commits)",
        [
            f"{ack:6s}: p50 {s['p50']:.3f} ms   p95 {s['p95']:.3f} ms   "
            f"p99 {s['p99']:.3f} ms"
            for ack, s in stats.items()
        ],
    )
    record_bench(
        __file__,
        "quorum_vs_local_real",
        {
            "num_shards": NUM_SHARDS,
            "replication_factor": REPLICATION_FACTOR,
            "commits": commits,
            "latency_ms": stats,
        },
    )
