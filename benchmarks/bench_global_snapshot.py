"""Global snapshot service: what consistency costs on the real engine.

Two sections around the cross-shard snapshot coordinator
(:class:`repro.core.snapshot.SnapshotCoordinator`):

* **knob overhead** — the real sharded engine on a purely single-shard
  workload with ``global_snapshots`` on vs off.  Single-shard
  transactions only ever pay the coordinator's lock-free barrier probe
  per snapshot pin, so the ratio is asserted under 1.05 (the <5%
  acceptance bound; measured as best-of-rounds on both sides within one
  run, so the check is machine-independent and needs no stored
  baseline);
* **vector acquisition** — wall-clock latency of the lazy global-vector
  pin: the first read that makes a transaction cross-shard pays the
  barrier + sibling staleness check; reported as p50/p95/p99.

A scatter-gather scan speed-up over a sequential scan has no real-engine
measurement; ``perfbench``'s ``scan_p50_ms`` times the scan end to end.

Run:   pytest benchmarks/bench_global_snapshot.py --benchmark-only -s
Smoke: pytest benchmarks/bench_global_snapshot.py --benchmark-only -s --smoke
"""

from __future__ import annotations

import time

import pytest

from repro.core import ShardedTransactionManager

from conftest import latency_stats, record_bench, report_lines

#: Single-shard knob-overhead workload size (transactions per round).
OVERHEAD_TXNS = 2_000
SMOKE_OVERHEAD_TXNS = 200
OVERHEAD_KEYS = 256
OVERHEAD_ROUNDS = 5
SMOKE_OVERHEAD_ROUNDS = 2

#: Vector-acquisition latency sample count.
VECTOR_SAMPLES = 500
SMOKE_VECTOR_SAMPLES = 50


def _make_manager(global_snapshots: bool) -> ShardedTransactionManager:
    smgr = ShardedTransactionManager(
        num_shards=4, protocol="mvcc", global_snapshots=global_snapshots
    )
    smgr.create_table("A")
    return smgr


def _single_shard_round(smgr: ShardedTransactionManager, txns: int) -> float:
    """One timed round of read+write single-shard transactions (shard 0:
    keys are multiples of 4, so slot routing never leaves the home shard)."""
    start = time.perf_counter()
    for i in range(txns):
        key = (i % OVERHEAD_KEYS) * 4
        txn = smgr.begin()
        smgr.read(txn, "A", key)
        smgr.write(txn, "A", key, i)
        smgr.commit(txn)
    return time.perf_counter() - start


@pytest.mark.benchmark(group="global_snapshot")
def test_single_shard_knob_overhead(benchmark, smoke):
    """The coordinator's single-shard tax is a lock-free barrier probe per
    pin: best-of-rounds on/off ratio must stay under the 5% bound."""
    txns = SMOKE_OVERHEAD_TXNS if smoke else OVERHEAD_TXNS
    rounds = SMOKE_OVERHEAD_ROUNDS if smoke else OVERHEAD_ROUNDS

    def measure() -> tuple[float, float]:
        on = _make_manager(global_snapshots=True)
        off = _make_manager(global_snapshots=False)
        try:
            # Warm both engines (table attach, version arrays) off the clock.
            _single_shard_round(on, txns)
            _single_shard_round(off, txns)
            # Interleave the rounds so drift hits both knobs alike.
            on_s = min(_single_shard_round(on, txns) for _ in range(rounds))
            off_s = min(_single_shard_round(off, txns) for _ in range(rounds))
        finally:
            on.close()
            off.close()
        return on_s, off_s

    on_s, off_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = on_s / off_s
    # Smoke rounds are too short (200 txns) for a stable ratio: CI noise
    # alone swings them past 5%, so smoke only sanity-bounds the knob.
    bound = 1.5 if smoke else 1.05
    report_lines(
        "Single-shard knob overhead (global_snapshots on vs off)",
        [
            f"on : {on_s * 1e3:8.2f} ms / {txns} txns",
            f"off: {off_s * 1e3:8.2f} ms / {txns} txns",
            f"ratio: x{ratio:.3f} (bound {bound})",
        ],
    )
    record_bench(
        __file__,
        "single_shard_knob_overhead",
        {
            "txns": txns,
            "rounds": rounds,
            "on_s": round(on_s, 6),
            "off_s": round(off_s, 6),
            "ratio": round(ratio, 4),
            "smoke": smoke,
        },
    )
    assert ratio < bound, f"global_snapshots single-shard overhead x{ratio:.3f}"


@pytest.mark.benchmark(group="global_snapshot")
def test_vector_acquisition_latency(benchmark, smoke):
    """Wall-clock cost of going cross-shard: the second shard's first read
    acquires the global vector (barrier + sibling staleness check)."""
    samples = SMOKE_VECTOR_SAMPLES if smoke else VECTOR_SAMPLES
    smgr = _make_manager(global_snapshots=True)
    for key in range(0, 32):
        txn = smgr.begin()
        smgr.write(txn, "A", key, key)
        smgr.commit(txn)

    def measure() -> list[float]:
        acquired: list[float] = []
        for _ in range(samples):
            txn = smgr.begin()
            smgr.read(txn, "A", 0)  # home shard: no vector yet
            start = time.perf_counter()
            smgr.read(txn, "A", 1)  # second shard: lazy vector acquisition
            acquired.append(time.perf_counter() - start)
            smgr.abort(txn)
        return acquired

    acquired = benchmark.pedantic(measure, rounds=1, iterations=1)
    stats = latency_stats(acquired, scale=1e6)
    coordinator_stats = {
        k: v for k, v in smgr.stats().items() if k.startswith("barrier_")
    }
    smgr.close()
    report_lines(
        "Global-vector acquisition latency (second-shard first read)",
        [
            f"samples: {stats['count']}",
            f"mean {stats['mean']:7.2f} us  p50 {stats['p50']:7.2f} us  "
            f"p95 {stats['p95']:7.2f} us  p99 {stats['p99']:7.2f} us",
            f"barrier fast/slow: {coordinator_stats}",
        ],
    )
    record_bench(
        __file__,
        "vector_acquisition",
        {"latency_us": stats, "coordinator": coordinator_stats, "smoke": smoke},
    )
    assert stats["count"] == samples
