"""Sharding study: the real sharded engine end to end.

Drives the *real* ``ShardedTransactionManager`` over 4 shards with a 20 %
cross-shard ratio and reports wall-clock numbers and commit-path counters
(no scaling assertion: threads share the GIL; correctness of the sharded
engine is covered by ``tests/test_sharding*.py``).  Throughput as the
shard count grows has no measurement yet; it belongs on the wall clock
in ``perfbench/``.

Run:  pytest benchmarks/bench_sharding.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.core import ShardedTransactionManager
from repro.workload import WorkloadConfig, WorkloadGenerator, apply_script

from conftest import report_lines


@pytest.mark.benchmark(group="sharding")
@pytest.mark.parametrize("protocol", ["mvcc", "s2pl", "bocc"])
def test_real_engine_sharded(benchmark, protocol):
    """Wall-clock smoke of the real sharded engine (reported, not asserted:
    CPython threads cannot exhibit shard parallelism)."""
    config = WorkloadConfig(table_size=4_096, txn_length=8)
    smgr = ShardedTransactionManager(num_shards=4, protocol=protocol)
    for state_id in config.states:
        smgr.create_table(state_id)
    smgr.register_group("stream_query", list(config.states))
    wl = WorkloadGenerator(config)

    def run_batch():
        for _ in range(25):
            script = wl.sharded_transaction(4, 0.2)

            def work(txn, script=script):
                apply_script(smgr, txn, script)

            smgr.run_transaction(work, max_restarts=1_000)

    benchmark.pedantic(run_batch, rounds=3, iterations=1)
    stats = smgr.stats()
    report_lines(
        f"Real sharded engine ({protocol})",
        [
            f"single-shard commits: {stats['single_shard_commits']}",
            f"cross-shard commits : {stats['cross_shard_commits']}",
            f"cross-shard aborts  : {stats['cross_shard_aborts']}",
        ],
    )
    assert stats["single_shard_commits"] > 0
    assert stats["cross_shard_commits"] > 0
