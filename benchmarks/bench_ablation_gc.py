"""Ablation A6: garbage-collection policy, on-demand vs periodic.

The paper collects old versions "on demand ... i.e., if a new version has
to be created and no space is available in the version array".  This
ablation compares that policy against periodic sweeping on a hot-key
update workload with a lagging reader, measuring both update cost and the
retained version footprint.  A second case churns a small hot set of a
large table under the periodic policy: a sweep visits only the arrays
commits superseded, so its cost follows the hot set, not the table.  A
third holds a snapshot through that churn: a sweep visits only arrays
holding a version dead at the horizon, so the pinned sweeps visit nothing
and the first one after the release catches up on the hot set.

Run:  pytest benchmarks/bench_ablation_gc.py --benchmark-only -s
"""

from __future__ import annotations

import time

import pytest

from repro.core import GCPolicy, GCReport, TransactionManager

from conftest import latency_stats, record_bench, report_lines

UPDATES = 300
HOT_KEYS = 4
TABLE_KEYS = 10_000
HOT_SET = 16
SWEEP_INTERVAL = 10


def churn(manager: TransactionManager) -> int:
    """Run the update churn; returns the post-run version footprint."""
    for i in range(UPDATES):
        with manager.transaction() as txn:
            manager.write(txn, "S", i % HOT_KEYS, i)
    return manager.table("S").version_count()


@pytest.mark.benchmark(group="ablation-gc")
@pytest.mark.parametrize(
    "policy,interval",
    [(GCPolicy.ON_DEMAND, 0), (GCPolicy.PERIODIC, 10), (GCPolicy.PERIODIC, 100)],
    ids=["on-demand", "periodic-10", "periodic-100"],
)
def test_gc_policy_update_cost(benchmark, policy, interval):
    def run():
        manager = TransactionManager(
            protocol="mvcc", gc_policy=policy, gc_interval=max(1, interval)
        )
        manager.create_table("S", version_slots=8)
        return churn(manager)

    footprint = benchmark.pedantic(run, rounds=3, iterations=1)
    report_lines(
        f"GC policy {policy.value}" + (f" (interval {interval})" if interval else ""),
        [f"retained versions after {UPDATES} updates over {HOT_KEYS} keys: "
         f"{footprint}"],
    )
    # every policy must bound the footprint far below one version per update
    assert footprint <= HOT_KEYS * 16


@pytest.mark.benchmark(group="ablation-gc")
def test_on_demand_gc_triggers_only_when_full(benchmark):
    """On-demand GC performs zero work while the version array has room."""
    manager = TransactionManager(protocol="mvcc")
    manager.create_table("S", version_slots=64)

    def few_updates():
        for i in range(8):
            with manager.transaction() as txn:
                manager.write(txn, "S", 0, i)

    benchmark.pedantic(few_updates, rounds=1, iterations=1)
    obj = manager.table("S").mvcc_object(0)
    assert obj.gc_count == 0  # never ran: array never filled


@pytest.mark.benchmark(group="ablation-gc")
def test_periodic_sweep_visits_the_hot_set(benchmark):
    """Churn ``HOT_SET`` keys of a ``TABLE_KEYS``-key table, sweeping
    every ``SWEEP_INTERVAL`` commits; every sweep must visit at most the
    hot set.  A walk over every array is timed once as the reference."""
    manager = TransactionManager(
        protocol="mvcc", gc_policy=GCPolicy.PERIODIC, gc_interval=SWEEP_INTERVAL
    )
    table = manager.create_table("S", version_slots=8)
    table.bulk_load((key, 0) for key in range(TABLE_KEYS))
    sweep = manager.gc.sweep
    reports: list[GCReport] = []
    seconds: list[float] = []

    def timed_sweep(tables):
        start = time.perf_counter()
        report = sweep(tables)
        seconds.append(time.perf_counter() - start)
        reports.append(report)
        return report

    manager.gc.sweep = timed_sweep

    def churn_hot_set():
        for i in range(UPDATES):
            with manager.transaction() as txn:
                manager.write(txn, "S", i % HOT_SET, i)

    benchmark.pedantic(churn_hot_set, rounds=3, iterations=1)
    horizon = manager.context.oldest_active_version()
    start = time.perf_counter()
    for key in table.keys():
        table.mvcc_object(key).collect(horizon)
    walk_ms = (time.perf_counter() - start) * 1e3
    sweep_ms = latency_stats(seconds, scale=1e3)
    scanned = max(report.objects_scanned for report in reports)
    report_lines(
        f"periodic sweep over a {TABLE_KEYS}-key table, hot set {HOT_SET}",
        [
            f"sweeps: {len(reports)}, arrays visited per sweep: max {scanned}",
            f"time per sweep: p50 {sweep_ms['p50']:.3f} ms, "
            f"p99 {sweep_ms['p99']:.3f} ms",
            f"reference walk over all {table.resident_keys()} arrays: "
            f"{walk_ms:.3f} ms",
        ],
    )
    record_bench(
        __file__,
        "hot_set_sweep",
        {
            "table_keys": TABLE_KEYS,
            "hot_set": HOT_SET,
            "sweep_interval": SWEEP_INTERVAL,
            "sweeps": len(reports),
            "max_objects_scanned": scanned,
            "sweep_ms": sweep_ms,
            "reference_full_walk_ms": walk_ms,
        },
    )
    assert reports
    assert scanned <= HOT_SET


@pytest.mark.benchmark(group="ablation-gc")
def test_lagging_reader_sweeps_visit_nothing(benchmark):
    """Hold a snapshot through the hot-set churn: every sweep it pins
    must visit 0 arrays; the first sweep after the release visits at most
    ``HOT_SET`` arrays and leaves nothing for a walk over every array."""
    manager = TransactionManager(
        protocol="mvcc", gc_policy=GCPolicy.PERIODIC, gc_interval=SWEEP_INTERVAL
    )
    table = manager.create_table("S", version_slots=8)
    table.bulk_load((key, 0) for key in range(TABLE_KEYS))
    sweep = manager.gc.sweep
    reports: list[GCReport] = []

    def recorded_sweep(tables):
        reports.append(sweep(tables))
        return reports[-1]

    manager.gc.sweep = recorded_sweep
    pinned = manager.begin()
    assert manager.read(pinned, "S", 0) == 0

    def churn_hot_set():
        for i in range(UPDATES):
            with manager.transaction() as txn:
                manager.write(txn, "S", i % HOT_SET, i)

    benchmark.pedantic(churn_hot_set, rounds=1, iterations=1)
    idle_visits = sum(report.objects_scanned for report in reports)
    idle_sweeps = len(reports)
    manager.commit(pinned)
    catch_up = sweep(manager.tables())
    horizon = manager.context.oldest_active_version()
    leftover = sum(table.mvcc_object(key).collect(horizon) for key in table.keys())
    report_lines(
        f"sweeps under a held snapshot, {TABLE_KEYS}-key table, hot set {HOT_SET}",
        [
            f"pinned sweeps: {idle_sweeps}, arrays visited: {idle_visits}",
            f"first sweep after release: {catch_up.objects_scanned} arrays, "
            f"{catch_up.versions_reclaimed} versions reclaimed",
        ],
    )
    record_bench(
        __file__,
        "lagging_reader_sweep",
        {
            "table_keys": TABLE_KEYS,
            "hot_set": HOT_SET,
            "sweep_interval": SWEEP_INTERVAL,
            "idle_sweeps": idle_sweeps,
            "idle_sweep_visits": idle_visits,
            "release_sweep_visits": catch_up.objects_scanned,
            "release_sweep_reclaimed": catch_up.versions_reclaimed,
        },
    )
    assert idle_sweeps >= 3
    assert idle_visits == 0
    assert catch_up.objects_scanned <= HOT_SET
    assert catch_up.versions_reclaimed == UPDATES
    assert leftover == 0
