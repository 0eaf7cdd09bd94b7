"""Larger-than-memory reads: lazy hydration vs full bootstrap at restart.

The residency study, on the real engine and real files:

* **cold start** — a durable 4-shard store with 100k+ rows and a bounded
  commit-WAL tail is "crashed" (abandoned without close) and reopened in
  both residency modes.  ``residency="full"`` pays the historical
  O(data) bootstrap: every base-table row is scanned into the version
  index before ``open()`` returns.  ``residency="lazy"`` replays only
  the commit-WAL tail eagerly (those keys must carry their true commit
  timestamps) and leaves everything else cold — O(tail) startup.
  Asserted: lazy ``open()`` is ≥5× faster on the full-size store, the
  lazy index holds at most the tail after open while the full index
  holds every row, and both modes recover the byte-identical full state
  (scan diff).

* **read latency** — the price of laziness is the first touch: a cold
  point read pays one bloom-gated LSM probe + bootstrap install; the
  second touch is a plain version-array hit.  Measured: cold vs hot
  p50/p99 on the lazy store, and warm reads against a full-residency
  open of a copy of the same store, in alternating rounds.  Asserted
  (full run): the median over rounds of the lazy *hot* p50 is within
  1.2× of the median of the full-residency p50s — once resident,
  laziness costs nothing.

* **bounded residency** — a lazy store reopened under a fleet-wide
  ``memory_budget`` of 10% of the rows serves a uniform random read
  stream three times the budget.  The resident-version-array count is
  sampled after *every* read and may never exceed the budget (the
  faulting reader's inline backstop makes it a hard cap, not a
  high-water mark); the stream's read p50 and p99 (not gated), the
  sweep's evictions, the queue entries it visited per eviction
  (asserted <= 3) and the LSM value-cache hit ratio after warm-up are
  recorded.  The store runs the default background maintenance daemon,
  which flushes and compacts but never evicts.  A written pool as large
  as the budget and ``read_many`` batches of 16 keys follow; each cold
  key a batch reads must be faulted in at most once on average
  (hydrations per cold key read <= 1.0), so the backstop does not evict
  a batch before its reads.

Results land in ``BENCH_coldstart.json`` (smoke: the ``.smoke.json``
sidecar; the open-time and read-ratio assertions relax — smoke stores
are too small for stable ratios — while the bounded-residency and
state-diff assertions hold in every mode).

Run:   pytest benchmarks/bench_coldstart.py --benchmark-only -s
Smoke: pytest benchmarks/bench_coldstart.py --benchmark-only -s --smoke
"""

from __future__ import annotations

import random
import shutil
import statistics
import time

import pytest

from repro.core import ShardedTransactionManager

from conftest import latency_stats, record_bench, report_lines

NUM_SHARDS = 4
ROWS = 100_000
TAIL_COMMITS = 300
OPEN_ROUNDS = 2
SMOKE_ROWS = 6_000
SMOKE_TAIL_COMMITS = 60
SMOKE_OPEN_ROUNDS = 1
#: Full-run acceptance: lazy open must beat the full bootstrap by this
#: factor on the 100k-row store.  The gap is structural — O(tail) vs
#: O(data) — so 5× is conservative; smoke stores are too small to gate.
OPEN_SPEEDUP_FLOOR = 5.0

READ_SAMPLES = 2_000
SMOKE_READ_SAMPLES = 400
#: Full-run acceptance: once a key is resident, a lazy read must cost
#: what a full-residency read costs (same version-array hit).
HOT_READ_RATIO_CEIL = 1.2
#: Lazy-hot and full-warm passes alternate this many times each; the gate
#: compares the medians of the passes' p50s, so one pass slowed by a
#: neighbour on a shared machine cannot decide it.
READ_ROUNDS = 3

BUDGET_ROWS = 20_000
SMOKE_BUDGET_ROWS = 2_000
#: The larger-than-memory configuration: room for 10% of the rows.
BUDGET_FRACTION = 10
#: Keys per ``read_many`` batch in the bounded-residency run (about four
#: per shard, well inside each partition's share of the budget).
BATCH_KEYS = 16


def _build_store(data_dir, rows: int, tail_commits: int, crash: bool = True):
    """Durable 4-shard store: ``rows`` bulk-loaded + a committed WAL tail.

    ``crash=True`` abandons the manager (no close, daemons frozen) so the
    reopen below starts from a crash image with a real tail to replay;
    ``crash=False`` closes it cleanly and returns ``None``."""
    smgr = ShardedTransactionManager(
        num_shards=NUM_SHARDS,
        protocol="mvcc",
        data_dir=data_dir,
        checkpoint_interval=0,  # keep the tail: this bench replays it
    )
    smgr.create_table("A")
    smgr.register_group("g", ["A"])
    smgr.bulk_load("A", [(i, {"v": i}) for i in range(rows)])
    # Cut the bulk-load bootstrap records out of the WAL: the replayable
    # tail must be exactly the post-checkpoint commits, or "O(tail)"
    # degenerates to O(data) for both modes.
    smgr.checkpoint()
    for i in range(tail_commits):
        with smgr.transaction() as txn:
            smgr.write(txn, "A", i, {"tail": i})
    smgr.flush_durability()
    if not crash:
        smgr.close()
        return None
    # Freeze the crash image: background daemons must not keep mutating
    # files between the build and the (copied) reopens.
    if smgr.checkpoint_daemon is not None:
        smgr.checkpoint_daemon.close()
    if smgr.maintenance_daemon is not None:
        smgr.maintenance_daemon.close()
    return smgr  # abandoned: keeps file handles alive, never closed


def _scan_state(smgr) -> dict:
    with smgr.snapshot() as view:
        return dict(view.scan("A"))


def _resident_total(smgr) -> int:
    return sum(s.table("A").resident_keys() for s in smgr.shards)


@pytest.mark.benchmark(group="coldstart")
def test_open_time_full_vs_lazy(benchmark, tmp_path, smoke):
    """O(data) full bootstrap vs O(tail) lazy startup, identical image."""
    rows = SMOKE_ROWS if smoke else ROWS
    tail = SMOKE_TAIL_COMMITS if smoke else TAIL_COMMITS
    rounds = SMOKE_OPEN_ROUNDS if smoke else OPEN_ROUNDS
    base = tmp_path / "base"
    leaked = [_build_store(base, rows, tail)]

    def sweep() -> dict:
        results: dict[str, dict] = {}
        states: dict[str, dict] = {}
        for mode in ("full", "lazy"):
            open_times, resident_after = [], []
            for rnd in range(rounds):
                work = tmp_path / f"{mode}-{rnd}"
                shutil.copytree(base, work)
                t0 = time.perf_counter()
                reopened = ShardedTransactionManager.open(
                    work, state_residency=mode
                )
                open_times.append(time.perf_counter() - t0)
                resident_after.append(_resident_total(reopened))
                report = reopened.last_recovery
                if rnd == 0:
                    states[mode] = _scan_state(reopened)
                reopened.close()
                shutil.rmtree(work)
            results[mode] = {
                "open_ms": [round(t * 1e3, 2) for t in open_times],
                "open_ms_median": round(
                    statistics.median(open_times) * 1e3, 2
                ),
                "resident_after_open": resident_after[0],
                "commits_replayed": report.commits_replayed,
                "rows_bootstrapped": sum(report.rows_loaded.values()),
            }
        results["states_equal"] = states["full"] == states["lazy"]
        results["state_rows"] = len(states["lazy"])
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    full, lazy = results["full"], results["lazy"]
    speedup = full["open_ms_median"] / max(lazy["open_ms_median"], 1e-6)
    report_lines(
        f"Cold start, {NUM_SHARDS} shards, {rows} rows, {tail}-commit tail",
        [
            f"full open {full['open_ms_median']:8.1f} ms  "
            f"(resident {full['resident_after_open']})",
            f"lazy open {lazy['open_ms_median']:8.1f} ms  "
            f"(resident {lazy['resident_after_open']})",
            f"speedup {speedup:.1f}x   states equal: "
            f"{results['states_equal']}",
        ],
    )
    record_bench(
        __file__,
        "open_time",
        {
            "config": {
                "num_shards": NUM_SHARDS,
                "rows": rows,
                "tail_commits": tail,
                "rounds": rounds,
                "smoke": smoke,
            },
            "full": full,
            "lazy": lazy,
            "lazy_open_speedup": round(speedup, 1),
            "states_equal": results["states_equal"],
        },
    )
    # Recovered state is identical under a full-state diff — every mode.
    assert results["states_equal"]
    assert results["state_rows"] == rows
    # Full residency bootstraps everything; lazy holds at most the
    # replayed tail (plus nothing else) right after open.
    assert full["resident_after_open"] >= rows
    assert 1 <= lazy["resident_after_open"] <= tail
    # The headline: O(tail) beats O(data) by at least 5× at full size.
    if not smoke:
        assert speedup >= OPEN_SPEEDUP_FLOOR, results


@pytest.mark.benchmark(group="coldstart")
def test_point_read_latency_cold_vs_hot(benchmark, tmp_path, smoke):
    """First-touch hydration cost vs resident reads vs full residency."""
    rows = SMOKE_ROWS if smoke else ROWS
    samples = SMOKE_READ_SAMPLES if smoke else READ_SAMPLES
    data_dir = tmp_path / "store"
    _build_store(data_dir, rows, 0, crash=False)
    rng = random.Random(42)
    keys = rng.sample(range(rows), samples)

    def measure(reopened) -> list[float]:
        times = []
        with reopened.transaction() as txn:
            for key in keys:
                t0 = time.perf_counter()
                value = reopened.read(txn, "A", key)
                times.append(time.perf_counter() - t0)
                assert value is not None
        return times

    def sweep() -> dict:
        # The two residency modes read two copies of one store, both open,
        # so their passes can alternate.
        full_dir = tmp_path / "store-full"
        shutil.copytree(data_dir, full_dir)
        lazy = ShardedTransactionManager.open(data_dir, state_residency="lazy")
        full = ShardedTransactionManager.open(full_dir, state_residency="full")
        try:
            cold = measure(lazy)
            hot_rounds, full_rounds = [], []
            for _ in range(READ_ROUNDS):
                hot_rounds.append(measure(lazy))
                full_rounds.append(measure(full))
            hydrations = lazy.stats()["hydrations"]
        finally:
            lazy.close()
            full.close()
        return {
            "cold": latency_stats(cold, scale=1e6),
            "hot": latency_stats(sum(hot_rounds, []), scale=1e6),
            "full": latency_stats(sum(full_rounds, []), scale=1e6),
            "hot_round_p50s": [statistics.median(r) * 1e6 for r in hot_rounds],
            "full_round_p50s": [statistics.median(r) * 1e6 for r in full_rounds],
            "hydrations": hydrations,
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    cold, hot, full = results["cold"], results["hot"], results["full"]
    hot_p50s, full_p50s = results["hot_round_p50s"], results["full_round_p50s"]
    ratio = statistics.median(hot_p50s) / max(statistics.median(full_p50s), 1e-9)
    report_lines(
        f"Point reads, {rows} rows, {samples} samples, "
        f"{READ_ROUNDS} alternating hot/full rounds (us)",
        [
            f"lazy cold: p50 {cold['p50']:7.1f}  p99 {cold['p99']:7.1f}",
            f"lazy hot : p50 {hot['p50']:7.1f}  p99 {hot['p99']:7.1f}  "
            f"round p50s {', '.join(f'{p:.2f}' for p in hot_p50s)}",
            f"full warm: p50 {full['p50']:7.1f}  p99 {full['p99']:7.1f}  "
            f"round p50s {', '.join(f'{p:.2f}' for p in full_p50s)}",
            f"hot/full ratio of round-p50 medians {ratio:.2f}",
        ],
    )
    record_bench(
        __file__,
        "read_latency",
        {
            "config": {
                "rows": rows,
                "samples": samples,
                "rounds": READ_ROUNDS,
                "smoke": smoke,
            },
            "lazy_cold_us": cold,
            "lazy_hot_us": hot,
            "full_warm_us": full,
            "lazy_hot_round_p50_us": hot_p50s,
            "full_warm_round_p50_us": full_p50s,
            "hot_over_full_p50": round(ratio, 2),
            "hydrations": results["hydrations"],
        },
    )
    # every sampled key was faulted in exactly once
    assert results["hydrations"] == samples
    # once resident, laziness is free (full run only: smoke samples are
    # too few for a stable p50 ratio on a shared container)
    if not smoke:
        assert ratio <= HOT_READ_RATIO_CEIL, results


@pytest.mark.benchmark(group="coldstart")
def test_bounded_residency_under_budget(benchmark, tmp_path, smoke):
    """A 10% memory budget is a hard cap under a 3×-budget read stream."""
    rows = SMOKE_BUDGET_ROWS if smoke else BUDGET_ROWS
    budget = rows // BUDGET_FRACTION
    data_dir = tmp_path / "store"
    _build_store(data_dir, rows, 0, crash=False)
    rng = random.Random(7)

    def sweep() -> dict:
        reopened = ShardedTransactionManager.open(
            data_dir, state_residency="lazy", memory_budget=budget
        )
        max_resident = 0
        read_s: list[float] = []
        for _ in range(3 * budget):
            key = rng.randrange(rows)
            t0 = time.perf_counter()
            with reopened.transaction() as txn:
                value = reopened.read(txn, "A", key)
            read_s.append(time.perf_counter() - t0)
            assert value is not None
            resident = _resident_total(reopened)
            max_resident = max(max_resident, resident)
            # the acceptance invariant, checked after EVERY sample
            assert resident <= budget, (resident, budget)
        # batched reads over a written pool as large as the budget: the
        # batch's arrays are the partitions' never-written ones, yet each
        # cold key of a batch is faulted in once
        pool = rng.sample(range(rows), budget)
        for start in range(0, budget, BATCH_KEYS):
            with reopened.transaction() as txn:
                for key in pool[start : start + BATCH_KEYS]:
                    reopened.write(txn, "A", key, {"w": key})
        tables = [shard.table("A") for shard in reopened.shards]
        cold_read = 0
        faulted = reopened.stats()["hydrations"]
        for _ in range(budget // BATCH_KEYS):
            batch = rng.sample(range(rows), BATCH_KEYS)
            cold_read += sum(
                1
                for key in batch
                if tables[reopened.slot_map.shard_of(key)].mvcc_object(key)
                is None
            )
            with reopened.transaction() as txn:
                out = reopened.read_many(txn, "A", batch)
            assert all(out[key] is not None for key in batch)
            resident = _resident_total(reopened)
            max_resident = max(max_resident, resident)
            assert resident <= budget, (resident, budget)
        faulted = reopened.stats()["hydrations"] - faulted
        # warm-up done: a hot working set inside the budget should now
        # hit the value cache and the version index
        hot_keys = rng.sample(range(rows), budget // 2)
        for key in hot_keys:
            with reopened.transaction() as txn:
                reopened.read(txn, "A", key)
        stats = reopened.stats()
        latency = latency_stats(read_s, scale=1e6)
        out = {
            "max_resident": max_resident,
            "read_p50_us": round(latency["p50"], 1),
            "read_p99_us": round(latency["p99"], 1),
            "hydrations": stats["hydrations"],
            "batch_hydrations_per_cold_key": round(faulted / cold_read, 3),
            "evictions": stats["residency_evictions"],
            "sweep_visits_per_eviction": round(
                stats["residency_sweep_visits"] / stats["residency_evictions"], 3
            ),
            "cache_hit_ratio": round(stats["lsm_cache_hit_ratio"], 3),
        }
        reopened.close()
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report_lines(
        f"Bounded residency, {rows} rows, budget {budget}",
        [
            f"max resident {results['max_resident']:6d} / budget {budget}",
            f"3x-budget read stream p50 {results['read_p50_us']:.1f} us  "
            f"p99 {results['read_p99_us']:.1f} us",
            f"hydrations {results['hydrations']:6d}  "
            f"evictions {results['evictions']:6d}",
            f"sweep visits per eviction {results['sweep_visits_per_eviction']:.3f}",
            "read_many hydrations per cold key "
            f"{results['batch_hydrations_per_cold_key']:.3f}",
            f"LSM cache hit ratio {results['cache_hit_ratio']:.3f}",
        ],
    )
    record_bench(
        __file__,
        "bounded_residency",
        {
            "config": {
                "rows": rows,
                "memory_budget": budget,
                "reads": 3 * budget,
                "batch_reads": budget // BATCH_KEYS,
                "batch_keys": BATCH_KEYS,
                "smoke": smoke,
            },
            **results,
        },
    )
    assert results["max_resident"] <= budget
    # the stream was 3× the budget over 10× the budget's keyspace:
    # eviction must actually have run
    assert results["evictions"] > 0
    assert results["hydrations"] > budget
    # a batch read faults each of its cold keys in once: the backstop
    # takes the arrays the batch just installed last
    assert results["batch_hydrations_per_cold_key"] <= 1.0, results
    # the backstop pops its candidates off the eviction queues: a visit
    # evicts, moves a written array to its queue once, or spares a key
    assert results["sweep_visits_per_eviction"] <= 3.0, results
