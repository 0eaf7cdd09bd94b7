"""Ablation A5 + storage microbenchmarks: the LSM base table.

The paper configures RocksDB with ``sync = true`` "to guarantee failure
atomicity" and attributes the writers' low throughput share to it.  These
benchmarks quantify that knob on our LSM store, plus the point-read path
(bloom filters + cache) the ad-hoc readers depend on, and the memtable's
per-operation cost (every committed row is a memtable put under the store
lock).

Run:  pytest benchmarks/bench_storage.py --benchmark-only -s
"""

from __future__ import annotations

import random
import time

import pytest

from repro.storage import LSMOptions, LSMStore, MemTable

from conftest import record_bench, report_lines

ROWS = 500
# the paper's record shape: 4-byte keys, 20-byte values
KEY = "{:04d}".format
VALUE = b"v" * 20


@pytest.mark.benchmark(group="storage-write")
@pytest.mark.parametrize("sync", [False, True], ids=["sync-off", "sync-on"])
def test_put_throughput_sync_knob(benchmark, tmp_path, sync):
    store = LSMStore(tmp_path / ("s" if sync else "ns"), LSMOptions(sync=sync))
    counter = iter(range(10_000_000))

    def put_one():
        i = next(counter)
        store.put(KEY(i % 10_000).encode(), VALUE)

    benchmark(put_one)
    store.close()


@pytest.mark.benchmark(group="storage-write")
def test_batch_commit_amortises_sync(benchmark, tmp_path):
    """One synced batch per transaction (the commit path's pattern)."""
    store = LSMStore(tmp_path, LSMOptions(sync=True))
    counter = iter(range(10_000_000))

    def put_batch():
        base = next(counter) * 10
        store.write_batch(
            puts=[(KEY((base + i) % 10_000).encode(), VALUE) for i in range(10)],
            deletes=[],
        )

    benchmark(put_batch)
    store.close()


@pytest.mark.benchmark(group="storage-read")
def test_point_read_hot(benchmark, tmp_path):
    store = LSMStore(tmp_path, LSMOptions(sync=False))
    for i in range(ROWS):
        store.put(KEY(i).encode(), VALUE)
    store.flush()

    benchmark(store.get, KEY(ROWS // 2).encode())
    store.close()


@pytest.mark.benchmark(group="storage-read")
def test_point_read_cold_uniform(benchmark, tmp_path):
    store = LSMStore(
        tmp_path, LSMOptions(sync=False, cache_capacity=32, auto_compact=False)
    )
    for i in range(ROWS):
        store.put(KEY(i).encode(), VALUE)
        if i % 100 == 99:
            store.flush()
    rng = random.Random(7)

    def read_random():
        return store.get(KEY(rng.randrange(ROWS)).encode())

    benchmark(read_random)
    store.close()


@pytest.mark.benchmark(group="storage-read")
def test_absent_key_bloom_short_circuit(benchmark, tmp_path):
    store = LSMStore(tmp_path, LSMOptions(sync=False, cache_capacity=1))
    for i in range(ROWS):
        store.put(KEY(i).encode(), VALUE)
    store.flush()

    def read_absent():
        return store.get(b"zzzz-absent")

    benchmark(read_absent)
    assert store.stats.bloom_skips > 0 or store.stats.sstable_reads == 0
    store.close()


@pytest.mark.benchmark(group="storage-read")
def test_miss_heavy_negative_cache(benchmark, tmp_path):
    """Miss-heavy read mix: repeated probes for absent keys must settle in
    the cache (negative caching), not re-walk memtables + SSTables —
    bloom filters already skip most SSTable reads, but only the cached
    ``absent`` verdict also skips the probabilistic check itself."""
    store = LSMStore(tmp_path, LSMOptions(sync=False, cache_capacity=1024))
    for i in range(ROWS):
        store.put(KEY(i).encode(), VALUE)
    store.flush()
    # 32 absent keys probed over and over: after one cold round every
    # further lookup is a negative cache hit.
    absent = [KEY(ROWS + i).encode() + b"-absent" for i in range(32)]
    counter = iter(range(10_000_000))

    def read_absent_working_set():
        return store.get(absent[next(counter) % len(absent)])

    result = benchmark(read_absent_working_set)
    assert result is None
    stats = store.stats
    assert stats.extra.get("negative_inserts", 0) >= len(absent)
    assert stats.extra.get("negative_hits", 0) > stats.extra["negative_inserts"]
    store.close()


@pytest.mark.benchmark(group="storage-scan")
def test_range_scan(benchmark, tmp_path):
    store = LSMStore(tmp_path, LSMOptions(sync=False))
    for i in range(ROWS):
        store.put(KEY(i).encode(), VALUE)
    store.flush()

    def scan_range():
        return sum(1 for _ in store.scan(KEY(100).encode(), KEY(200).encode()))

    count = benchmark(scan_range)
    assert count == 100
    store.close()


@pytest.mark.benchmark(group="storage-maintenance")
def test_compaction_cost(benchmark, tmp_path):
    def build_and_compact():
        store = LSMStore(
            tmp_path / str(next(counter)),
            LSMOptions(sync=False, auto_compact=False),
        )
        for batch in range(4):
            for i in range(100):
                store.put(KEY(i).encode(), f"b{batch}".encode() * 5)
            store.flush()
        store.compact_all()
        shape = store.level_shape()
        store.close()
        return shape

    counter = iter(range(10_000))
    shape = benchmark.pedantic(build_and_compact, rounds=3, iterations=1)
    assert sum(shape.values()) == 1  # fully compacted into one run


#: Memtable fills: ``perfbench``'s ``ingest_replicated`` 128 KiB budget
#: (about 2.6k entries of 8-byte keys and 18-byte values) and the
#: ``LSMOptions`` default of 4 MiB (about 84k entries).
MEMTABLE_FILLS = {"128KiB": 128 * 1024, "4MiB": LSMOptions().memtable_bytes}
#: Keys per timed memtable range and ranges timed per case.
RANGE_WIDTH = 100
RANGES = 1000


@pytest.mark.benchmark(group="storage-memtable")
@pytest.mark.parametrize("order", ["random", "ascending"])
@pytest.mark.parametrize("fill", list(MEMTABLE_FILLS))
def test_memtable_op_costs(benchmark, fill, order):
    """Real-clock µs per memtable put, get and ``RANGE_WIDTH``-key range,
    filling one memtable to a flush budget with random or ascending
    8-byte keys (ascending is the append-only case a sorted structure
    handles best; random keys land anywhere in the key order)."""
    budget = MEMTABLE_FILLS[fill]
    rng = random.Random(11)
    value = b"v" * 18
    count = budget // (8 + len(value) + 24)
    if order == "random":
        keys = [rng.getrandbits(64).to_bytes(8, "big") for _ in range(count)]
    else:
        keys = [i.to_bytes(8, "big") for i in range(count)]
    probes = list(keys)
    rng.shuffle(probes)
    ordered = sorted(keys)
    starts = [rng.randrange(len(ordered) - RANGE_WIDTH) for _ in range(RANGES)]
    bounds = [(ordered[i], ordered[i + RANGE_WIDTH]) for i in starts]

    def measure() -> dict[str, float]:
        memtable = MemTable()
        put, get, scan = memtable.put, memtable.get, memtable.range
        t0 = time.perf_counter()
        for key in keys:
            put(key, value)
        t1 = time.perf_counter()
        for key in probes:
            get(key)
        t2 = time.perf_counter()
        for low, high in bounds:
            for _entry in scan(low, high):
                pass
        t3 = time.perf_counter()
        assert memtable.approximate_bytes() <= budget
        return {
            "entries": len(memtable),
            "put_us": (t1 - t0) / len(keys) * 1e6,
            "get_us": (t2 - t1) / len(probes) * 1e6,
            "range_us": (t3 - t2) / len(bounds) * 1e6,
        }

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    report_lines(
        f"memtable {fill} {order}",
        [
            f"entries {result['entries']}: put {result['put_us']:.2f} µs, "
            f"get {result['get_us']:.2f} µs, "
            f"{RANGE_WIDTH}-key range {result['range_us']:.2f} µs"
        ],
    )
    record_bench(__file__, "memtable_ops", {f"{fill}-{order}": result}, merge=True)
