"""Lazy version hydration, bounded residency, and O(tail) startup.

The larger-than-memory read path (``state_residency="lazy"``):

* a reopened lazy manager starts with a (nearly) empty version index —
  only the replayed commit-WAL tail is hydrated — and each point read
  faults its row in from the base table as an idempotent bootstrap
  version;
* scans merge the resident index with a base-table sweep, so a lazy
  manager answers exactly what a full-residency manager would;
* the residency budget holds up to the keys written since the last
  fault-in: the sweep (and the strict inline backstop) demotes arrays
  whose newest version is clean (the base table holds it) and at or
  below the GC horizon — never-written arrays first, written ones when
  those do not suffice, each popped off its FIFO queue — and the next
  read faults them back in;
* the inline backstop takes the faulting read's own keys last, so a
  read faults each cold key in once, and a strict sweep visits each
  resident array once;
* a write to a cold key needs no fault-in for First-Committer-Wins,
  carries its backend pre-image for barrier-capped readers, and aborts
  exactly when full residency would;
* a split source's moved arrays lose their clean bit at the purge, so a
  reader that routed there before the flip never re-faults them from
  the purged base table;
* ``kill -9`` mid-hydration and mid-evict both reopen — in lazy *and*
  full mode — to the identical committed state, because hydration and
  eviction never touch durable bytes;
* a bootstrap version stays readable for as long as any capped snapshot
  could still resolve it (the GC horizon folds the global barrier in);
* the fleet-wide ``cache_budget`` and ``memory_budget`` re-divide when a
  merge retires a shard, so survivors reclaim the husk's share.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time

import pytest

from repro.core import MVCCObject, ShardedTransactionManager, StateTable
from repro.core.write_set import WriteSet
from repro.errors import WriteConflict
from repro.recovery.sharded import ShardedSchema
from repro.storage.lsm import LSMOptions, LSMStore

from helpers import run_crash_child, scan_all


def make_lazy(tmp_path, rows=200, **kwargs) -> ShardedTransactionManager:
    smgr = ShardedTransactionManager(
        num_shards=4, data_dir=tmp_path, state_residency="lazy", **kwargs
    )
    smgr.create_table("A")
    smgr.register_group("g", ["A"])
    if rows:
        smgr.bulk_load("A", [(i, i * 3) for i in range(rows)])
    return smgr


def resident_total(smgr: ShardedTransactionManager, state_id: str = "A") -> int:
    return sum(
        shard.table(state_id).resident_keys() for shard in smgr.shards
    )


def lazy_table(rows: int) -> StateTable:
    """A standalone lazy table over ``rows`` backend rows (value ``i``)
    with ``bootstrap_cts`` 1."""
    table = StateTable("A", residency="lazy")
    for i in range(rows):
        table.backend.put(table.key_codec.encode(i), table.value_codec.encode(i))
    table.bootstrap_cts = 1
    return table


def commit(table: StateTable, key, value, ts: int) -> None:
    write = WriteSet()
    write.upsert(key, value)
    with table.commit_latch:
        table.apply_write_set(write, ts, 0)


# ---------------------------------------------------------- version arrays


class TestBootstrapInstall:
    def test_install_bootstrap_is_idempotent(self):
        obj = MVCCObject()
        assert obj.install_bootstrap("row", 5)
        assert not obj.install_bootstrap("row", 5)
        assert obj.version_count() == 1
        live = obj.live_version()
        assert live.value == "row" and live.clean and live.cts == 5

    def test_bootstrap_loses_to_committed_version(self):
        obj = MVCCObject()
        obj.install("newer", 9, 0)
        assert not obj.install_bootstrap("stale", 5)
        assert obj.live_version().value == "newer"

    def test_bootstrap_after_committed_delete_stays_dead(self):
        # the committed delete beat the fault-in: the racing reader's
        # backend row must stay visible for [cts, delete_ts) only, never
        # resurrect as live.
        obj = MVCCObject()
        obj.mark_deleted(12)
        assert obj.install_bootstrap("row", 5)
        assert obj.live_version() is None
        assert obj.read_at(11).value == "row"
        assert obj.read_at(12) is None

    def test_evictable_only_clean_single_bootstrap(self):
        obj = MVCCObject()
        obj.install_bootstrap("row", 5)
        assert not obj.evictable(horizon=4, strict=True)  # above horizon
        assert obj.evictable(horizon=5, strict=True)
        # second chance: a referenced array survives one non-strict sweep
        obj.referenced = True
        assert not obj.evictable(horizon=5)
        assert obj.evictable(horizon=5)
        # a bare install is not known to be in the base table: resident
        written = MVCCObject()
        written.install("v", 7, 0)
        assert not written.evictable(horizon=100, strict=True)

    def test_evictable_written_once_sole_survivor_is_clean_and_old(self):
        obj = MVCCObject()
        obj.install_bootstrap("row", 5)
        obj.install("v", 9, 0, clean=True)
        # the superseded bootstrap is still readable below 9
        assert not obj.evictable(horizon=8, strict=True)
        # dead at the horizon it no longer counts; the written version is
        # the sole clean live survivor at or below the horizon
        assert obj.evictable(horizon=9, strict=True)
        # a delete leaves no live survivor
        obj.mark_deleted(12)
        assert not obj.evictable(horizon=20, strict=True)
        # a purge clears the clean bit
        moved = MVCCObject()
        moved.install_bootstrap("row", 5)
        moved.mark_dirty()
        assert not moved.evictable(horizon=20, strict=True)


# ----------------------------------------------------------- table hydration


class TestTableHydration:
    def test_read_faults_row_in_and_counts(self):
        table = StateTable("A", residency="lazy")
        table.backend.put(table.key_codec.encode(1), table.value_codec.encode("x"))
        table.bootstrap_cts = 7
        assert table.resident_keys() == 0
        entry = table.read_version_at(1, 10)
        assert entry.value == "x" and entry.clean
        assert table.resident_keys() == 1
        assert table.hydrations == 1
        # second read is a plain index hit
        table.read_version_at(1, 10)
        assert table.hydrations == 1

    def test_negative_miss_counts_and_returns_none(self):
        table = StateTable("A", residency="lazy")
        assert table.read_live(404) is None
        assert table.hydration_misses == 1
        assert table.resident_keys() == 0

    def test_latest_cts_answers_bootstrap_cts_for_cold_key(self):
        # First-Committer-Wins over a cold key sees the bootstrap
        # timestamp, not a silent 0 — and needs no fault-in for it.
        table = StateTable("A", residency="lazy")
        table.backend.put(table.key_codec.encode(1), table.value_codec.encode("x"))
        table.bootstrap_cts = 7
        assert table.latest_cts(1) == 7
        assert table.hydrations == 0 and table.resident_keys() == 0

    def test_full_residency_never_hydrates(self):
        table = StateTable("A")  # residency="full" default
        table.backend.put(table.key_codec.encode(1), table.value_codec.encode("x"))
        assert table.read_live(1) is None
        assert table.hydrations == 0

    def test_eviction_then_refault_reproduces_entry(self):
        table = StateTable("A", residency="lazy")
        for i in range(20):
            table.backend.put(
                table.key_codec.encode(i), table.value_codec.encode(i * 2)
            )
        table.bootstrap_cts = 3
        for i in range(20):
            table.read_live(i)
        assert table.resident_keys() == 20
        evicted = table.evict_cold_versions(limit=20, horizon=3, strict=True)
        assert evicted == 20
        assert table.resident_keys() == 0
        assert table.residency_evictions == 20
        # cold again — the refault reproduces the identical entry
        entry = table.read_live(5)
        assert entry.value == 10 and entry.clean and entry.cts == 3

    def test_budget_is_hard_cap_via_inline_backstop(self):
        table = StateTable("A", residency="lazy")
        for i in range(50):
            table.backend.put(
                table.key_codec.encode(i), table.value_codec.encode(i)
            )
        table.bootstrap_cts = 1
        table.residency_budget = 8
        table.gc_horizon_hook = lambda: 10**9
        for i in range(50):
            table.read_live(i)
            assert table.resident_keys() <= 8
        assert table.residency_evictions >= 42

    def test_eviction_spares_written_keys(self):
        table = StateTable("A", residency="lazy")
        for i in range(10):
            table.backend.put(
                table.key_codec.encode(i), table.value_codec.encode(i)
            )
        table.bootstrap_cts = 1
        for i in range(10):
            table.read_live(i)
        # a version the base table does not hold pins key 3 resident
        table.mvcc_object(3).install("written", 50, 0)
        table.evict_cold_versions(limit=10, horizon=10**9, strict=True)
        assert table.resident_keys() == 1
        assert table.read_live(3).value == "written"

    @pytest.mark.parametrize("batched", [False, True], ids=["get", "multi_get"])
    def test_fault_in_rereads_when_a_racing_write_was_evicted(
        self, monkeypatch, batched
    ):
        # The reader fetches "v1"; before it installs that, a commit
        # writes "v2" through and its array is evicted.  Installing the
        # fetched row into a fresh array would resurrect "v1" as live.
        table = StateTable("A", residency="lazy")
        table.backend.put(table.key_codec.encode(1), table.value_codec.encode("v1"))
        table.bootstrap_cts = 1
        # Both fault-in paths read the base table through one multi_get.
        real = table.backend.multi_get
        raced: list[bool] = []

        def racing(arg):
            fetched = real(arg)
            if not raced:
                raced.append(True)
                write = WriteSet()
                write.upsert(1, "v2")
                with table.commit_latch:
                    table.apply_write_set(write, 5, 0)
                assert table.evict_cold_versions(limit=1, horizon=9, strict=True) == 1
            return fetched

        monkeypatch.setattr(table.backend, "multi_get", racing)
        if batched:
            assert table.hydrate_many([1]) == 1
        assert table.read_live(1).value == "v2"
        assert table.read_version_at(1, 9).value == "v2"

    def test_commit_publishes_cold_key_with_its_preimage(self, monkeypatch):
        # A lock-free reader looks the key up while a commit at ts 10
        # fetches its pre-image: the key exists at ts 5 and must read so.
        table = lazy_table(0)
        table.backend.put(table.key_codec.encode(1), table.value_codec.encode("v1"))
        real = table.backend.multi_get
        seen: list = []

        def reading(arg):
            if not seen:
                seen.append(None)
                seen[0] = table.read_version_at(1, 5)
            return real(arg)

        monkeypatch.setattr(table.backend, "multi_get", reading)
        commit(table, 1, "v2", 10)
        assert seen[0] is not None and seen[0].value == "v1"
        assert table.read_version_at(1, 5).value == "v1"
        assert table.read_version_at(1, 10).value == "v2"

    def test_fault_in_publishes_array_with_its_row(self, monkeypatch):
        # A second reader looks the key up while the first installs the
        # row it faulted in: it must not find the array empty.
        table = lazy_table(3)
        real = MVCCObject.install_bootstrap
        seen: list = []

        def reading(obj, value, cts):
            if not seen:
                seen.append(None)
                seen[0] = table.read_version_at(2, 5)
            return real(obj, value, cts)

        monkeypatch.setattr(MVCCObject, "install_bootstrap", reading)
        assert table.read_live(2).value == 2
        assert seen[0] is not None and seen[0].value == 2
        assert table.hydrations == 1

    @pytest.mark.parametrize("batched", [False, True], ids=["get", "multi_get"])
    def test_fault_in_stamped_superseded_is_collected(self, monkeypatch, batched):
        # The reader fetches "v1"; before it installs that, a commit
        # deletes the key and a sweep reclaims every version, leaving an
        # empty array that remembers the delete.  The fault-in then
        # installs "v1" already superseded, so a sweep must visit it.
        table = StateTable("A", residency="lazy")
        table.backend.put(table.key_codec.encode(1), table.value_codec.encode("v1"))
        table.bootstrap_cts = 1
        # Both fault-in paths read the base table through one multi_get.
        real = table.backend.multi_get
        raced: list[bool] = []

        def racing(arg):
            fetched = real(arg)
            if not raced:
                raced.append(True)
                delete = WriteSet()
                delete.delete(1)
                with table.commit_latch:
                    table.apply_write_set(delete, 5, 0)
                assert table.collect_garbage(9) == (1, 1)
                assert table.mvcc_object(1).version_count() == 0
            return fetched

        monkeypatch.setattr(table.backend, "multi_get", racing)
        if batched:
            assert table.hydrate_many([1]) == 1
        else:
            assert table.read_version_at(1, 4).value == "v1"
        assert table.read_live(1) is None
        assert table.collect_garbage(9) == (1, 1)
        assert table.mvcc_object(1).version_count() == 0

    def test_fault_in_racing_a_commit_is_collected_below_its_bound(
        self, monkeypatch
    ):
        # As above, and a commit at 7 writes the key between the fault-in's
        # install (superseded at 5) and its registration, queueing the key
        # at 7: a sweep at 6 must still reclaim the version dead at 5.
        table = StateTable("A", residency="lazy")
        table.backend.put(table.key_codec.encode(1), table.value_codec.encode("v1"))
        table.bootstrap_cts = 1
        real_get = table.backend.multi_get
        real_install = MVCCObject.install_bootstrap
        raced: list[MVCCObject | None] = []

        def racing_get(arg):
            fetched = real_get(arg)
            if not raced:
                raced.append(None)
                delete = WriteSet()
                delete.delete(1)
                with table.commit_latch:
                    table.apply_write_set(delete, 5, 0)
                table.collect_garbage(9)
                raced[0] = table.mvcc_object(1)
                assert raced[0].version_count() == 0
            return fetched

        def racing_install(obj, value, cts):
            installed = real_install(obj, value, cts)
            if raced and obj is raced[0]:
                raced[0] = None
                write = WriteSet()
                write.upsert(1, "w")
                with table.commit_latch:
                    table.apply_write_set(write, 7, 0)
            return installed

        monkeypatch.setattr(table.backend, "multi_get", racing_get)
        monkeypatch.setattr(MVCCObject, "install_bootstrap", racing_install)
        assert table.hydrate_many([1]) == 1
        monkeypatch.undo()
        obj = table.mvcc_object(1)
        assert [(v.value, v.dts) for v in obj.versions()][-1] == ("v1", 5)
        assert table.collect_garbage(6) == (1, 1)
        assert obj.collect(6) == 0
        assert table.read_live(1).value == "w"

    def test_lazy_scan_merges_cold_and_resident(self):
        table = StateTable("A", residency="lazy")
        for i in range(10):
            table.backend.put(
                table.key_codec.encode(i), table.value_codec.encode(i * 2)
            )
        table.bootstrap_cts = 5
        table.read_live(3)  # one resident key
        # a resident write shadows its backend row
        table.mvcc_object(3).install(99, 8, 0)
        rows = dict(table.scan_live())
        assert rows == {**{i: i * 2 for i in range(10)}, 3: 99}
        # scans never install bootstrap versions
        assert table.resident_keys() == 1
        # snapshot below bootstrap_cts sees no cold rows at all
        assert dict(table.scan_at(4)) == {}
        # bounded scan
        assert dict(table.scan_at(8, low=2, high=5)) == {2: 4, 3: 99, 4: 8}

    def test_create_index_rejected_on_lazy(self):
        table = StateTable("A", residency="lazy")
        with pytest.raises(ValueError, match="residency"):
            table.create_index("by_value", lambda v: v)

    def test_resident_row_costs_four_gc_tracked_objects(self):
        # Every GC-tracked object a fault-in leaves behind counts toward
        # the collector's generation-0 threshold, so it sets how often
        # young-generation passes land in reads and scans.  A resident
        # row is its MVCCObject, the version list, the latch and one
        # VersionEntry; the allowance covers one-off allocations.
        rows = 1000
        table = StateTable("A", residency="lazy")
        table.backend.write_batch(
            [
                (table.key_codec.encode(k), table.value_codec.encode(k * 3))
                for k in range(rows)
            ],
            [],
        )
        gc.disable()
        try:
            gc.collect()
            before = gc.get_count()[0]
            for key in range(rows):
                assert table.read_version_at(key, 0).value == key * 3
            grown = gc.get_count()[0] - before
        finally:
            gc.enable()
        assert table.resident_keys() == rows
        assert grown <= 4 * rows + 50


# ----------------------------------------------------------- batched reads


class TestMultiGet:
    def test_lsm_multi_get_matches_point_gets(self, tmp_path):
        opts = LSMOptions(sync=False, memtable_bytes=512)
        with LSMStore(tmp_path, opts) as store:
            for i in range(60):
                store.put(f"k{i:03d}".encode(), f"v{i}".encode())
            probe = [f"k{i:03d}".encode() for i in (3, 57, 0, 41, 9)]
            probe.append(b"missing")
            expected = [b"v3", b"v57", b"v0", b"v41", b"v9", None]
            assert store.multi_get(probe) == expected
            assert [store.get(k) for k in probe] == expected
            # result order follows the request order, duplicates included
            twice = [b"k005", b"k005"]
            assert store.multi_get(twice) == [store.get(b"k005")] * 2
            assert store.multi_get([]) == []

    def test_hydrate_many_batch_faults_cold_keys(self):
        table = StateTable("A", residency="lazy")
        for i in range(30):
            table.backend.put(
                table.key_codec.encode(i), table.value_codec.encode(i)
            )
        table.bootstrap_cts = 2
        table.read_live(4)  # already resident: not re-faulted
        installed = table.hydrate_many(list(range(10)) + [999])
        assert installed == 9
        assert table.hydration_misses == 1
        assert table.resident_keys() == 10

    def test_read_many_scatter_gather(self, tmp_path):
        smgr = make_lazy(tmp_path, rows=100)
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        keys = [5, 17, 40, 99, 123]  # 123 does not exist
        with reopened.transaction() as txn:
            out = reopened.read_many(txn, "A", keys)
        assert out == {5: 15, 17: 51, 40: 120, 99: 297, 123: None}
        # the batch faulted its keys in (and only them)
        assert resident_total(reopened) == 4
        reopened.close()


# ---------------------------------------------------------- sharded manager


class TestLazyOpen:
    def test_schema_persists_residency(self, tmp_path):
        smgr = make_lazy(tmp_path, rows=0)
        smgr.close()
        assert ShardedSchema.load(tmp_path).state_residency == "lazy"
        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.state_residency == "lazy"
        assert all(
            t.residency == "lazy" for s in reopened.shards for t in s.tables()
        )
        reopened.close()

    def test_clean_reopen_starts_cold_and_answers_reads(self, tmp_path):
        smgr = make_lazy(tmp_path, rows=200)
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        # clean shutdown => empty tail => nothing hydrated at open
        assert resident_total(reopened) == 0
        with reopened.transaction() as txn:
            assert reopened.read(txn, "A", 7) == 21
            assert reopened.read(txn, "A", 1234) is None
        stats = reopened.stats()
        assert stats["hydrations"] == 1
        assert stats["hydration_misses"] >= 1
        assert scan_all(reopened, "A") == {i: i * 3 for i in range(200)}
        # the scan answered from the backend without blowing up residency
        assert resident_total(reopened) <= 1
        reopened.close()

    def test_tail_is_hydrated_eagerly_at_open(self, tmp_path):
        smgr = make_lazy(tmp_path, rows=100)
        smgr.close()
        # crash (not close) so the committed tail survives for replay
        script = r"""
import os, sys
from repro.core import ShardedTransactionManager
smgr = ShardedTransactionManager.open(sys.argv[1])
for i in range(10):
    with smgr.transaction() as txn:
        smgr.write(txn, "A", i, {"tail": i})
with smgr.transaction() as txn:
    smgr.delete(txn, "A", 55)
smgr.flush_durability()
os._exit(42)
"""
        proc = run_crash_child(script, tmp_path)
        assert proc.returncode == 42, proc.stderr
        reopened = ShardedTransactionManager.open(tmp_path)
        assert reopened.last_recovery.commits_replayed >= 11
        # replayed upserts are resident at their true commit ts; the
        # replayed delete stays cold (nothing to install)
        assert 1 <= resident_total(reopened) <= 10
        assert scan_all(reopened, "A") == {
            **{i: {"tail": i} for i in range(10)},
            **{i: i * 3 for i in range(10, 100) if i != 55},
        }
        reopened.close()

    def test_reads_match_full_residency_reopen(self, tmp_path):
        smgr = make_lazy(tmp_path, rows=150)
        for i in range(0, 150, 7):
            with smgr.transaction() as txn:
                smgr.write(txn, "A", i, i + 1000)
        smgr.close()
        lazy = ShardedTransactionManager.open(tmp_path)
        lazy_state = scan_all(lazy, "A")
        lazy.close()
        full = ShardedTransactionManager.open(tmp_path, state_residency="full")
        assert scan_all(full, "A") == lazy_state
        full.close()

    def test_memory_budget_bounds_residency(self, tmp_path):
        smgr = make_lazy(tmp_path, rows=400)
        smgr.close()
        # memory_budget is a runtime knob (like cache_budget), passed anew
        reopened = ShardedTransactionManager.open(tmp_path, memory_budget=40)
        per_table = reopened.memory_budget // 4
        rng = random.Random(11)
        for _ in range(300):
            key = rng.randrange(400)
            with reopened.transaction() as txn:
                assert reopened.read(txn, "A", key) == key * 3
            for shard in reopened.shards:
                assert shard.table("A").resident_keys() <= per_table
        assert reopened.stats()["residency_evictions"] > 0
        reopened.close()


class TestBudgetRedivision:
    def test_merge_shard_rediv_cache_and_memory_budget(self, tmp_path):
        smgr = ShardedTransactionManager(
            num_shards=4,
            data_dir=tmp_path,
            state_residency="lazy",
            cache_budget=4096,
            memory_budget=400,
        )
        smgr.create_table("A")
        smgr.bulk_load("A", [(i, i) for i in range(80)])
        assert all(
            s.options.cache_capacity == 1024 for s in smgr._lsm_backends()
        )
        assert all(
            shard.table("A").residency_budget == 100 for shard in smgr.shards
        )
        smgr.merge_shard(0, 1)
        # three active shards reclaim the husk's share
        for idx in range(4):
            stores = smgr._lsm_backends(idx)
            tables = smgr.shards[idx].tables()
            if idx == 0:
                assert all(s.options.cache_capacity == 1 for s in stores)
                assert all(t.residency_budget is None for t in tables)
            else:
                assert all(
                    s.options.cache_capacity == 4096 // 3 for s in stores
                )
                assert all(t.residency_budget == 400 // 3 for t in tables)
        smgr.close()

    def test_split_shard_rediv_budgets_over_new_fleet(self, tmp_path):
        smgr = ShardedTransactionManager(
            num_shards=2,
            data_dir=tmp_path,
            state_residency="lazy",
            cache_budget=3000,
            memory_budget=300,
        )
        smgr.create_table("A")
        smgr.bulk_load("A", [(i, i) for i in range(40)])
        smgr.split_shard(0)
        assert smgr.num_shards == 3
        assert all(
            s.options.cache_capacity == 1000 for s in smgr._lsm_backends()
        )
        assert all(
            shard.table("A").residency_budget == 100 for shard in smgr.shards
        )
        # the new shard's lazy partition is wired for eviction too
        new_table = smgr.shards[2].table("A")
        assert new_table.residency == "lazy"
        assert new_table.gc_horizon_hook is not None
        smgr.close()


class TestMigrationWithLazyPartitions:
    def test_split_moves_cold_rows_and_scans_stay_exact(self, tmp_path):
        smgr = make_lazy(tmp_path, rows=120)
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        # hydrate a handful, leave the rest cold, then split
        with reopened.transaction() as txn:
            for i in range(0, 120, 17):
                reopened.read(txn, "A", i)
        target = reopened.split_shard(0)
        assert scan_all(reopened, "A") == {i: i * 3 for i in range(120)}
        # moved cold keys are readable through the target's lazy fault-in
        moved = [
            i for i in range(120) if reopened.slot_map.shard_of(i) == target
        ]
        assert moved, "split moved no keys"
        with reopened.transaction() as txn:
            for key in moved:
                assert reopened.read(txn, "A", key) == key * 3
        reopened.close()
        # durable layout is consistent after the move
        again = ShardedTransactionManager.open(tmp_path)
        assert scan_all(again, "A") == {i: i * 3 for i in range(120)}
        again.close()


# ------------------------------------------------------ write-back eviction


def home_table(smgr: ShardedTransactionManager, key, state_id: str = "A"):
    return smgr.shards[smgr.slot_map.shard_of(key)].table(state_id)


def evict_all(smgr: ShardedTransactionManager, state_id: str = "A") -> int:
    return sum(
        shard.table(state_id).evict_cold_versions(limit=10**6, strict=True)
        for shard in smgr.shards
    )


class TestWriteBackEviction:
    """Written keys leave memory once the base table holds their newest
    version and no snapshot can read below it."""

    def test_budget_holds_for_written_pool_larger_than_share(self, tmp_path):
        make_lazy(tmp_path, rows=400).close()
        smgr = ShardedTransactionManager.open(
            tmp_path, memory_budget=40, storage_maintenance="inline"
        )
        budget = smgr.memory_budget // 4
        pool = list(range(0, 400, 5))
        per_shard = [
            sum(1 for key in pool if smgr.slot_map.shard_of(key) == idx)
            for idx in range(4)
        ]
        assert min(per_shard) > budget  # the written pool outgrows the share
        tables = [shard.table("A") for shard in smgr.shards]
        faults = [table.hydrations for table in tables]
        written_since: list[set] = [set() for _ in tables]
        rng = random.Random(5)
        expected = {i: i * 3 for i in range(400)}

        def check() -> None:
            for idx, table in enumerate(tables):
                if table.hydrations != faults[idx]:
                    faults[idx] = table.hydrations
                    written_since[idx].clear()
                assert table.resident_keys() <= budget + len(written_since[idx])

        for step in range(400):
            if step % 2:
                keys = rng.sample(pool, 3)
                with smgr.transaction() as txn:
                    for key in keys:
                        smgr.write(txn, "A", key, step)
                for key in keys:
                    expected[key] = step
                    written_since[smgr.slot_map.shard_of(key)].add(key)
            else:
                key = rng.randrange(400)
                with smgr.transaction() as txn:
                    assert smgr.read(txn, "A", key) == expected[key]
            check()
        assert any(home_table(smgr, key).mvcc_object(key) is None for key in pool)
        assert scan_all(smgr, "A") == expected
        smgr.close()

    def test_evicted_written_key_refaults_at_every_open_snapshot(self, tmp_path):
        make_lazy(tmp_path, rows=40).close()
        smgr = ShardedTransactionManager.open(tmp_path)
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 7, "w1")
        table = home_table(smgr, 7)
        with smgr.snapshot() as view, smgr.transaction() as txn:
            assert evict_all(smgr) > 0
            assert table.mvcc_object(7) is None
            assert view.get("A", 7) == "w1"
            assert smgr.read(txn, "A", 7) == "w1"
            # the re-fault is a clean bootstrap entry: evictable again
            assert table.mvcc_object(7).live_version().clean
            assert evict_all(smgr) > 0
            assert view.get("A", 7) == "w1"
        with smgr.transaction() as txn:
            assert smgr.read(txn, "A", 7) == "w1"
        smgr.close()

    def test_active_snapshot_below_write_blocks_eviction(self, tmp_path):
        make_lazy(tmp_path, rows=40).close()
        smgr = ShardedTransactionManager.open(tmp_path)
        table = home_table(smgr, 9)
        with smgr.snapshot() as view:
            assert view.get("A", 9) == 27
            with smgr.transaction() as txn:
                smgr.write(txn, "A", 9, "new")
            evict_all(smgr)
            # the snapshot still reads below the write: the array stays
            assert table.mvcc_object(9) is not None
            assert view.get("A", 9) == 27
        assert evict_all(smgr) > 0
        assert table.mvcc_object(9) is None
        with smgr.transaction() as txn:
            assert smgr.read(txn, "A", 9) == "new"
        smgr.close()

    def test_barrier_capped_snapshot_reads_cold_write_preimage(self, tmp_path):
        make_lazy(tmp_path, rows=40).close()
        smgr = ShardedTransactionManager.open(tmp_path)
        table = home_table(smgr, 11)
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 11, "w1")
        assert evict_all(smgr) > 0
        assert table.mvcc_object(11) is None
        # a cross-shard commit held mid phase two keeps the barrier below
        # the next write, so a reader beginning after it pins below it
        held = smgr.snapshot_coordinator.begin_commit()
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 11, "w2")  # a cold write
        reader = smgr.begin()
        try:
            assert smgr.read(reader, "A", 11) == "w1"
            evict_all(smgr)
            assert smgr.read(reader, "A", 11) == "w1"
        finally:
            smgr.snapshot_coordinator.complete(held)
            smgr.abort(reader)
        with smgr.transaction() as txn:
            assert smgr.read(txn, "A", 11) == "w2"
        smgr.close()

    def test_wal_tail_keys_become_evictable(self, tmp_path):
        make_lazy(tmp_path, rows=100).close()
        script = r"""
import os, sys
from repro.core import ShardedTransactionManager
smgr = ShardedTransactionManager.open(sys.argv[1])
for i in range(10):
    with smgr.transaction() as txn:
        smgr.write(txn, "A", i, {"tail": i})
smgr.flush_durability()
os._exit(42)
"""
        proc = run_crash_child(script, tmp_path)
        assert proc.returncode == 42, proc.stderr
        smgr = ShardedTransactionManager.open(tmp_path)
        assert resident_total(smgr) == 10
        assert evict_all(smgr) == 10
        assert resident_total(smgr) == 0
        with smgr.transaction() as txn:
            for i in range(10):
                assert smgr.read(txn, "A", i) == {"tail": i}
        smgr.close()

    def test_blind_write_fcw_outcomes_match_full_residency(self, tmp_path):
        rows = 30
        managers = {}
        for mode in ("lazy", "full"):
            path = tmp_path / mode
            make_lazy(path, rows=rows).close()
            managers[mode] = ShardedTransactionManager.open(
                path, state_residency=mode, memory_budget=8
            )
        rng = random.Random(23)
        ops = []
        for _ in range(600):
            roll = rng.random()
            if roll < 0.25:
                ops.append(("begin",))
            elif roll < 0.6:
                ops.append(("write", rng.random(), rng.randrange(rows + 10)))
            elif roll < 0.85:
                ops.append(("commit", rng.random()))
            elif roll < 0.95:
                ops.append(("read", rng.randrange(rows + 10)))
            else:
                ops.append(("evict",))

        def play(smgr) -> list:
            open_txns: list = []
            outcomes: list = []
            for op in ops:
                if op[0] == "begin" and len(open_txns) < 4:
                    open_txns.append(smgr.begin())
                elif op[0] == "write" and open_txns:
                    txn = open_txns[int(op[1] * len(open_txns))]
                    smgr.write(txn, "A", op[2], len(outcomes))
                elif op[0] == "commit" and open_txns:
                    txn = open_txns.pop(int(op[1] * len(open_txns)))
                    try:
                        smgr.commit(txn)
                        outcomes.append("commit")
                    except WriteConflict:
                        outcomes.append("abort")
                elif op[0] == "read":
                    with smgr.transaction() as txn:
                        smgr.read(txn, "A", op[1])
                elif op[0] == "evict":
                    evict_all(smgr)
            for txn in open_txns:
                smgr.abort(txn)
            return outcomes

        lazy, full = (play(managers[mode]) for mode in ("lazy", "full"))
        assert "abort" in lazy and "commit" in lazy
        assert lazy == full
        assert scan_all(managers["lazy"], "A") == scan_all(managers["full"], "A")
        assert managers["lazy"].stats()["residency_evictions"] > 0
        for smgr in managers.values():
            smgr.close()


def lazy_on_shard_zero(tmp_path, budget_per_table: int):
    """A reopened 4-shard lazy manager with inline maintenance (no
    daemon sweeps race the counts), the 400 keys homed on shard 0, and
    that shard's table."""
    make_lazy(tmp_path, rows=400).close()
    smgr = ShardedTransactionManager.open(
        tmp_path, memory_budget=4 * budget_per_table, storage_maintenance="inline"
    )
    homed = [key for key in range(400) if smgr.slot_map.shard_of(key) == 0]
    return smgr, homed, smgr.shards[0].table("A")


class TestFaultOnce:
    """An over-budget partition faults each cold key of a read in once:
    the inline backstop takes the arrays its own fault-in just installed
    last, and a strict sweep visits each resident array once."""

    def test_read_many_over_budget_faults_each_key_once(self, tmp_path):
        budget = 10
        smgr, homed, table = lazy_on_shard_zero(tmp_path, budget)
        # written arrays fill the partition to its budget, as on
        # ``adhoc_pinned``: the batch's arrays are the only never-written ones
        written, cold = homed[:budget], homed[budget : budget + 8]
        with smgr.transaction() as txn:
            for key in written:
                smgr.write(txn, "A", key, -key)
        assert table.resident_keys() == budget
        before = table.hydrations
        with smgr.transaction() as txn:
            out = smgr.read_many(txn, "A", cold)
        assert out == {key: key * 3 for key in cold}
        assert table.hydrations - before == len(cold)
        assert table.resident_keys() <= budget
        with smgr.transaction() as txn:
            assert smgr.read_many(txn, "A", written) == {k: -k for k in written}
        smgr.close()

    def test_batch_larger_than_budget_stays_capped(self, tmp_path):
        budget = 8
        smgr, homed, table = lazy_on_shard_zero(tmp_path, budget)
        batch = homed[: 3 * budget]
        before = table.hydrations
        with smgr.transaction() as txn:
            out = smgr.read_many(txn, "A", batch)
        assert out == {key: key * 3 for key in batch}
        assert table.resident_keys() <= budget
        # the batch's tail is evicted and re-faulted once each, its head
        # is read where it was installed
        assert table.hydrations - before <= 2 * len(batch) - budget
        smgr.close()

    def test_strict_sweep_visits_each_array_once(self, monkeypatch):
        table = StateTable("A", residency="lazy")
        for i in range(60):
            table.backend.put(
                table.key_codec.encode(i), table.value_codec.encode(i)
            )
        table.bootstrap_cts = 1
        for i in range(40):
            table.read_live(i)
        # park the clock hand mid-snapshot, then add arrays it has not seen
        assert table.evict_cold_versions(limit=5, horizon=10, strict=True) == 5
        for i in range(40, 60):
            table.read_live(i)
        for i in range(10, 20):
            table.mvcc_object(i).mark_dirty()  # never evictable
        for i in range(20, 25):
            table.mvcc_object(i).install(i, 5, 0, clean=True)  # written
        visits: dict[int, int] = {}
        real = MVCCObject.evictable

        def counting(self, horizon, strict=False):
            visits[id(self)] = visits.get(id(self), 0) + 1
            return real(self, horizon, strict=strict)

        monkeypatch.setattr(MVCCObject, "evictable", counting)
        resident = table.resident_keys()
        evicted = table.evict_cold_versions(limit=resident, horizon=10, strict=True)
        assert evicted == resident - 10  # every array but the dirty ones
        assert len(visits) == resident
        assert max(visits.values()) == 1


class TestEvictionQueues:
    """The backstop pops its candidates off two FIFO queues (never-written
    arrays, then written ones), so it costs O(arrays evicted), and it reads
    the GC horizon only when a written candidate needs a newer one."""

    def test_backstop_visits_scale_with_evictions(self, monkeypatch):
        table = lazy_table(260)
        for i in range(200):
            commit(table, i, -i, 5 + i)  # cold writes: 200 written arrays
        for i in range(200, 204):
            table.read_live(i)  # a few never-written ones
        hooked: list[int] = []
        table.gc_horizon_hook = lambda: hooked.append(1) or 10**6
        table.residency_budget = table.resident_keys()
        calls = [0]
        real = MVCCObject.evictable

        def counting(self, horizon, strict=False):
            calls[0] += 1
            return real(self, horizon, strict=strict)

        monkeypatch.setattr(MVCCObject, "evictable", counting)
        for key in range(204, 260):
            calls[0] = 0
            evicted = table.residency_evictions
            assert table.read_live(key).value == key
            evicted = table.residency_evictions - evicted
            assert evicted == 1 and table.resident_keys() == 204
            assert calls[0] <= evicted + 1 + 2  # spare is the read's one key
            if key == 204:
                # the first sweep moves the 200 written arrays to their
                # queue, once; from then on a visit evicts, moves or spares
                visits = table.residency_sweep_visits
            commit(table, key, -key, 300 + key)  # the written pool grows
        visits = table.residency_sweep_visits - visits
        assert visits <= 3 * (table.residency_evictions - 1)
        # the never-written arrays went first, then the oldest written
        assert all(table.mvcc_object(i) is None for i in range(200, 204))
        assert all(table.mvcc_object(i) is None for i in range(52))
        assert all(table.mvcc_object(i) is not None for i in range(52, 200))
        assert len(hooked) == 1  # recorded by the first written candidate

    def test_hook_called_at_most_once_per_sweep(self):
        table = lazy_table(120)
        now = [0]
        hooked: list[int] = []

        def hook() -> int:
            hooked.append(now[0])
            return now[0]

        table.gc_horizon_hook = hook
        for i in range(60):
            now[0] = 10 + i
            commit(table, i, "w", now[0])
        now[0] += 1
        for i in range(60, 120):
            table.read_live(i)
        # never-written arrays pass on the recorded horizon alone
        assert table.evict_cold_versions(limit=30, strict=True) == 30
        assert hooked == [now[0]]  # recorded once: it started below bootstrap
        assert table.evict_cold_versions(limit=30, strict=True) == 30
        assert len(hooked) == 1
        for i in range(60):
            now[0] += 1
            commit(table, i, "v", now[0])
        now[0] += 1
        # every written candidate is above the recorded horizon
        for _ in range(6):
            before = len(hooked)
            assert table.evict_cold_versions(limit=10, strict=True) == 10
            assert len(hooked) - before <= 1
        assert table.resident_keys() == 0

    def test_held_snapshot_blocks_written_eviction_from_old_horizon(self, tmp_path):
        make_lazy(tmp_path, rows=40).close()
        smgr = ShardedTransactionManager.open(tmp_path)
        table = home_table(smgr, 9)
        wired = table.gc_horizon_hook
        returned: list[int] = []

        def hook() -> int:
            returned.append(wired())
            return returned[-1]

        table.gc_horizon_hook = hook
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 9, "old")
        # a sweep records a horizon at or above that write
        assert table.evict_cold_versions(limit=10, strict=True) == 1
        assert len(returned) == 1
        with smgr.snapshot() as view:
            assert view.get("A", 9) == "old"
            with smgr.transaction() as txn:
                smgr.write(txn, "A", 9, "new")
            assert table.mvcc_object(9).last_write_ts > returned[0]
            assert table.evict_cold_versions(limit=10, strict=True) == 0
            assert len(returned) == 2  # the old horizon was not trusted
            assert table.mvcc_object(9) is not None
            assert view.get("A", 9) == "old"
        assert table.evict_cold_versions(limit=10, strict=True) == 1
        with smgr.transaction() as txn:
            assert smgr.read(txn, "A", 9) == "new"
        smgr.close()

    def test_rewiring_the_hook_clears_the_recorded_horizon(self):
        table = lazy_table(10)
        table.gc_horizon_hook = lambda: 100
        for i in range(5):
            table.read_live(i)
        assert table.evict_cold_versions(limit=5, strict=True) == 5  # records 100
        commit(table, 7, "w", 50)
        lower: list[int] = []
        table.gc_horizon_hook = lambda: lower.append(2) or 2
        # from the cleared value the sweep asks the new hook, whose
        # horizon is below the write
        assert table.evict_cold_versions(limit=5, strict=True) == 0
        assert lower == [2]
        assert table.mvcc_object(7) is not None
        # a caller's horizon is used as given and never recorded
        assert table.evict_cold_versions(limit=5, horizon=60, strict=True) == 1
        commit(table, 8, "w", 55)
        assert table.evict_cold_versions(limit=5, strict=True) == 0
        assert lower == [2, 2]

    def test_queues_hold_each_resident_key_once_under_threads(self):
        table = lazy_table(300)
        table.residency_budget = 40
        table.gc_horizon_hook = lambda: 10**9
        errors: list[BaseException] = []
        deadline = time.monotonic() + 1.5

        def guarded(body):
            def run():
                try:
                    while time.monotonic() < deadline:
                        body()
                except BaseException as exc:  # reported by the main thread
                    errors.append(exc)
            return run

        rng = random.Random(11)
        seq = iter(range(1, 10**9))

        def read() -> None:
            key = rng.randrange(300)
            entry = table.read_live(key)
            assert entry is not None  # no key is ever deleted
            assert entry.value == key or entry.value[0] == key

        def write() -> None:
            ts = next(seq)
            commit(table, ts % 300, (ts % 300, ts), ts)

        def sweep() -> None:
            table.evict_cold_versions()

        threads = [threading.Thread(target=guarded(read)) for _ in range(4)]
        threads += [threading.Thread(target=guarded(f)) for f in (write, sweep)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        unwritten, written = set(table._unwritten), set(table._written)
        assert not unwritten & written
        assert unwritten | written == set(table._index)
        table.evict_cold_versions(strict=True)
        assert table.resident_keys() <= 40


class TestSplitSourcePurge:
    def test_pre_flip_reader_survives_sweep_on_split_source(self, tmp_path):
        """A split source keeps a residency budget, so a sweep may run on
        it after the purge.  A moved array it drops could only re-fault
        against the purged base table and read "absent" for a reader
        that routed to the source before the flip; the purge clears the
        clean bit of every moved array, so none is dropped."""
        make_lazy(tmp_path, rows=120).close()
        smgr = ShardedTransactionManager.open(tmp_path, memory_budget=4000)
        src = smgr.shards[0].table("A")
        owned = [key for key in range(120) if smgr.slot_map.shard_of(key) == 0]
        with smgr.transaction() as txn:
            for key in owned[::3]:  # a third resident, the rest cold
                assert smgr.read(txn, "A", key) == key * 3
        pre_flip_ts = smgr.oracle.current()
        target = smgr.split_shard(0)
        moved = [key for key in owned if smgr.slot_map.shard_of(key) == target]
        kept = [key for key in owned[::3] if key not in moved]
        assert any(key in moved for key in owned[::3])
        assert moved and kept
        assert src.residency_budget is not None
        evicted = src.evict_cold_versions(limit=src.resident_keys(), strict=True)
        for key in moved:
            entry = src.read_version_at(key, pre_flip_ts)
            assert entry is not None and entry.value == key * 3
        # the sweep dropped the clean kept arrays and nothing that moved
        assert evicted == len(kept)
        assert scan_all(smgr, "A") == {i: i * 3 for i in range(120)}
        smgr.close()


# ------------------------------------------------------------- GC horizon


class TestBootstrapGCPinning:
    def test_snapshot_can_read_superseded_bootstrap(self, tmp_path):
        smgr = make_lazy(tmp_path, rows=40)
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        with reopened.snapshot() as view:
            # the capped snapshot faults key 5 in as a bootstrap version
            assert view.get("A", 5) == 15
            # a later commit supersedes it while the snapshot is pinned
            with reopened.transaction() as txn:
                reopened.write(txn, "A", 5, "new")
            # neither GC nor a strict eviction sweep may drop the
            # bootstrap version while this snapshot can still resolve it
            reopened.collect_garbage()
            for shard in reopened.shards:
                shard.table("A").evict_cold_versions(
                    limit=100, strict=True
                )
            assert view.get("A", 5) == 15
        # snapshot released: the superseded bootstrap is now collectable
        reopened.collect_garbage()
        with reopened.transaction() as txn:
            assert reopened.read(txn, "A", 5) == "new"
        reopened.close()

    def test_eviction_horizon_respects_active_snapshot(self, tmp_path):
        smgr = make_lazy(tmp_path, rows=40)
        smgr.close()
        reopened = ShardedTransactionManager.open(tmp_path)
        with reopened.snapshot() as view:
            assert view.get("A", 5) == 15
            shard = reopened.shards[reopened.slot_map.shard_of(5)]
            table = shard.table("A")
            # the wired horizon folds the pinned snapshot in; the clean
            # bootstrap array for key 5 sits at bootstrap_cts <= horizon,
            # so eviction MAY drop it — and the re-fault must reproduce
            # it for the still-pinned snapshot.
            table.evict_cold_versions(limit=100, strict=True)
            assert view.get("A", 5) == 15
        reopened.close()


# ------------------------------------------------------------ crash matrix


_CRASH_SETUP_ROWS = 240

_MID_HYDRATE_SCRIPT = r"""
import os, sys
from repro.core import ShardedTransactionManager
from repro.core.table import StateTable

smgr = ShardedTransactionManager.open(sys.argv[1])
assert smgr.state_residency == "lazy"
# commit a durable tail on top of the checkpointed base
for i in range(15):
    with smgr.transaction() as txn:
        smgr.write(txn, "A", i, {"tail": i})
with smgr.transaction() as txn:
    smgr.delete(txn, "A", 100)
smgr.flush_durability()

orig = StateTable._hydrate
count = [0]
def crashing(self, key):
    obj = orig(self, key)
    count[0] += 1
    if count[0] >= 7:
        os._exit(42)
    return obj
StateTable._hydrate = crashing

with smgr.transaction() as txn:
    for i in range(150, 200):
        smgr.read(txn, "A", i)
os._exit(9)  # unreachable: the 7th fault-in must crash first
"""

_MID_EVICT_SCRIPT = r"""
import os, sys
from repro.core import ShardedTransactionManager
from repro.core.version_store import MVCCObject

smgr = ShardedTransactionManager.open(sys.argv[1])
assert smgr.state_residency == "lazy"
for i in range(15):
    with smgr.transaction() as txn:
        smgr.write(txn, "A", i, {"tail": i})
smgr.flush_durability()
# hydrate a pile of cold keys so the sweep has something to demote
with smgr.transaction() as txn:
    for i in range(100, 180):
        smgr.read(txn, "A", i)

orig = MVCCObject.evictable
count = [0]
def crashing(self, horizon, strict=False):
    ok = orig(self, horizon, strict=strict)
    if ok:
        count[0] += 1
        if count[0] >= 5:
            os._exit(42)
    return ok
MVCCObject.evictable = crashing

for shard in smgr.shards:
    shard.table("A").evict_cold_versions(limit=1000, strict=True)
os._exit(9)  # unreachable: the 5th eviction must crash first
"""


def _expected_after_crash(with_delete: bool) -> dict:
    state = {i: i * 3 for i in range(_CRASH_SETUP_ROWS)}
    state.update({i: {"tail": i} for i in range(15)})
    if with_delete:
        del state[100]
    return state


class TestCrashMatrix:
    @pytest.mark.parametrize(
        "script,with_delete",
        [(_MID_HYDRATE_SCRIPT, True), (_MID_EVICT_SCRIPT, False)],
        ids=["mid-hydrate", "mid-evict"],
    )
    def test_crash_reopens_identical_in_both_modes(
        self, tmp_path, script, with_delete
    ):
        seed = make_lazy(tmp_path, rows=_CRASH_SETUP_ROWS)
        seed.close()
        proc = run_crash_child(script, tmp_path)
        assert proc.returncode == 42, proc.stderr
        expected = _expected_after_crash(with_delete)
        lazy = ShardedTransactionManager.open(tmp_path)
        assert lazy.state_residency == "lazy"
        assert scan_all(lazy, "A") == expected
        # the crashed run's committed tail was replayed, nothing more
        assert lazy.last_recovery.commits_replayed >= 15
        lazy.close()
        full = ShardedTransactionManager.open(tmp_path, state_residency="full")
        assert scan_all(full, "A") == expected
        full.close()


# -------------------------------------------------------- threaded stress


@pytest.mark.slow
def test_threaded_hydration_under_writes_and_split(tmp_path):
    """Readers fault cold keys in while writers transfer value and a
    split migrates slots; the quiesced total is conserved and every key
    still answers exactly."""
    accounts, opening = 160, 100
    smgr = ShardedTransactionManager(
        num_shards=2,
        data_dir=tmp_path,
        state_residency="lazy",
        memory_budget=48,
        lsm_options=LSMOptions(sync=False),
    )
    smgr.create_table("acct")
    smgr.register_group("bank", ["acct"])
    smgr.bulk_load("acct", [(k, opening) for k in range(accounts)])
    smgr.close()
    smgr = ShardedTransactionManager.open(tmp_path, memory_budget=48)

    errors: list = []
    stop = threading.Event()

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                key = rng.randrange(accounts)
                # A barrier-capped snapshot pinned across a slot flip may
                # legally observe a just-moved key as absent (the
                # documented newest-version handover relaxation) — but
                # only transiently: once the in-flight cross-shard
                # commits publish, a fresh pin must see the key again.
                # A *persistent* miss means lost history.
                value = None
                for _ in range(50):
                    value = smgr.run_transaction(
                        lambda txn, key=key: smgr.read(txn, "acct", key),
                        max_restarts=50_000,
                    )
                    if value is not None:
                        break
                assert value is not None, f"key {key} stayed unreadable"
        except Exception as exc:  # noqa: BLE001 - surfaced via errors
            errors.append(exc)

    def writer(seed, rounds):
        rng = random.Random(seed)
        try:
            for _ in range(rounds):
                src, dst = rng.sample(range(accounts), 2)
                amount = rng.randrange(1, 5)

                def work(txn, src=src, dst=dst, amount=amount):
                    a = smgr.read(txn, "acct", src)
                    b = smgr.read(txn, "acct", dst)
                    smgr.write(txn, "acct", src, a - amount)
                    smgr.write(txn, "acct", dst, b + amount)

                smgr.run_transaction(work, max_restarts=50_000)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(seed,)) for seed in range(2)
    ] + [
        threading.Thread(target=writer, args=(seed, 40))
        for seed in range(10, 12)
    ]
    for t in threads:
        t.start()
    try:
        smgr.split_shard(0)
        smgr.split_shard(1)
    finally:
        for t in threads[2:]:
            t.join()
        stop.set()
        for t in threads[:2]:
            t.join()
    assert not errors, errors[:3]
    assert smgr.num_shards == 4
    with smgr.snapshot() as view:
        balances = dict(view.scan("acct"))
    assert len(balances) == accounts
    assert sum(balances.values()) == accounts * opening
    stats = smgr.stats()
    assert stats["hydrations"] > 0
    smgr.close()
    # the stressed store reopens to the same quiesced state
    reopened = ShardedTransactionManager.open(tmp_path)
    assert scan_all(reopened, "acct") == balances
    reopened.close()
