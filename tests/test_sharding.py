"""Sharded transaction manager: routing, fast path, cross-shard 2PC.

Atomicity contract under test: a cross-shard commit is all-or-nothing —
under protocol validation failures on any participant *and* under injected
participant faults between prepare and commit — and the system stays fully
live afterwards (no leaked latches, locks or validation sections).
"""

from __future__ import annotations

import threading
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import PROTOCOLS

from repro.core import (
    NUM_SLOTS,
    ShardedTransactionManager,
    SlotFlip,
    SlotMap,
    TxnStatus,
    shard_of_key,
    slot_of_key,
)
from repro.errors import (
    ABORT_REBALANCE,
    InvalidTransactionState,
    TransactionAborted,
    ValidationFailure,
    WriteConflict,
)
from repro.storage.kvstore import MemoryKVStore


def make_sharded(protocol: str, num_shards: int = 4, rows: int = 16):
    smgr = ShardedTransactionManager(num_shards=num_shards, protocol=protocol)
    smgr.create_table("acct")
    smgr.register_group("bank", ["acct"])
    smgr.bulk_load("acct", [(k, 100) for k in range(rows)])
    return smgr


def committed_values(smgr, keys):
    with smgr.snapshot() as view:
        return {k: view.get("acct", k) for k in keys}


class TestRouting:
    def test_int_keys_route_by_modulo(self):
        assert [shard_of_key(k, 4) for k in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_single_shard_degenerates(self):
        assert shard_of_key("anything", 1) == 0
        assert shard_of_key(12345, 1) == 0

    def test_non_int_keys_are_stable(self):
        assert shard_of_key("user:7", 8) == shard_of_key("user:7", 8)
        spread = {shard_of_key(f"user:{i}", 8) for i in range(100)}
        assert len(spread) > 1

    def test_negative_int_keys_stay_in_range(self):
        """Python's % with a positive modulus never goes negative (unlike
        C-style remainder), so negative keys land on a valid shard.  Pinned
        explicitly so a future routing change (slot maps, consistent
        hashing for rebalancing) cannot regress the full int domain."""
        for num_shards in (1, 2, 4, 8):
            for key in (-1, -2, -7, -8, -(10**9), -(2**63)):
                assert 0 <= shard_of_key(key, num_shards) < num_shards
        # residue classes still line up with the mathematical mod:
        assert shard_of_key(-1, 4) == 3
        assert shard_of_key(-4, 4) == 0
        # and routing follows key equality end to end
        smgr = make_sharded("mvcc")
        with smgr.transaction() as txn:
            smgr.write(txn, "acct", -5, "negative")
        with smgr.snapshot() as view:
            assert view.get("acct", -5) == "negative"

    def test_create_table_calls_backend_factory_with_shard_index(self):
        """Each partition gets its own backend, built by one factory call
        per shard with that shard's index."""
        calls: list[int] = []

        def factory(idx: int) -> MemoryKVStore:
            calls.append(idx)
            return MemoryKVStore()

        smgr = ShardedTransactionManager(num_shards=2)
        tables = smgr.create_table("A", backend_factory=factory)
        assert calls == [0, 1]
        assert len(tables) == 2
        assert tables[0].backend is not tables[1].backend
        with smgr.transaction() as txn:
            smgr.write(txn, "A", 0, "even")
            smgr.write(txn, "A", 1, "odd")
        with smgr.snapshot() as view:
            assert view.get("A", 0) == "even" and view.get("A", 1) == "odd"

    def test_equal_keys_share_a_shard(self):
        """True == 1 and 1.0 would collide in a dict, so routing must
        follow key equality: a value written under True is readable as 1."""
        assert shard_of_key(True, 4) == shard_of_key(1, 4)
        assert shard_of_key(False, 4) == shard_of_key(0, 4)
        smgr = make_sharded("mvcc")
        with smgr.transaction() as txn:
            smgr.write(txn, "acct", True, "hello")
        with smgr.snapshot() as view:
            assert view.get("acct", 1) == "hello"

    def test_bulk_load_partitions_rows(self):
        smgr = make_sharded("mvcc")
        for shard in range(4):
            table = smgr.table(shard, "acct")
            keys = [k for k, _ in table.scan_live()]
            assert keys, f"shard {shard} got no rows"
            assert all(k % 4 == shard for k in keys)

    def test_equal_numeric_keys_always_co_locate(self):
        """Property over the numeric tower: every representation of the
        same integral value is ONE dict key, so it must be ONE routing
        key.  Pinned because the seed code routed ``2`` by ``key % N`` but
        ``2.0`` by ``crc32(repr)``, silently forking a key's version
        history across two shards."""
        values = [0, 1, 2, 7, 63, 255, 256, 257, 4096, -1, -5, -256, 2**40]
        for value in values:
            variants = [value, float(value), Decimal(value), Fraction(value, 1)]
            if value in (0, 1):
                variants.append(bool(value))
            if value == 2:
                variants.append(complex(2, 0))
            # they really are one dict key...
            assert len({hash(v) for v in variants}) == 1
            for num_shards in (1, 2, 4, 8):
                homes = {shard_of_key(v, num_shards) for v in variants}
                slots = {slot_of_key(v) for v in variants}
                assert len(homes) == 1, (value, num_shards, homes)
                assert len(slots) == 1, (value, slots)
        # non-integral floats stay off the integer routing but are stable
        assert shard_of_key(2.5, 8) == shard_of_key(2.5, 8)
        for weird in (float("nan"), float("inf"), -float("inf")):
            assert 0 <= shard_of_key(weird, 8) < 8

    def test_int_float_aliasing_end_to_end(self):
        """A value written under ``2`` must be readable as ``2.0`` — the
        per-shard tables treat them as the same key, so routing must too."""
        smgr = make_sharded("mvcc")
        with smgr.transaction() as txn:
            smgr.write(txn, "acct", 2, "as-int")
        with smgr.snapshot() as view:
            assert view.get("acct", 2.0) == "as-int"
            assert view.get("acct", Decimal(2)) == "as-int"
        with smgr.transaction() as txn:
            smgr.write(txn, "acct", 7.0, "as-float")
        with smgr.snapshot() as view:
            assert view.get("acct", 7) == "as-float"


class TestSlotMap:
    def test_uniform_map_composes_to_modulo(self):
        """For shard counts dividing the slot space the slot composition
        must reproduce the historical ``key % num_shards`` routing —
        that is what keeps residue-class shard targeting working."""
        for num_shards in (1, 2, 4, 8, 16):
            smap = SlotMap.uniform(num_shards)
            for key in list(range(-300, 300, 7)) + [2**40, -(2**40)]:
                assert smap.shard_of(key) == key % num_shards
                assert shard_of_key(key, num_shards) == key % num_shards

    def test_full_domain_in_range_for_any_shard_count(self):
        for num_shards in (1, 2, 3, 4, 5, 7, 8):
            smap = SlotMap.uniform(num_shards)
            for key in (-1, -2, -7, -8, -(10**9), -(2**63), 0, 3, 2**63, "s"):
                assert 0 <= smap.shard_of(key) < num_shards

    def test_apply_flip_is_a_new_value(self):
        smap = SlotMap.uniform(4)
        flip = SlotFlip(1, {0: 3, 4: 3})
        flipped = smap.apply(flip)
        assert flipped.epoch == 1 and smap.epoch == 0
        assert flipped.owner(0) == 3 and smap.owner(0) == 0
        assert flipped.slots_of(3) == sorted(smap.slots_of(3) + [0, 4])
        with pytest.raises(ValueError):
            smap.apply(SlotFlip(2, {NUM_SLOTS: 1}))

    def test_split_default_halves_compose_to_uniform_double(self):
        """Splitting every shard of a uniform N map (default halves) must
        yield exactly the uniform 2N map — post-split routing equals a
        fleet that started at 2N shards."""
        smgr = ShardedTransactionManager(num_shards=4)
        smgr.create_table("A")
        for source in range(4):
            smgr.split_shard(source)
        assert list(smgr.slot_map.slots) == [s % 8 for s in range(NUM_SLOTS)]


class TestOnlineSplitVolatile:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_split_preserves_state_and_routing(self, protocol):
        smgr = make_sharded(protocol, rows=64)
        target = smgr.split_shard(1)
        assert target == 4 and smgr.num_shards == 5
        with smgr.snapshot() as view:
            assert {k: view.get("acct", k) for k in range(64)} == {
                k: 100 for k in range(64)
            }
            assert dict(view.scan("acct")) == {k: 100 for k in range(64)}
        # the moved keys now live on the target partition; the source
        # backend dropped them (its in-memory version arrays keep a frozen
        # stale copy for in-flight readers — unreachable via routing)
        moved = [k for k, _ in smgr.table(target, "acct").scan_live()]
        assert moved and all(smgr.shard_of(k) == target for k in moved)
        src_backend_keys = {
            smgr.table(1, "acct").key_codec.decode(kb)
            for kb, _ in smgr.table(1, "acct").backend.scan()
        }
        assert not set(moved) & src_backend_keys
        # new writes route to the new owner and commit normally
        key = moved[0]
        with smgr.transaction() as txn:
            smgr.write(txn, "acct", key, 777)
        with smgr.snapshot() as view:
            assert view.get("acct", key) == 777

    def test_merge_moves_everything_back(self):
        smgr = make_sharded("mvcc", rows=64)
        target = smgr.split_shard(0)
        assert smgr.merge_shard(target, 0) == 32  # half of shard 0's 64 slots
        assert smgr.slot_map.slots_of(target) == []
        assert list(smgr.table(target, "acct").backend.scan()) == []
        with smgr.snapshot() as view:
            assert dict(view.scan("acct")) == {k: 100 for k in range(64)}

    def test_gc_sweep_covers_handover_installs(self):
        # merging back installs handed-over versions over the source's
        # frozen copies, superseding them: the sweep must find them
        smgr = make_sharded("mvcc", rows=64)
        for value in range(3):
            with smgr.transaction() as txn:
                for key in range(0, 64, 4):
                    smgr.write(txn, "acct", key, value)
        smgr.collect_garbage()  # empties every pending set
        target = smgr.split_shard(0)
        smgr.merge_shard(target, 0)
        smgr.collect_garbage()
        for shard in smgr.shards:
            horizon = shard.context.oldest_active_version()
            table = shard.table("acct")
            assert sum(
                table.mvcc_object(key).collect(horizon) for key in table.keys()
            ) == 0
        with smgr.snapshot() as view:
            assert {k: view.get("acct", k) for k in range(0, 64, 4)} == {
                k: 2 for k in range(0, 64, 4)
            }

    def test_in_flight_writer_aborts_retryably_across_flip(self):
        smgr = make_sharded("mvcc", rows=64)
        txn = smgr.begin()
        # buffer a write for every key of shard 0 — some of its slots move
        for key in range(0, 64, 4):
            smgr.write(txn, "acct", key, "stale-route")
        smgr.split_shard(0)
        with pytest.raises(TransactionAborted) as excinfo:
            smgr.commit(txn)
        assert excinfo.value.reason == ABORT_REBALANCE
        assert txn.status is TxnStatus.ABORTED
        assert smgr.stats()["rebalance_aborts"] == 1
        # the standard retry loop lands on the new owners
        def work(txn):
            for key in range(0, 64, 4):
                smgr.write(txn, "acct", key, "fresh-route")
        smgr.run_transaction(work)
        with smgr.snapshot() as view:
            assert all(view.get("acct", k) == "fresh-route" for k in range(0, 64, 4))

    def test_child_is_stamped_with_the_routing_decision_epoch(self):
        """The epoch stamped on a fresh child must be the one of the map
        that made the routing decision, not the live epoch at creation
        time — a flip between the two would otherwise brand a misrouted
        child as current and the commit gate's fast path would wave its
        writes through (lost update)."""
        smgr = make_sharded("mvcc")
        txn = smgr.begin()
        stale_epoch = smgr.slot_map.epoch
        # simulate a flip landing between shard_of() and _child()
        smgr.split_shard(0)
        child = smgr._child(txn, 0, stale_epoch)
        assert child.route_epoch == stale_epoch != smgr.slot_map.epoch
        # a write buffered through that child for a key whose slot moved
        # (key 4: the default split moves every second owned slot) is
        # caught by the gate scan
        smgr.shards[0].write(child, "acct", 4, "misrouted")
        assert smgr.shard_of(4) != 0
        with pytest.raises(TransactionAborted) as excinfo:
            smgr.commit(txn)
        assert excinfo.value.reason == ABORT_REBALANCE

    def test_unaffected_writer_survives_flip(self):
        """A transaction whose keys all stay put must NOT abort."""
        smgr = make_sharded("mvcc", rows=64)
        txn = smgr.begin()
        smgr.write(txn, "acct", 1, "other-shard")  # shard 1; split hits shard 0
        smgr.split_shard(0)
        smgr.commit(txn)
        assert txn.status is TxnStatus.COMMITTED

    def test_split_under_concurrent_commit_threads_loses_nothing(self):
        smgr = make_sharded("mvcc", rows=256)
        stop = threading.Event()
        acked: dict[int, int] = {}
        errors: list[BaseException] = []

        def writer(stripe: int) -> None:
            local = {}
            i = 0
            try:
                while not stop.is_set():
                    key = (i * 4 + stripe) % 256
                    i += 1

                    def work(txn, key=key):
                        current = smgr.read(txn, "acct", key)
                        smgr.write(txn, "acct", key, current + 1)
                        return current + 1

                    local[key] = smgr.run_transaction(work, max_restarts=10_000)
            except BaseException as exc:
                errors.append(exc)
            acked.update(local)

        threads = [threading.Thread(target=writer, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for source in range(4):
            smgr.split_shard(source)
        stop.set()
        for t in threads:
            t.join()
        assert not errors, errors
        assert smgr.num_shards == 8
        expected = {k: 100 for k in range(256)}
        expected.update(acked)
        with smgr.snapshot() as view:
            assert dict(view.scan("acct")) == expected

    def test_split_validates_arguments(self):
        smgr = make_sharded("mvcc")
        with pytest.raises(ValueError):
            smgr.split_shard(9)
        with pytest.raises(ValueError):
            smgr.split_shard(0, moving=[1])  # slot 1 belongs to shard 1
        with pytest.raises(ValueError):
            smgr.merge_shard(2, 2)


class TestFastPath:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_single_shard_commit_counts_as_fast_path(self, protocol):
        smgr = make_sharded(protocol)
        with smgr.transaction() as txn:
            for k in (0, 4, 8):  # all shard 0
                smgr.write(txn, "acct", k, 1)
        assert txn.shards() == [0]
        assert not txn.is_cross_shard()
        stats = smgr.stats()
        assert stats["single_shard_commits"] == 1
        assert stats["cross_shard_commits"] == 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_multi_shard_read_only_is_not_a_2pc(self, protocol):
        smgr = make_sharded(protocol)
        with smgr.snapshot() as view:
            assert sum(1 for _ in view.scan("acct")) == 16
        stats = smgr.stats()
        assert stats["cross_shard_commits"] == 0
        assert stats["cross_shard_aborts"] == 0

    def test_untouched_transaction_commits_trivially(self):
        smgr = make_sharded("mvcc")
        txn = smgr.begin()
        smgr.commit(txn)
        assert txn.status is TxnStatus.COMMITTED


class TestCrossShardCommit:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_transfer_is_atomic(self, protocol):
        smgr = make_sharded(protocol)
        with smgr.transaction() as txn:
            smgr.write(txn, "acct", 1, smgr.read(txn, "acct", 1) - 30)
            smgr.write(txn, "acct", 2, smgr.read(txn, "acct", 2) + 30)
        assert txn.is_cross_shard()
        values = committed_values(smgr, [1, 2])
        assert values == {1: 70, 2: 130}
        assert smgr.stats()["cross_shard_commits"] == 1

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_children_share_one_commit_timestamp(self, protocol):
        smgr = make_sharded(protocol)
        txn = smgr.begin()
        smgr.write(txn, "acct", 1, 0)
        smgr.write(txn, "acct", 2, 0)
        smgr.write(txn, "acct", 3, 0)
        commit_ts = smgr.commit(txn)
        assert txn.commit_ts == commit_ts
        assert {child.commit_ts for child in txn.children.values()} == {commit_ts}

    def test_scan_merges_all_partitions_in_order(self):
        smgr = make_sharded("mvcc")
        with smgr.snapshot() as view:
            keys = [k for k, _ in view.scan("acct")]
        assert keys == list(range(16))

    def test_scan_bounds_apply_across_shards(self):
        smgr = make_sharded("mvcc")
        txn = smgr.begin()
        keys = [k for k, _ in smgr.scan(txn, "acct", low=3, high=11)]
        smgr.commit(txn)
        assert keys == list(range(3, 11))


class TestCrossShardAtomicity:
    """All-or-nothing under injected participant faults."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("fail_at", [0, 1, 2])
    def test_prepare_fault_rolls_back_every_participant(self, protocol, fail_at):
        smgr = make_sharded(protocol)
        participants = [0, 1, 2]
        fail_shard = participants[fail_at]

        def fault(shard_index):
            if shard_index == fail_shard:
                raise TransactionAborted("injected fault", reason="test-fault")

        smgr.faults.register("prepare", fault)
        txn = smgr.begin()
        for k in participants:
            smgr.write(txn, "acct", k, 0)
        with pytest.raises(TransactionAborted):
            smgr.commit(txn)
        smgr.faults.register("prepare", None)

        assert txn.status is TxnStatus.ABORTED
        assert committed_values(smgr, participants) == {k: 100 for k in participants}
        assert smgr.stats()["cross_shard_aborts"] == 1

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_system_live_after_prepare_fault(self, protocol):
        """The failed 2PC released every latch/lock/validation section:
        the very same keys commit normally right afterwards."""
        smgr = make_sharded(protocol)
        smgr.faults.register(
            "prepare",
            lambda shard: (_ for _ in ()).throw(
                TransactionAborted("injected", reason="test-fault")
            ),
        )
        txn = smgr.begin()
        smgr.write(txn, "acct", 1, 0)
        smgr.write(txn, "acct", 2, 0)
        with pytest.raises(TransactionAborted):
            smgr.commit(txn)
        smgr.faults.register("prepare", None)

        with smgr.transaction() as retry:
            smgr.write(retry, "acct", 1, 55)
            smgr.write(retry, "acct", 2, 56)
        assert committed_values(smgr, [1, 2]) == {1: 55, 2: 56}

    def test_mvcc_validation_failure_on_one_shard_aborts_all(self):
        """A *real* prepare failure (First-Committer-Wins lost on shard 1)
        must also roll back the already-prepared shard 0."""
        smgr = make_sharded("mvcc")
        txn = smgr.begin()
        smgr.write(txn, "acct", 0, smgr.read(txn, "acct", 0) + 1)
        smgr.write(txn, "acct", 1, smgr.read(txn, "acct", 1) + 1)

        # interleaving committer beats txn on shard 1's key
        with smgr.transaction() as rival:
            smgr.write(rival, "acct", 1, 999)

        with pytest.raises(WriteConflict):
            smgr.commit(txn)
        assert committed_values(smgr, [0, 1]) == {0: 100, 1: 999}
        assert smgr.stats()["cross_shard_aborts"] == 1

    def test_mvcc_blind_write_on_lazily_opened_shard_keeps_fcw(self):
        """The shard-2 child begins only at the blind write — *after* a
        rival committed that key.  First-Committer-Wins must still fire
        against the logical begin (lazily-begun children inherit the
        sharded transaction's begin timestamp), exactly as the unsharded
        manager would."""
        smgr = make_sharded("mvcc")
        txn = smgr.begin()
        smgr.read(txn, "acct", 1)  # opens only the shard-1 child

        with smgr.transaction() as rival:
            smgr.write(rival, "acct", 2, 999)

        smgr.write(txn, "acct", 2, 0)  # shard-2 child begins just now
        with pytest.raises(WriteConflict):
            smgr.commit(txn)
        assert committed_values(smgr, [2]) == {2: 999}

    def test_bocc_read_validation_spans_shards(self):
        """A cross-shard BOCC transaction is validated on *every* shard it
        read: a conflicting commit on one shard kills the whole thing."""
        smgr = make_sharded("bocc")
        txn = smgr.begin()
        # read on shard 1, write on shard 2 — prepare validates both shards
        value = smgr.read(txn, "acct", 1)
        smgr.write(txn, "acct", 2, value + 1)

        with smgr.transaction() as rival:
            smgr.write(rival, "acct", 1, 999)  # overwrites txn's read

        with pytest.raises(TransactionAborted):
            smgr.commit(txn)
        assert committed_values(smgr, [2]) == {2: 100}


class TestCrossShardSerializability:
    """The anomaly matrix holds across shards too."""

    @pytest.mark.parametrize("protocol", ["mvcc", "bocc"])
    def test_cross_shard_lost_update_rejected(self, protocol):
        smgr = make_sharded(protocol)
        t1 = smgr.begin()
        t2 = smgr.begin()
        for txn in (t1, t2):
            a = smgr.read(txn, "acct", 1)  # shard 1
            b = smgr.read(txn, "acct", 2)  # shard 2
            smgr.write(txn, "acct", 1, a + 1)
            smgr.write(txn, "acct", 2, b + 1)
        smgr.commit(t1)
        with pytest.raises(TransactionAborted):
            smgr.commit(t2)
        assert committed_values(smgr, [1, 2]) == {1: 101, 2: 101}

    @pytest.mark.parametrize("protocol", ["mvcc", "bocc"])
    def test_retry_loop_recovers_from_cross_shard_conflicts(self, protocol):
        smgr = make_sharded(protocol)

        def transfer(txn):
            a = smgr.read(txn, "acct", 1)
            b = smgr.read(txn, "acct", 2)
            smgr.write(txn, "acct", 1, a - 5)
            smgr.write(txn, "acct", 2, b + 5)

        for _ in range(10):
            smgr.run_transaction(transfer, max_restarts=100)
        assert committed_values(smgr, [1, 2]) == {1: 50, 2: 150}

    def test_s2pl_sequential_cross_shard_transfers(self):
        """S2PL cross-shard commits work through the same 2PC (sequential
        here: cross-shard lock cycles are invisible to the per-shard
        deadlock detectors and only resolved by timeout — see the module
        docstring of repro.core.sharding)."""
        smgr = make_sharded("s2pl")
        for step in range(5):
            with smgr.transaction() as txn:
                a = smgr.read(txn, "acct", 1)
                b = smgr.read(txn, "acct", 6)
                smgr.write(txn, "acct", 1, a - 10)
                smgr.write(txn, "acct", 6, b + 10)
        assert committed_values(smgr, [1, 6]) == {1: 50, 6: 150}

    def test_s2pl_reads_live_after_interleaved_commit(self):
        """Regression: a sharded S2PL child used to read at the ReadCTS
        pinned by its *first* read, so a transfer committing between that
        pin and a later S-lock grant was invisible — and with no
        commit-time validation in 2PL, the transaction's buffered rewrite
        of the same key then erased it (a lost update; surfaced as money
        non-conservation by the stress suite under REPRO_LOCKCHECK=1)."""
        smgr = make_sharded("s2pl")
        txn = smgr.begin()
        assert smgr.read(txn, "acct", 0) == 100  # first read: old code pinned here
        # A disjoint-key increment commits while txn is still open (no
        # lock conflict, so it goes through immediately).
        with smgr.transaction() as other:
            smgr.write(other, "acct", 4, smgr.read(other, "acct", 4) + 7)
        # The later read must see the committed increment (live read under
        # the freshly granted S lock), so the read-modify-write keeps it.
        assert smgr.read(txn, "acct", 4) == 107
        smgr.write(txn, "acct", 4, smgr.read(txn, "acct", 4) + 10)
        smgr.commit(txn)
        assert committed_values(smgr, [4])[4] == 117

    def test_bocc_validation_scans_back_to_the_snapshot_pin(self):
        """Regression: a sharded BOCC child reads at a barrier-capped pin
        that can sit *below* commits which finished before the child even
        began (a cross-shard commit mid phase two holds the barrier down).
        Validation used to scan only back to ``start_ts``, so such a
        commit was invisible to the pinned read AND skipped by validation
        — a lost update (money non-conservation in the stress suite).
        White-box: pin a transaction below a finished commit and check
        validation refuses it, and accepts a pin that saw the commit."""
        smgr = make_sharded("bocc")
        shard = smgr.shards[0]
        with smgr.transaction() as writer:
            smgr.write(writer, "acct", 4, 93)  # shard 0: one commit record
        record = shard.protocol._committed[-1]

        # Reader begins after the commit finished, but its pin (as the
        # barrier cap can force) predates the commit: must fail validation.
        stale = shard.begin()
        assert stale.start_ts > record.finish_ts
        stale.read_set_for("acct").record(4)
        stale.read_cts["bank"] = record.commit_ts - 1
        with pytest.raises(ValidationFailure):
            shard.protocol._validate_backward(stale)
        shard.abort(stale)

        # Same shape with a pin that includes the commit: clean.
        fresh = shard.begin()
        fresh.read_set_for("acct").record(4)
        fresh.read_cts["bank"] = record.commit_ts
        shard.protocol._validate_backward(fresh)
        shard.abort(fresh)


class TestLifecycle:
    def test_finished_transaction_rejects_operations(self):
        smgr = make_sharded("mvcc")
        txn = smgr.begin()
        smgr.write(txn, "acct", 0, 1)
        smgr.commit(txn)
        with pytest.raises(InvalidTransactionState):
            smgr.write(txn, "acct", 0, 2)
        with pytest.raises(InvalidTransactionState):
            smgr.commit(txn)

    def test_abort_rolls_back_all_children(self):
        smgr = make_sharded("mvcc")
        txn = smgr.begin()
        smgr.write(txn, "acct", 1, 0)
        smgr.write(txn, "acct", 2, 0)
        smgr.abort(txn)
        assert txn.status is TxnStatus.ABORTED
        assert all(child.is_finished() for child in txn.children.values())
        assert committed_values(smgr, [1, 2]) == {1: 100, 2: 100}

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_run_transaction_aborts_children_on_user_error(self, protocol):
        """A bug in work() (not a protocol abort) must still roll the
        children back — under S2PL leaked X locks would otherwise stall
        every later writer until timeout."""
        smgr = make_sharded(protocol)
        leaked = {}

        def work(txn):
            smgr.write(txn, "acct", 1, 0)
            smgr.write(txn, "acct", 2, 0)
            leaked["txn"] = txn
            raise KeyError("bug in user code")

        with pytest.raises(KeyError):
            smgr.run_transaction(work)
        assert leaked["txn"].status is TxnStatus.ABORTED
        assert all(c.is_finished() for c in leaked["txn"].children.values())
        # locks/latches released: the same keys commit immediately
        with smgr.transaction() as txn:
            smgr.write(txn, "acct", 1, 11)
            smgr.write(txn, "acct", 2, 22)
        assert committed_values(smgr, [1, 2]) == {1: 11, 2: 22}

    def test_stats_aggregate_protocol_counters(self):
        smgr = make_sharded("mvcc")
        with smgr.transaction() as txn:
            smgr.write(txn, "acct", 1, 0)
            smgr.write(txn, "acct", 2, 0)
        stats = smgr.stats()
        assert stats["shards"] == 4
        assert stats["writes"] == 2
        assert stats["cross_shard_commits"] == 1
        # both participating shards committed locally
        assert stats["commits"] >= 2

    def test_collect_garbage_sweeps_every_shard(self):
        smgr = make_sharded("mvcc")
        for round_no in range(20):
            with smgr.transaction() as txn:
                for k in range(8):
                    smgr.write(txn, "acct", k, round_no)
        assert smgr.collect_garbage() >= 0

    def test_stats_sum_gc_counters_over_shards(self):
        smgr = make_sharded("mvcc")
        for round_no in range(3):
            with smgr.transaction() as txn:
                for k in range(8):
                    smgr.write(txn, "acct", k, round_no)
        reclaimed = smgr.collect_garbage()
        stats = smgr.stats()
        assert stats["gc_sweeps"] == smgr.num_shards
        assert stats["gc_arrays_visited"] == 8
        # each key's bulk-loaded version and the first two writes
        assert stats["gc_versions_reclaimed"] == reclaimed == 3 * 8
