"""Tests for TO_TABLE, TO_STREAM, FROM and the topology builder.

Every class runs on the single-site manager and, through a ``...Sharded``
subclass that swaps the ``mgr`` fixture, on a two-shard
:class:`~repro.core.sharding.ShardedTransactionManager`.  Cases that never
touch the manager run once.
"""

import pytest

from repro.core import ShardedTransactionManager, TransactionManager
from repro.errors import StreamError, TopologyBuildError
from repro.streams import (
    MemorySource,
    SinkOp,
    StreamTap,
    StreamTuple,
    TableScanSource,
    Topology,
    TransactionalSource,
    TriggerPolicy,
    bot,
    commit,
    eos,
    from_table,
    from_tables,
    make_tuples,
    rollback,
)

from helpers import context_of, preload


@pytest.fixture()
def mgr() -> TransactionManager:
    manager = TransactionManager(protocol="mvcc")
    manager.create_table("T1")
    manager.create_table("T2")
    return manager


class OnShardedManager:
    """Mixin: run the inherited cases on a two-shard manager."""

    @pytest.fixture()
    def mgr(self):
        manager = ShardedTransactionManager(num_shards=2, protocol="mvcc")
        manager.create_table("T1")
        manager.create_table("T2")
        yield manager
        manager.close()


def keyed(payloads):
    return make_tuples(payloads, key_fn=lambda p: p["k"])


class TestToTable:
    def test_upserts_within_punctuated_txn(self, mgr):
        topo = Topology(mgr, "q")
        elements = [bot(), *keyed([{"k": 1, "v": "a"}, {"k": 2, "v": "b"}]), commit()]
        topo.source(MemorySource(elements)).to_table("T1")
        topo.build()
        topo.run()
        assert from_table(mgr, "T1") == [(1, {"k": 1, "v": "a"}), (2, {"k": 2, "v": "b"})]

    def test_nothing_visible_before_commit_punctuation(self, mgr):
        topo = Topology(mgr, "q")
        source = MemorySource([])
        topo.source(source).to_table("T1")
        topo.build()
        source.push(bot())
        source.push(keyed([{"k": 1, "v": "x"}])[0])
        assert from_table(mgr, "T1") == []  # still uncommitted
        source.push(commit())
        assert from_table(mgr, "T1") != []

    def test_rollback_discards_batch(self, mgr):
        topo = Topology(mgr, "q")
        elements = [bot(), *keyed([{"k": 1, "v": "doomed"}]), rollback()]
        topo.source(MemorySource(elements)).to_table("T1")
        topo.build()
        topo.run()
        assert from_table(mgr, "T1") == []

    def test_rollback_then_next_batch_commits(self, mgr):
        topo = Topology(mgr, "q")
        elements = [
            bot(), *keyed([{"k": 1, "v": "doomed"}]), rollback(),
            bot(), *keyed([{"k": 2, "v": "kept"}]), commit(),
        ]
        topo.source(MemorySource(elements)).to_table("T1")
        topo.build()
        topo.run()
        assert from_table(mgr, "T1") == [(2, {"k": 2, "v": "kept"})]

    def test_eos_commits_open_transaction(self, mgr):
        topo = Topology(mgr, "q")
        elements = [bot(), *keyed([{"k": 1, "v": "x"}]), eos()]
        topo.source(MemorySource(elements)).to_table("T1")
        topo.build()
        topo.run()
        assert len(from_table(mgr, "T1")) == 1

    def test_delete_tuples_delete(self, mgr):
        preload(mgr, "T1", [(1, {"old": True})])
        topo = Topology(mgr, "q")
        tup = StreamTuple({"k": 1}, key=1).as_delete()
        topo.source(MemorySource([bot(), tup, commit()])).to_table("T1")
        topo.build()
        topo.run()
        assert from_table(mgr, "T1") == []

    def test_missing_key_raises(self, mgr):
        topo = Topology(mgr, "q")
        topo.source(MemorySource([StreamTuple({"v": 1})])).to_table("T1")
        topo.build()
        with pytest.raises(StreamError):
            topo.run()

    def test_key_fn_override(self, mgr):
        topo = Topology(mgr, "q")
        tup = StreamTuple({"id": 9, "v": 1}, key="inherited")
        topo.source(MemorySource([bot(), tup, commit()])).to_table(
            "T1", key_fn=lambda p: p["id"]
        )
        topo.build()
        topo.run()
        assert from_table(mgr, "T1")[0][0] == 9

    def test_two_tables_commit_together(self, mgr):
        topo = Topology(mgr, "q")
        handle = topo.source(
            TransactionalSource(
                [{"k": i, "v": i} for i in range(6)], batch_size=3,
                key_fn=lambda p: p["k"],
            )
        )
        handle.to_table("T1").to_table("T2")
        topo.build()
        topo.run()
        # group registered under the topology name, both states current
        assert sorted(context_of(mgr).group("q").state_ids) == ["T1", "T2"]
        joint = from_tables(mgr, ["T1", "T2"], 3)
        assert joint["T1"] == joint["T2"] == {"k": 3, "v": 3}


class TestToStream:
    def test_on_commit_emits_committed_values(self, mgr):
        topo = Topology(mgr, "q")
        sink = (
            topo.source(
                TransactionalSource(
                    [{"k": 1, "v": "a"}, {"k": 1, "v": "b"}], batch_size=2,
                    key_fn=lambda p: p["k"],
                )
            )
            .to_table("T1")
            .to_stream("T1")
            .sink()
        )
        topo.build()
        topo.run()
        # delta mode: key 1 emitted once per commit, with the final value
        assert [t.payload for t in sink.tuples] == [{"k": 1, "v": "b"}]

    def test_on_tuple_emits_every_modification(self, mgr):
        topo = Topology(mgr, "q")
        sink = (
            topo.source(
                TransactionalSource(
                    [{"k": 1, "v": "a"}, {"k": 1, "v": "b"}], batch_size=2,
                    key_fn=lambda p: p["k"],
                )
            )
            .to_table("T1")
            .to_stream("T1", trigger=TriggerPolicy.ON_TUPLE)
            .sink()
        )
        topo.build()
        topo.run()
        assert len(sink.tuples) == 2  # both (uncommitted) modifications

    def test_full_emit_mode(self, mgr):
        preload(mgr, "T1", [(99, {"pre": True})])
        topo = Topology(mgr, "q")
        sink = (
            topo.source(
                TransactionalSource([{"k": 1}], batch_size=1, key_fn=lambda p: p["k"])
            )
            .to_table("T1")
            .to_stream("T1", emit="full")
            .sink()
        )
        topo.build()
        topo.run()
        assert len(sink.tuples) == 2  # whole table: preloaded + new

    def test_condition_gates_emission(self, mgr):
        topo = Topology(mgr, "q")
        sink = (
            topo.source(
                TransactionalSource(
                    [{"k": i} for i in range(4)], batch_size=1,
                    key_fn=lambda p: p["k"],
                )
            )
            .to_table("T1")
            .to_stream("T1", condition=lambda rows: any(k >= 2 for k in rows))
            .sink()
        )
        topo.build()
        topo.run()
        emitted_keys = [t.key for t in sink.tuples]
        assert emitted_keys == [2, 3]

    def test_invalid_emit_mode(self, mgr):
        from repro.streams import ToStream

        with pytest.raises(StreamError):
            ToStream(mgr, "T1", emit="bogus")


class TestFrom:
    def test_from_table_snapshot(self, mgr):
        preload(mgr, "T1", [(i, i) for i in range(5)])
        assert from_table(mgr, "T1", low=1, high=3) == [(1, 1), (2, 2)]

    def test_from_tables_single_snapshot(self, mgr):
        mgr.register_group("both", ["T1", "T2"])
        with mgr.transaction() as txn:
            mgr.write(txn, "T1", 1, "x")
            mgr.write(txn, "T2", 1, "y")
        assert from_tables(mgr, ["T1", "T2"], 1) == {"T1": "x", "T2": "y"}

    def test_table_scan_source(self, mgr):
        preload(mgr, "T1", [(i, {"v": i}) for i in range(3)])
        source = TableScanSource(mgr, "T1")
        sink = SinkOp()
        source.subscribe(sink)
        assert source.run() == 3
        assert [t.key for t in sink.tuples] == [0, 1, 2]

    def test_stream_tap_from_attachment_point(self, mgr):
        source = MemorySource([])
        sink_before = SinkOp()
        source.subscribe(sink_before)
        source.push(make_tuples(["early"])[0])
        tap = StreamTap().attach(source)
        source.push(make_tuples(["late"])[0])
        assert tap.payloads() == ["late"]  # only from attachment onwards


class TestTopologyBuilder:
    def test_build_requires_source(self, mgr):
        with pytest.raises(TopologyBuildError):
            Topology(mgr, "empty").build()

    def test_single_state_keeps_singleton_group(self, mgr):
        topo = Topology(mgr, "q")
        topo.source(MemorySource([])).to_table("T1")
        topo.build()
        assert context_of(mgr).state("T1").group_id == "__singleton:T1"

    def test_operator_chaining(self, mgr):
        topo = Topology(mgr, "q")
        sink = (
            topo.source(MemorySource(make_tuples([1, 2, 3, 4])))
            .filter(lambda x: x % 2 == 0)
            .map(lambda x: x * 10)
            .sink()
        )
        topo.build()
        topo.run()
        assert sink.payloads() == [20, 40]

    def test_union_in_builder(self, mgr):
        topo = Topology(mgr, "q")
        h1 = topo.source(MemorySource(make_tuples([1])))
        h2 = topo.source(MemorySource(make_tuples([2])))
        sink = h1.union(h2).sink()
        topo.build()
        topo.run()
        assert sorted(sink.payloads()) == [1, 2]

    def test_written_states_deduplicated(self, mgr):
        topo = Topology(mgr, "q")
        handle = topo.source(MemorySource([]))
        handle.to_table("T1", key_fn=lambda p: 0)
        handle.to_table("T1", key_fn=lambda p: 1)
        assert topo.written_states() == ["T1"]

    def test_run_with_retry_replays_on_conflict(self, mgr):
        preload(mgr, "T1", [(1, "initial")])
        topo = Topology(mgr, "q")
        topo.source(MemorySource([])).to_table("T1")
        topo.build()
        # First push a batch that conflicts: an interloper commits between
        # the stream's write and its commit punctuation.
        elements = [bot(), StreamTuple({"v": "stream"}, key=1), commit()]
        with mgr.transaction() as interloper:
            mgr.write(interloper, "T1", 1, "interloper")
        attempts = topo.run_with_retry(elements, max_retries=5)
        assert attempts == 0  # interloper committed before BOT: no conflict
        with mgr.snapshot() as view:
            assert view.get("T1", 1) == {"v": "stream"}


class TestToTableSharded(OnShardedManager, TestToTable):
    pass


class TestToStreamSharded(OnShardedManager, TestToStream):
    test_invalid_emit_mode = None  # constructor check, no manager involved


class TestFromSharded(OnShardedManager, TestFrom):
    test_stream_tap_from_attachment_point = None  # stream-only, no manager


class TestTopologyBuilderSharded(OnShardedManager, TestTopologyBuilder):
    # graph construction only: no table is read or written
    test_build_requires_source = None
    test_operator_chaining = None
    test_union_in_builder = None
    test_written_states_deduplicated = None
