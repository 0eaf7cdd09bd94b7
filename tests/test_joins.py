"""Tests for stream-table lookup joins.

Both classes run on the single-site manager and, through a ``...Sharded``
subclass that swaps the ``mgr`` fixture, on a two-shard
:class:`~repro.core.sharding.ShardedTransactionManager`.
"""

import pytest

from repro.core import ShardedTransactionManager, TransactionManager
from repro.errors import StreamError
from repro.streams import (
    MemorySource,
    TableLookupJoin,
    Topology,
    TransactionalSource,
    from_table,
    make_tuples,
)

from helpers import preload

SPEC = [(1, {"limit": 10}), (2, {"limit": 20})]


@pytest.fixture()
def mgr() -> TransactionManager:
    manager = TransactionManager(protocol="mvcc")
    manager.create_table("spec")
    manager.create_table("out")
    preload(manager, "spec", SPEC)
    return manager


class OnShardedManager:
    """Mixin: run the inherited cases on a two-shard manager."""

    @pytest.fixture()
    def mgr(self):
        manager = ShardedTransactionManager(num_shards=2, protocol="mvcc")
        manager.create_table("spec")
        manager.create_table("out")
        preload(manager, "spec", SPEC)
        yield manager
        manager.close()


class TestAdHocJoin:
    def test_inner_join_drops_unmatched(self, mgr):
        topo = Topology(mgr, "q")
        sink = (
            topo.source(MemorySource(make_tuples([{"k": 1}, {"k": 9}, {"k": 2}])))
            .join_table("spec", key_fn=lambda p: p["k"], transactional=False)
            .sink()
        )
        topo.build()
        topo.run()
        assert [p["left"]["k"] for p in sink.payloads()] == [1, 2]
        assert [p["right"]["limit"] for p in sink.payloads()] == [10, 20]

    def test_left_join_keeps_unmatched(self, mgr):
        topo = Topology(mgr, "q")
        sink = (
            topo.source(MemorySource(make_tuples([{"k": 9}])))
            .join_table("spec", key_fn=lambda p: p["k"], how="left",
                        transactional=False)
            .sink()
        )
        topo.build()
        topo.run()
        assert sink.payloads() == [{"left": {"k": 9}, "right": None}]

    def test_custom_combine(self, mgr):
        topo = Topology(mgr, "q")
        sink = (
            topo.source(MemorySource(make_tuples([{"k": 1, "v": 99}])))
            .join_table(
                "spec",
                key_fn=lambda p: p["k"],
                combine=lambda p, row: {**p, **row},
                transactional=False,
            )
            .sink()
        )
        topo.build()
        topo.run()
        assert sink.payloads() == [{"k": 1, "v": 99, "limit": 10}]

    def test_match_counters(self, mgr):
        join = TableLookupJoin(mgr, "spec", key_fn=lambda p: p["k"], how="left")
        for tup in make_tuples([{"k": 1}, {"k": 7}]):
            join.process(tup)
        assert join.matched == 1
        assert join.unmatched == 1

    def test_invalid_how(self, mgr):
        with pytest.raises(StreamError):
            TableLookupJoin(mgr, "spec", key_fn=lambda p: p, how="outer")


class TestTransactionalJoin:
    def test_join_sees_same_transactions_writes(self, mgr):
        """A transactional join observes the stream transaction's own
        uncommitted writes to the joined table."""
        payloads = [
            {"k": 5, "limit": 50},   # writes spec[5]
            {"k": 5},                # joins against spec[5] — same txn!
        ]
        topo = Topology(mgr, "q")
        stream = topo.source(
            TransactionalSource(payloads, batch_size=2, key_fn=lambda p: p["k"])
        )
        # first write every tuple that carries a limit into spec
        written = stream.map(lambda p: p)  # passthrough for clarity
        specs = written.filter(lambda p: "limit" in p).to_table("spec")
        joined = (
            written.filter(lambda p: "limit" not in p)
            .join_table("spec", key_fn=lambda p: p["k"],
                        combine=lambda p, row: {**p, "limit": row["limit"]})
            .to_table("out")
        )
        topo.build()
        topo.run()
        assert from_table(mgr, "out") == [(5, {"k": 5, "limit": 50})]

    def test_verify_pipeline_shape(self, mgr):
        """Figure-1 Verify: join readings with specification, keep
        violations."""
        readings = [
            {"k": 1, "power": 5.0},
            {"k": 1, "power": 15.0},   # violates limit 10
            {"k": 2, "power": 25.0},   # violates limit 20
            {"k": 2, "power": 19.0},
        ]
        topo = Topology(mgr, "verify")
        (
            topo.source(
                TransactionalSource(readings, batch_size=4, key_fn=lambda p: p["k"])
            )
            .join_table("spec", key_fn=lambda p: p["k"],
                        combine=lambda p, row: {**p, "limit": row["limit"]})
            .filter(lambda p: p["power"] > p["limit"])
            .to_table("out", key_fn=lambda p: (p["k"], p["power"]))
        )
        topo.build()
        topo.run()
        violations = from_table(mgr, "out")
        assert [k for k, _ in violations] == [(1, 15.0), (2, 25.0)]


class TestAdHocJoinSharded(OnShardedManager, TestAdHocJoin):
    test_invalid_how = None  # constructor check, no manager involved


class TestTransactionalJoinSharded(OnShardedManager, TestTransactionalJoin):
    pass
