"""Tests for the state context: registries, snapshots, LastCTS."""

import pytest

from repro.core.context import StateContext
from repro.errors import StateError, UnknownState, UnknownTopology


@pytest.fixture()
def ctx() -> StateContext:
    context = StateContext()
    context.register_state("A")
    context.register_state("B")
    context.register_state("C")
    return context


class TestRegistries:
    def test_register_state_creates_singleton_group(self, ctx):
        info = ctx.state("A")
        assert info.group_id == "__singleton:A"
        assert ctx.group_of("A").state_ids == ["A"]

    def test_duplicate_state_rejected(self, ctx):
        with pytest.raises(StateError):
            ctx.register_state("A")

    def test_unknown_state_raises(self, ctx):
        with pytest.raises(UnknownState):
            ctx.state("nope")

    def test_unknown_group_raises(self, ctx):
        with pytest.raises(UnknownTopology):
            ctx.group("nope")

    def test_register_group_moves_states(self, ctx):
        ctx.register_group("g", ["A", "B"])
        assert ctx.state("A").group_id == "g"
        assert ctx.state("B").group_id == "g"
        assert sorted(ctx.group("g").state_ids) == ["A", "B"]
        # singleton groups dissolved
        assert "__singleton:A" not in ctx.group_ids()

    def test_register_group_inherits_last_cts(self, ctx):
        ctx.publish_group_commit("__singleton:A", 42)
        ctx.register_group("g", ["A", "B"])
        assert ctx.last_cts("g") == 42

    def test_empty_group_rejected(self, ctx):
        with pytest.raises(StateError):
            ctx.register_group("g", [])

    def test_duplicate_group_rejected(self, ctx):
        ctx.register_group("g", ["A"])
        with pytest.raises(StateError):
            ctx.register_group("g", ["B"])

    def test_group_with_unknown_state_rejected(self, ctx):
        with pytest.raises(UnknownState):
            ctx.register_group("g", ["A", "missing"])

    def test_groups_overlap(self, ctx):
        ctx.register_group("g1", ["A", "B"])
        assert ctx.groups_overlap("g1", "g1")
        assert not ctx.groups_overlap("g1", "__singleton:C")


class TestTransactions:
    def test_begin_assigns_increasing_ids(self, ctx):
        t1, t2 = ctx.begin(), ctx.begin()
        assert t2.txn_id > t1.txn_id
        assert ctx.active_count() == 2

    def test_finish_releases(self, ctx):
        txn = ctx.begin()
        ctx.finish(txn)
        assert ctx.active_count() == 0

    def test_finish_is_idempotent(self, ctx):
        txn = ctx.begin()
        ctx.finish(txn)
        ctx.finish(txn)
        assert ctx.active_count() == 0

    def test_slots_recycle(self, ctx):
        txns = [ctx.begin() for _ in range(5)]
        slots = {t.slot for t in txns}
        assert len(slots) == 5
        for t in txns:
            ctx.finish(t)
        reused = ctx.begin()
        assert reused.slot in slots

    def test_oldest_active_version_no_transactions(self, ctx):
        ctx.oracle.advance_to(100)
        assert ctx.oldest_active_version() == 100

    def test_oldest_active_version_uses_start_ts(self, ctx):
        t1 = ctx.begin()
        ctx.oracle.advance_to(500)
        assert ctx.oldest_active_version() == t1.start_ts

    def test_oldest_active_version_uses_pinned_snapshot(self, ctx):
        ctx.register_group("g", ["A"])
        t1 = ctx.begin()
        ctx.publish_group_commit("g", 5)
        ctx.pin_snapshot(t1, "g")
        ctx.oracle.advance_to(500)
        # pinned at LastCTS=5, which is below start_ts
        assert ctx.oldest_active_version() == min(5, t1.start_ts)


class TestSnapshots:
    def test_pin_snapshot_records_last_cts(self, ctx):
        ctx.register_group("g", ["A", "B"])
        ctx.publish_group_commit("g", 7)
        txn = ctx.begin()
        assert ctx.pin_snapshot(txn, "g") == 7

    def test_pin_is_stable_across_commits(self, ctx):
        ctx.register_group("g", ["A", "B"])
        ctx.publish_group_commit("g", 7)
        txn = ctx.begin()
        ctx.pin_snapshot(txn, "g")
        ctx.publish_group_commit("g", 20)
        assert ctx.pin_snapshot(txn, "g") == 7  # first read wins

    def test_publish_is_monotonic(self, ctx):
        ctx.register_group("g", ["A"])
        ctx.publish_group_commit("g", 10)
        ctx.publish_group_commit("g", 5)  # stale publish ignored
        assert ctx.last_cts("g") == 10

    def test_restore_last_cts_advances_oracle(self, ctx):
        ctx.register_group("g", ["A"])
        ctx.restore_last_cts({"g": 77})
        assert ctx.last_cts("g") == 77
        assert ctx.oracle.current() >= 77

    def test_restore_ignores_unknown_groups(self, ctx):
        ctx.restore_last_cts({"ghost": 10})  # must not raise
