"""Property-based tests (hypothesis) for the transactional core.

The central invariants under arbitrary interleavings of transactions:

* **snapshot stability** — a reader's view never changes mid-transaction;
* **version-interval disjointness** — a key's version lifetimes never
  overlap, so at most one version is visible at any timestamp;
* **serialisable history for FCW writers** — the final table state equals
  the result of applying committed transactions in commit-timestamp order;
* **GC never touches reachable versions**;
* **a GC sweep reclaims what a full walk would** — it visits only the
  table's pending set, yet leaves no version a walk over every resident
  array could still reclaim.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransactionManager
from repro.core.version_store import MVCCObject
from repro.errors import TransactionAborted

small_keys = st.integers(min_value=0, max_value=5)
small_values = st.integers(min_value=0, max_value=100)

#: A transaction script: list of (key, value) writes plus read keys.
txn_scripts = st.lists(
    st.tuples(small_keys, small_values), min_size=1, max_size=4
)


class TestVersionIntervals:
    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                    max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_intervals_never_overlap(self, gaps):
        obj = MVCCObject(capacity=4)
        ts = 0
        for gap in gaps:
            ts += gap
            obj.install(f"v{ts}", ts, oldest_active=0)
        versions = obj.versions()
        spans = sorted((v.cts, v.dts) for v in versions)
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start or a_start == b_start

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=2,
                    max_size=20), st.integers(min_value=0, max_value=400))
    @settings(max_examples=100, deadline=None)
    def test_at_most_one_visible(self, gaps, probe):
        obj = MVCCObject(capacity=4)
        ts = 0
        for gap in gaps:
            ts += gap
            obj.install(f"v{ts}", ts, oldest_active=0)
        visible = [v for v in obj.versions() if v.visible_at(probe)]
        assert len(visible) <= 1

    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(
            st.tuples(
                st.sampled_from(["install", "delete", "collect", "bootstrap"]),
                st.integers(min_value=1, max_value=4),  # timestamp gap
                st.integers(min_value=0, max_value=12),  # horizon lag
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_history_model(self, capacity, ops):
        """Random installs, deletes, collections and fault-ins against a
        dict of every write (``cts -> value``, ``None`` for a delete).

        Reads are checked at and above the highest GC horizon used so far
        (on-demand GC inside ``install`` included): below it, collected
        history may be gone.  A small ``capacity`` makes the list grow
        past it whenever GC cannot reclaim.
        """
        obj = MVCCObject(capacity=capacity)
        history: dict[int, str | None] = {}
        ts = floor = 0
        for step, (kind, gap, lag) in enumerate(ops):
            ts += gap
            horizon = max(0, ts - lag)
            value = f"v{step}"
            if kind == "install":
                obj.install(value, ts, horizon)
                history[ts] = value
                floor = max(floor, horizon)
            elif kind == "delete":
                obj.mark_deleted(ts)
                history[ts] = None
            elif kind == "collect":
                obj.collect(horizon)
                floor = max(floor, horizon)
            elif obj.version_count():
                assert not obj.install_bootstrap(value, horizon)
            else:
                # A fault-in may fetch a row older than the key's last
                # write (a delete it raced), but never one older than the
                # write before that.
                writes = sorted(history)
                lowest = writes[-2] + 1 if len(writes) > 1 else 0
                cts = max(floor, lowest, horizon)
                if writes and cts == writes[-1]:
                    cts = ts
                assert obj.install_bootstrap(value, cts)
                history[cts] = value

            for probe in range(floor, ts + 2):
                older = [cts for cts in history if cts <= probe]
                expected = history[max(older)] if older else None
                version = obj.read_at(probe)
                assert (version.value if version else None) == expected
            newest = max(history, default=0)
            live = obj.live_version()
            assert (live.value if live else None) == history.get(newest)
            assert obj.latest_cts() == newest


class TestSerialisedCommits:
    @given(st.lists(txn_scripts, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_final_state_matches_commit_order_replay(self, scripts):
        """Run overlapping writers; replaying the *committed* transactions
        in commit-ts order over a dict must reproduce the table."""
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table("S")
        committed: list[tuple[int, list[tuple[int, int]]]] = []
        open_txns = [(mgr.begin(), script) for script in scripts]
        for txn, script in open_txns:
            for key, value in script:
                mgr.write(txn, "S", key, value)
        for txn, script in open_txns:
            try:
                mgr.commit(txn)
                committed.append((txn.commit_ts, script))
            except TransactionAborted:
                pass

        model: dict[int, int] = {}
        for _ts, script in sorted(committed):
            for key, value in script:
                model[key] = value
        with mgr.snapshot() as view:
            table = dict(view.scan("S"))
        assert table == model

    @given(st.lists(txn_scripts, min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_first_committer_wins_exactly(self, scripts):
        """Of a set of fully-overlapping concurrent writers (all begun
        before any commit), at most those with disjoint write sets commit."""
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table("S")
        txns = [(mgr.begin(), script) for script in scripts]
        for txn, script in txns:
            for key, value in script:
                mgr.write(txn, "S", key, value)
        committed_keysets: list[set[int]] = []
        for txn, script in txns:
            keyset = {k for k, _ in script}
            try:
                mgr.commit(txn)
            except TransactionAborted:
                # an aborted txn must overlap some earlier committer
                assert any(keyset & seen for seen in committed_keysets)
            else:
                # a committed txn must not overlap any earlier committer
                assert all(not (keyset & seen) for seen in committed_keysets)
                committed_keysets.append(keyset)


class TestSnapshotStability:
    @given(
        st.lists(txn_scripts, min_size=1, max_size=6),
        st.lists(small_keys, min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_reader_view_immune_to_commits(self, scripts, probe_keys):
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table("S")
        mgr.table("S").bulk_load([(k, -1) for k in range(6)])

        reader = mgr.begin()
        first_view = {k: mgr.read(reader, "S", k) for k in probe_keys}
        for script in scripts:
            try:
                with mgr.transaction() as writer:
                    for key, value in script:
                        mgr.write(writer, "S", key, value)
            except TransactionAborted:
                pass
            # after every interfering commit the reader's view is unchanged
            for key in probe_keys:
                assert mgr.read(reader, "S", key) == first_view[key]
        mgr.commit(reader)

    @given(st.lists(txn_scripts, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_gc_never_breaks_active_snapshot(self, scripts):
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table("S", version_slots=2)  # tiny arrays force GC
        mgr.table("S").bulk_load([(k, -1) for k in range(6)])
        reader = mgr.begin()
        baseline = {k: mgr.read(reader, "S", k) for k in range(6)}
        for script in scripts:
            with mgr.transaction() as writer:
                for key, value in script:
                    mgr.write(writer, "S", key, value)
        mgr.collect_garbage()
        for key in range(6):
            assert mgr.read(reader, "S", key) == baseline[key]
        mgr.commit(reader)


#: One step of a GC interleaving; ``evict`` and ``fault`` act only on a
#: lazy table.  A ``write`` with value ``None`` deletes the key.
gc_steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), small_keys, st.none() | small_values),
        st.tuples(st.just("bulk"), small_keys, small_values),
        st.just(("hold",)),
        st.just(("release",)),
        st.just(("sweep",)),
        st.just(("evict",)),
        st.tuples(st.just("fault"), small_keys),
    ),
    max_size=40,
)


class TestPendingSetSweep:
    @given(gc_steps, st.sampled_from(["full", "lazy"]))
    @settings(max_examples=150, deadline=None)
    def test_sweep_leaves_nothing_for_a_full_walk(self, steps, residency):
        mgr = TransactionManager(protocol="mvcc")
        table = mgr.create_table("S", version_slots=2, residency=residency)
        table.bulk_load([(k, -1) for k in range(6)])
        held = []
        wrote = False

        def views():
            return [
                {k: mgr.read(reader, "S", k) for k in range(6)} for reader in held
            ]

        # the closing steps let a sweep reach what the held snapshots pinned
        for step in steps + [("sweep",), ("release_all",), ("sweep",)]:
            op = step[0]
            if op == "write":
                _, key, value = step
                wrote = True
                with mgr.transaction() as txn:
                    if value is None:
                        mgr.delete(txn, "S", key)
                    else:
                        mgr.write(txn, "S", key, value)
            elif op == "bulk":
                if wrote:
                    # ts-0 versions would rewrite what held snapshots read
                    with pytest.raises(ValueError):
                        table.bulk_load([step[1:]])
                else:
                    table.bulk_load([step[1:]])
            elif op == "hold":
                held.append(mgr.begin())
                views()
            elif op == "release" and held:
                mgr.commit(held.pop(0))
            elif op == "release_all":
                while held:
                    mgr.commit(held.pop())
            elif op == "evict" and residency == "lazy":
                table.evict_cold_versions(
                    limit=6,
                    horizon=mgr.context.oldest_active_version(),
                )
            elif op == "fault" and residency == "lazy":
                with mgr.snapshot() as view:
                    view.get("S", step[1])
            elif op == "sweep":
                before = views()
                mgr.collect_garbage()
                horizon = mgr.context.oldest_active_version()
                leftover = sum(
                    table.mvcc_object(key).collect(horizon)
                    for key in table.keys()
                )
                assert leftover == 0
                assert views() == before
            # the pending set never outlives an evicted array
            for key, obj in table._gc_pending.items():
                assert table.mvcc_object(key) is obj


class TestWriteSetSemantics:
    @given(st.lists(st.tuples(st.booleans(), small_keys, small_values),
                    max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_read_your_writes_matches_model(self, operations):
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table("S")
        txn = mgr.begin()
        model: dict[int, int | None] = {}
        for is_delete, key, value in operations:
            if is_delete:
                mgr.delete(txn, "S", key)
                model[key] = None
            else:
                mgr.write(txn, "S", key, value)
                model[key] = value
            for probe, expected in model.items():
                assert mgr.read(txn, "S", probe) == expected
        mgr.commit(txn)
