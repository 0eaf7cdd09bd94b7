"""Range scans: bound pushdown on lazy tables and the sorted-key cache.

* A lazy table whose key codec preserves order reads only the encoded
  ``[low, high)`` range of its base table plus the codec's unordered
  region; a codec that cannot encode bounds sweeps the partition.
* Full residency bisects a cached sorted key list that is rebuilt only
  when the index's key set changes.
* Whatever the path, a scan answers what a plain Python filter over the
  snapshot answers (the differential property below).
"""

from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ShardedTransactionManager, StateTable, TransactionManager
from repro.core.codecs import PICKLE_CODEC
from repro.errors import StorageError
from repro.recovery.sharded import schema_path
from repro.storage import MemoryKVStore


class CountingStore(MemoryKVStore):
    """A memory backend that counts scanned rows and can run a hook when
    a scan starts (after the lazy scan captured its resident keys)."""

    def __init__(self) -> None:
        super().__init__()
        self.rows_scanned = 0
        self.on_scan = None

    def scan(self, low=None, high=None):
        hook, self.on_scan = self.on_scan, None
        if hook is not None:
            hook()
        for row in super().scan(low, high):
            self.rows_scanned += 1
            yield row


def cold_table(rows, key_codec=None) -> StateTable:
    """A lazy table whose ``rows`` live only in its base table."""
    kwargs = {} if key_codec is None else {"key_codec": key_codec}
    table = StateTable("A", backend=CountingStore(), residency="lazy", **kwargs)
    table.backend.write_batch(
        [(table.key_codec.encode(k), table.value_codec.encode(v)) for k, v in rows],
        [],
    )
    return table


# ------------------------------------------------------- bound pushdown


class TestBoundPushdown:
    #: keys the ordered codec pickles but Python compares with ints
    UNORDERED = [(10.5, "f"), (True, "b"), (5.25, "g")]

    def test_bounded_scan_reads_only_its_range(self):
        table = cold_table([(i, i) for i in range(1000)] + self.UNORDERED)
        rows = list(table.scan_at(5, low=100, high=150))
        assert rows == [(i, i) for i in range(100, 150)]
        # the range plus the unordered region, never the other 950 rows
        assert table.backend.rows_scanned <= 50 + len(self.UNORDERED)

    def test_unordered_keys_in_range_are_found(self):
        table = cold_table([(i, i) for i in range(20)] + self.UNORDERED)
        rows = list(table.scan_live(low=10, high=12))
        assert rows == [(10, 10), (10.5, "f"), (11, 11)]
        assert list(table.scan_live(low=5, high=6)) == [(5, 5), (5.25, "g")]

    def test_one_open_side(self):
        table = cold_table([(i, i) for i in range(100)])
        assert [k for k, _ in table.scan_live(low=97)] == [97, 98, 99]
        assert table.backend.rows_scanned == 3
        assert [k for k, _ in table.scan_live(high=2)] == [0, 1]

    def test_unencodable_bound_leaves_that_side_open(self):
        table = cold_table([(i, i) for i in range(100)])
        assert [k for k, _ in table.scan_live(low=2.5, high=5)] == [3, 4]
        assert table.backend.rows_scanned == 5

    def test_pickle_codec_keeps_the_full_sweep(self):
        table = cold_table([(i, i) for i in range(200)], key_codec=PICKLE_CODEC)
        assert [k for k, _ in table.scan_live(low=10, high=13)] == [10, 11, 12]
        assert table.backend.rows_scanned == 200

    def test_lazy_partition_of_a_sharded_store(self, tmp_path):
        """A bounded scan on a reopened lazy LSM partition pulls at most
        the range from its backend, not the partition."""
        smgr = ShardedTransactionManager(num_shards=2, data_dir=tmp_path)
        smgr.create_table("A")
        smgr.register_group("g", ["A"])
        smgr.bulk_load("A", [(i, i * 2) for i in range(2000)])
        smgr.close()
        lazy = ShardedTransactionManager.open(tmp_path, state_residency="lazy")
        try:
            table = lazy.shards[0].table("A")
            pulled = []
            scan = table.backend.scan

            def counting_scan(low=None, high=None):
                for row in scan(low, high):
                    pulled.append(row)
                    yield row

            table.backend.scan = counting_scan
            rows = list(table.scan_at(10**9, low=500, high=600))
            owned = [k for k in range(2000) if table.backend.get(
                table.key_codec.encode(k)) is not None]
            assert [k for k, _ in rows] == [k for k in owned if 500 <= k < 600]
            assert len(pulled) == len(rows) < len(owned) // 10
        finally:
            lazy.close()


# ------------------------------------------------------ sorted-key cache


class TestSortedKeyCache:
    def test_list_is_reused_until_the_key_set_changes(self):
        table = StateTable("A")
        table.bulk_load([(i, i) for i in range(10)])
        first = table._sorted_keys()[0]
        list(table.scan_live(2, 5))
        assert table._sorted_keys()[0] is first
        # an overwrite of an existing key keeps the list
        table.bulk_load([(3, "again")])
        assert table._sorted_keys()[0] is first

    def test_key_created_after_a_scan_appears_in_the_next(self):
        table = StateTable("A")
        table.bulk_load([(1, "a"), (3, "c")])
        assert list(table.scan_live()) == [(1, "a"), (3, "c")]
        table.bulk_load([(2, "b")])
        assert list(table.scan_live()) == [(1, "a"), (2, "b"), (3, "c")]
        assert list(table.scan_at(0, low=2, high=3)) == [(2, "b")]

    def test_evict_keys_invalidates(self):
        table = StateTable("A")
        table.bulk_load([(i, i) for i in range(5)])
        assert table.keys() == [0, 1, 2, 3, 4]
        with table.commit_latch:
            table.evict_keys([1, 3])
        assert table.keys() == [0, 2, 4]
        assert [k for k, _ in table.scan_live()] == [0, 2, 4]

    def test_evict_cold_versions_invalidates(self):
        table = cold_table([(i, i) for i in range(5)])
        for i in range(5):
            table.read_live(i)
        assert table.keys() == [0, 1, 2, 3, 4]
        table.evict_cold_versions(limit=5, horizon=0)
        assert table.keys() == []

    def test_load_from_backend_invalidates(self):
        table = StateTable("A")
        table.bulk_load([(1, "a")])
        assert table.keys() == [1]
        table.backend.put(table.key_codec.encode(0), table.value_codec.encode("z"))
        table.load_from_backend(bootstrap_cts=4)
        assert table.keys() == [0, 1]
        assert list(table.scan_at(4, high=1)) == [(0, "z")]
        # an emptied base table empties the key list too
        table.backend.write_batch([], [table.key_codec.encode(k) for k in (0, 1)])
        table.load_from_backend(bootstrap_cts=5)
        assert table.keys() == []

    def test_heterogeneous_keys_fall_back_without_raising(self):
        table = StateTable("A")
        table.bulk_load([(2, "i"), ("a", "s"), ((1,), "t"), (1, "j")])
        assert sorted(map(repr, table.keys())) == sorted(["2", "'a'", "(1,)", "1"])
        assert sorted(map(repr, (k for k, _ in table.scan_live()))) == sorted(
            ["2", "'a'", "(1,)", "1"]
        )
        assert table._sorted_keys()[1] is False


class TestSortedKeyCacheThreads:
    def test_scans_see_every_key_committed_before_they_began(self):
        """Writers create keys while scanners rebuild the shared list: a
        stale list would hide a key whose commit finished first."""
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table("A")
        mgr.register_group("g", ["A"])
        committed: list[int] = []
        errors: list = []
        done = threading.Event()

        def writer(base):
            try:
                for i in range(150):
                    _commit(mgr, base + i, i)
                    committed.append(base + i)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        def scanner():
            try:
                while not done.is_set():
                    before = set(committed)
                    with mgr.snapshot() as view:
                        seen = {k for k, _ in view.scan("A")}
                        low = {k for k, _ in view.scan("A", 0, 1000)}
                    if not before <= seen or not {k for k in before if k < 1000} <= low:
                        errors.append(sorted(before - seen))
            except Exception as exc:
                errors.append(exc)

        writers = [threading.Thread(target=writer, args=(n * 500,)) for n in range(3)]
        scanners = [threading.Thread(target=scanner) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in writers + scanners:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            for thread in scanners:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + scanners)
        assert not errors, errors[:3]
        assert mgr.table("A").keys() == sorted(committed)


# ------------------------------------------------- differential property

#: Ints, floats between them, and bools (``True``/``False`` equal 1/0, so
#: ints start at 2 to keep every key distinct).
int_keys = st.integers(min_value=2, max_value=40)
keys = st.one_of(int_keys, int_keys.map(lambda k: k + 0.5), st.booleans())
bounds = st.one_of(st.none(), st.integers(min_value=-1, max_value=42), keys)
ops = st.one_of(
    st.tuples(st.just("put"), keys, st.integers(0, 99)),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.just("hold")),
    st.tuples(st.just("fault"), keys),
    st.tuples(st.just("evict")),
    st.tuples(st.just("scan"), bounds, bounds, st.integers(0, 3)),
    st.tuples(st.just("racing_scan"), bounds, bounds, int_keys.map(lambda k: k + 100)),
)


def _manager(residency: str) -> TransactionManager:
    mgr = TransactionManager(protocol="mvcc")
    mgr.create_table(
        "A", backend=CountingStore() if residency == "lazy" else None,
        residency=residency,
    )
    mgr.register_group("g", ["A"])
    return mgr


def _commit(mgr: TransactionManager, key, value) -> None:
    txn = mgr.begin()
    if value is None:
        mgr.delete(txn, "A", key)
    else:
        mgr.write(txn, "A", key, value)
    mgr.commit(txn)


def _expected(snapshot: dict, low, high) -> list:
    return sorted(
        (k, v) for k, v in snapshot.items()
        if (low is None or k >= low) and (high is None or k < high)
    )


class TestScanDifferential:
    @given(st.dictionaries(keys, st.integers(0, 99), max_size=20),
           st.lists(ops, max_size=14))
    @settings(max_examples=150, deadline=None)
    def test_lazy_pushdown_matches_full_residency_and_python_filter(
        self, initial, operations
    ):
        lazy, full = _manager("lazy"), _manager("full")
        lazy_table = lazy.table("A")
        # lazy rows start cold (base table only); full residency loads them
        lazy_table.backend.write_batch(
            [(lazy_table.key_codec.encode(k), lazy_table.value_codec.encode(v))
             for k, v in initial.items()],
            [],
        )
        full.table("A").bulk_load(list(initial.items()))
        current = dict(initial)
        held = []  # (lazy txn, full txn, snapshot of the reference)

        def pin(mgr):
            txn = mgr.begin()
            list(mgr.scan(txn, "A", 0, 0))  # pins the snapshot now
            return txn

        for op in operations:
            kind = op[0]
            if kind == "put" or kind == "delete":
                value = op[2] if kind == "put" else None
                for mgr in (lazy, full):
                    _commit(mgr, op[1], value)
                if value is None:
                    current.pop(op[1], None)
                else:
                    current[op[1]] = value
            elif kind == "hold":
                held.append((pin(lazy), pin(full), dict(current)))
            elif kind == "fault":
                lazy_table.read_live(op[1])
            elif kind == "evict":
                lazy_table.evict_cold_versions(limit=64, horizon=0)
            elif kind == "scan":
                _, low, high, which = op
                if held and which < len(held):
                    lazy_txn, full_txn, snap = held[which]
                else:
                    lazy_txn, full_txn, snap = pin(lazy), pin(full), dict(current)
                want = _expected(snap, low, high)
                assert list(lazy.scan(lazy_txn, "A", low, high)) == want
                assert list(full.scan(full_txn, "A", low, high)) == want
            else:
                # a key committed after the lazy scan captured its
                # resident keys must stay invisible to the scan
                _, low, high, new_key = op
                lazy_txn, full_txn = pin(lazy), pin(full)
                snap = dict(current)
                lazy_table.backend.on_scan = lambda: _commit(lazy, new_key, 1)
                want = _expected(snap, low, high)
                assert list(lazy.scan(lazy_txn, "A", low, high)) == want
                assert list(full.scan(full_txn, "A", low, high)) == want
                if lazy_table.backend.on_scan is not None:
                    # the scan never reached the base table: commit anyway
                    lazy_table.backend.on_scan = None
                    _commit(lazy, new_key, 1)
                _commit(full, new_key, 1)
                current[new_key] = 1
        for lazy_txn, full_txn, _ in held:
            lazy.abort(lazy_txn)
            full.abort(full_txn)
        assert list(lazy_table.scan_live()) == _expected(current, None, None)


# ------------------------------------------------------------ format guard


class TestKeyEncodingGuard:
    def _store(self, tmp_path, residency="full"):
        smgr = ShardedTransactionManager(
            num_shards=2, data_dir=tmp_path, state_residency=residency
        )
        smgr.create_table("A")
        smgr.register_group("g", ["A"])
        smgr.bulk_load("A", [(i, i) for i in range(20)])
        smgr.close()

    def test_schema_records_the_key_encoding(self, tmp_path):
        self._store(tmp_path)
        payload = json.loads(schema_path(tmp_path).read_text())
        assert payload["key_encoding"] == "ordered-v1"
        reopened = ShardedTransactionManager.open(tmp_path)
        try:
            with reopened.snapshot() as view:
                assert [k for k, _ in view.scan("A", 3, 6)] == [3, 4, 5]
        finally:
            reopened.close()

    @pytest.mark.parametrize("residency", ["full", "lazy"])
    def test_old_style_schema_is_refused(self, tmp_path, residency):
        self._store(tmp_path, residency)
        path = schema_path(tmp_path)
        payload = json.loads(path.read_text())
        del payload["key_encoding"]  # as written before keys were ordered
        path.write_text(json.dumps(payload))
        with pytest.raises(StorageError, match="pickled keys"):
            ShardedTransactionManager.open(tmp_path)
        # the constructor only creates stores: it refuses any catalog
        with pytest.raises(StorageError, match=r"open\(\)"):
            ShardedTransactionManager(num_shards=2, data_dir=tmp_path)
        # the refused catalog was left as it was
        assert "key_encoding" not in json.loads(path.read_text())
