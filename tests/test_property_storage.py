"""Property-based tests (hypothesis) for the storage data structures.

Each property compares the implementation against a trivially-correct
model (a Python dict) over arbitrary operation sequences.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import LSMOptions, LSMStore, MemoryKVStore
from repro.storage.bloom import BloomFilter
from repro.storage.memtable import TOMBSTONE, MemTable, Tombstone

keys = st.binary(min_size=1, max_size=8)
values = st.binary(min_size=0, max_size=16)

#: (op, key, value) triples: op 0 = put, 1 = delete, 2 = get.
ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), keys, values),
    max_size=60,
)


#: Memtable operations: (op, key, value, low, high) with op 0 = put,
#: 1 = delete, 2 = get, 3 = range, 4 = items; a ``None`` bound is open.
memtable_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        keys,
        values,
        st.none() | keys,
        st.none() | keys,
    ),
    max_size=80,
)


class TestMemTableProperties:
    @given(memtable_ops)
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_model(self, operations):
        """A memtable ≡ a dict that keeps tombstones, with the size and
        live-count accounting replayed beside it."""
        mt = MemTable()
        model: dict[bytes, bytes | Tombstone] = {}
        approx = 0
        for op, key, value, low, high in operations:
            if op == 0:
                mt.put(key, value)
                model[key] = value
                approx += len(key) + len(value) + 24
            elif op == 1:
                mt.delete(key)
                model[key] = TOMBSTONE
                approx += len(key) + 24
            elif op == 2:
                expected = model.get(key)
                if expected is None:
                    assert mt.get(key) == (None, False)
                elif expected is TOMBSTONE:
                    assert mt.get(key) == (None, True)
                else:
                    assert mt.get(key) == (expected, True)
            elif op == 3:
                assert mt.range(low, high) == [
                    (k, v) for k, v in sorted(model.items())
                    if (low is None or k >= low) and (high is None or k < high)
                ]
            else:
                assert mt.items() == sorted(model.items())
            assert len(mt) == len(model)
            assert mt.is_empty() == (not model)
            assert mt.live_count() == sum(
                1 for v in model.values() if v is not TOMBSTONE
            )
            assert mt.approximate_bytes() == approx

    @given(st.lists(keys, min_size=1, unique=True), st.lists(keys))
    @settings(max_examples=100, deadline=None)
    def test_items_always_sorted(self, key_list, deleted):
        mt = MemTable()
        for key in key_list:
            mt.put(key, b"")
        for key in deleted:
            mt.delete(key)
        assert [k for k, _v in mt.items()] == sorted(set(key_list) | set(deleted))


class TestMemoryKVStoreProperties:
    @given(ops, st.lists(st.tuples(st.none() | keys, st.none() | keys), max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_bounded_scans_match_dict_model(self, operations, bounds):
        # scans interleave with the writes, so the cached sorted key list
        # must follow every insert and delete
        store = MemoryKVStore()
        model: dict[bytes, bytes] = {}
        for i, (op, key, value) in enumerate(operations):
            if op == 0:
                store.put(key, value)
                model[key] = value
            elif op == 1:
                store.delete(key)
                model.pop(key, None)
            else:
                store.write_batch([(key, value)], [value])
                model[key] = value
                model.pop(value, None)
            low, high = bounds[i % len(bounds)] if bounds else (None, None)
            assert list(store.scan(low, high)) == [
                (k, v) for k, v in sorted(model.items())
                if (low is None or k >= low) and (high is None or k < high)
            ]


class TestBloomProperties:
    @given(st.lists(keys, unique=True, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_never_false_negative(self, key_list):
        bf = BloomFilter.for_capacity(max(1, len(key_list)))
        for key in key_list:
            bf.add(key)
        assert all(bf.might_contain(k) for k in key_list)

    @given(st.lists(keys, unique=True, min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_serialisation_preserves_membership(self, key_list):
        bf = BloomFilter.for_capacity(len(key_list))
        for key in key_list:
            bf.add(key)
        clone = BloomFilter.from_bytes(bf.to_bytes())
        assert all(clone.might_contain(k) for k in key_list)


class TestLSMProperties:
    @given(ops)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_dict_model_with_flushes(self, tmp_path, operations):
        """LSM ≡ dict across interleaved puts/deletes/gets + flushes."""
        import uuid

        store = LSMStore(
            tmp_path / uuid.uuid4().hex,
            LSMOptions(sync=False, memtable_bytes=512, fanout=2, max_levels=3),
        )
        model: dict[bytes, bytes] = {}
        try:
            for i, (op, key, value) in enumerate(operations):
                if op == 0:
                    store.put(key, value)
                    model[key] = value
                elif op == 1:
                    store.delete(key)
                    model.pop(key, None)
                else:
                    assert store.get(key) == model.get(key)
                if i % 17 == 16:
                    store.flush()
            assert dict(store.scan()) == model
        finally:
            store.close()

    @given(st.dictionaries(keys, values, max_size=40))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_reopen_preserves_contents(self, tmp_path, contents):
        import uuid

        directory = tmp_path / uuid.uuid4().hex
        store = LSMStore(directory, LSMOptions(sync=False))
        for key, value in contents.items():
            store.put(key, value)
        store.close()
        reopened = LSMStore(directory, LSMOptions(sync=False))
        assert dict(reopened.scan()) == contents
        reopened.close()
