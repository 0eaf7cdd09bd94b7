"""Tests for bloom filters, WAL, SSTables, memtable, manifest, cache."""

import pytest

from repro.errors import CorruptionError
from repro.storage.bloom import BloomFilter
from repro.storage.cache import LRUCache
from repro.storage.manifest import Manifest
from repro.storage.memtable import TOMBSTONE, MemTable
from repro.storage.sstable import SSTable, SSTableWriter
from repro.storage.wal import (
    KIND_COMMIT,
    KIND_DELETE,
    KIND_PUT,
    WriteAheadLog,
    decode_kv,
    encode_kv,
)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter.for_capacity(1000)
        keys = [f"key-{i}".encode() for i in range(1000)]
        for key in keys:
            bf.add(key)
        assert all(bf.might_contain(k) for k in keys)

    def test_false_positive_rate_reasonable(self):
        bf = BloomFilter.for_capacity(1000, bits_per_key=10)
        for i in range(1000):
            bf.add(f"key-{i}".encode())
        false_positives = sum(
            bf.might_contain(f"absent-{i}".encode()) for i in range(10_000)
        )
        assert false_positives / 10_000 < 0.05  # ~1% design, 5% margin

    def test_serialization_roundtrip(self):
        bf = BloomFilter.for_capacity(100)
        for i in range(100):
            bf.add(str(i).encode())
        restored = BloomFilter.from_bytes(bf.to_bytes())
        assert restored.num_bits == bf.num_bits
        assert all(restored.might_contain(str(i).encode()) for i in range(100))

    def test_contains_operator(self):
        bf = BloomFilter.for_capacity(10)
        bf.add(b"x")
        assert b"x" in bf

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 1)
        with pytest.raises(ValueError):
            BloomFilter(10, 0)
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"short")


class TestWAL:
    def test_append_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(KIND_PUT, encode_kv(b"k1", b"v1"))
            wal.append(KIND_DELETE, b"k2")
            wal.append(KIND_COMMIT, (42).to_bytes(8, "little"))
        records = list(WriteAheadLog.replay(path))
        assert len(records) == 3
        assert records[0][0] == KIND_PUT
        assert decode_kv(records[0][1]) == (b"k1", b"v1")
        assert records[1] == (KIND_DELETE, b"k2")

    def test_replay_missing_file(self, tmp_path):
        assert list(WriteAheadLog.replay(tmp_path / "absent.log")) == []

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(KIND_PUT, encode_kv(b"good", b"record"))
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02\x03")  # torn partial frame
        records = list(WriteAheadLog.replay(path))
        assert len(records) == 1

    def test_corrupt_tail_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(KIND_PUT, encode_kv(b"a", b"1"))
            wal.append(KIND_PUT, encode_kv(b"b", b"2"))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the last record
        path.write_bytes(bytes(data))
        records = list(WriteAheadLog.replay(path))
        assert len(records) == 1  # safe prefix only

    def test_sync_mode_append(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log", sync=True) as wal:
            wal.append(KIND_PUT, encode_kv(b"k", b"v"))
            assert wal.size_bytes() > 0

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", sync=False)
        wal.close()
        from repro.errors import WALError

        with pytest.raises(WALError):
            wal.append(KIND_PUT, encode_kv(b"k", b"v"))

    def test_truncate(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(KIND_PUT, encode_kv(b"k", b"v"))
        WriteAheadLog.truncate(path)
        assert not path.exists()
        WriteAheadLog.truncate(path)  # idempotent

    def test_kv_encoding_roundtrip(self):
        payload = encode_kv(b"key", b"value with \x00 bytes")
        assert decode_kv(payload) == (b"key", b"value with \x00 bytes")


class TestSSTable:
    def _write(self, tmp_path, records, **kwargs):
        writer = SSTableWriter(tmp_path / "t.sst", **kwargs)
        return writer.write(iter(records))

    def test_point_lookup(self, tmp_path):
        table = self._write(
            tmp_path, [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(100)]
        )
        assert table.get(b"k0042") == (b"v42", True)
        assert table.get(b"k9999") == (None, False)
        assert table.get(b"a") == (None, False)  # below min
        assert table.get(b"z") == (None, False)  # above max

    def test_tombstone_found(self, tmp_path):
        table = self._write(tmp_path, [(b"dead", None), (b"live", b"v")])
        value, found = table.get(b"dead")
        assert found and value is None
        assert table.get(b"live") == (b"v", True)

    def test_items_in_order(self, tmp_path):
        records = [(f"k{i:03d}".encode(), str(i).encode()) for i in range(50)]
        table = self._write(tmp_path, records)
        assert list(table.items()) == records
        assert len(table) == 50

    def test_range_scan(self, tmp_path):
        records = [(f"k{i:03d}".encode(), str(i).encode()) for i in range(50)]
        table = self._write(tmp_path, records)
        got = [k for k, _ in table.range(b"k010", b"k015")]
        assert got == [b"k010", b"k011", b"k012", b"k013", b"k014"]

    def test_range_outside_the_table_reads_nothing(self, tmp_path, monkeypatch):
        records = [(f"k{i:03d}".encode(), str(i).encode()) for i in range(50)]
        table = self._write(tmp_path, records)
        monkeypatch.setattr(table, "_scan_from", None)  # any file read fails
        assert list(table.range(b"k050", None)) == []
        assert list(table.range(b"\xff", None)) == []
        assert list(table.range(None, b"k000")) == []
        assert list(table.range(b"a", b"k000")) == []

    def test_out_of_order_keys_rejected(self, tmp_path):
        writer = SSTableWriter(tmp_path / "bad.sst")
        with pytest.raises(CorruptionError):
            writer.write(iter([(b"b", b"1"), (b"a", b"2")]))

    def test_sparse_index_interval(self, tmp_path):
        records = [(f"k{i:04d}".encode(), b"v") for i in range(100)]
        table = self._write(tmp_path, records, index_interval=10)
        # every key remains findable despite the sparse index
        for i in range(0, 100, 7):
            assert table.get(f"k{i:04d}".encode())[1]

    def test_reopen_from_disk(self, tmp_path):
        self._write(tmp_path, [(b"k", b"v")])
        reopened = SSTable(tmp_path / "t.sst")
        assert reopened.get(b"k") == (b"v", True)

    def test_truncated_file_detected(self, tmp_path):
        with pytest.raises(CorruptionError):
            path = tmp_path / "short.sst"
            path.write_bytes(b"tiny")
            SSTable(path)

    def test_min_max_keys(self, tmp_path):
        table = self._write(tmp_path, [(b"aaa", b"1"), (b"mmm", b"2"), (b"zzz", b"3")])
        assert table.min_key == b"aaa"
        assert table.max_key == b"zzz"

    def test_reads_after_construction_open_no_file(self, tmp_path, monkeypatch):
        import os

        import repro.storage.sstable as sstable_mod

        records = [(f"k{i:03d}".encode(), str(i).encode()) for i in range(50)]
        table = self._write(tmp_path, records, index_interval=8)

        def no_open(*args, **kwargs):
            raise AssertionError("SSTable read opened a file")

        monkeypatch.setattr(sstable_mod, "open", no_open, raising=False)
        monkeypatch.setattr(os, "open", no_open)
        assert table.get(b"k017") == (b"17", True)
        assert table.get(b"k017x") == (None, False)
        assert list(table.items()) == records
        assert [k for k, _ in table.range(b"k010", b"k013")] == [b"k010", b"k011", b"k012"]

    def test_record_running_past_its_block_detected(self, tmp_path):
        """A corrupt key length must not read on into the next records,
        the index or the footer: the record overruns its block."""
        records = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(100)]
        self._write(tmp_path, records, index_interval=16)
        path = tmp_path / "t.sst"
        raw = bytearray(path.read_bytes())
        raw[1] ^= 0x02  # first record's klen: 5 -> 517, past its ~260-byte block
        path.write_bytes(bytes(raw))
        table = SSTable(path)  # the last block, read on open, is intact
        with pytest.raises(CorruptionError):
            table.get(b"k0000")
        with pytest.raises(CorruptionError):
            list(table.items())
        # blocks the corruption does not reach still answer
        assert table.get(b"k0050") == (b"v50", True)
        table.close()


class TestMemTable:
    def test_put_get_delete(self):
        mt = MemTable()
        mt.put(b"k", b"v")
        assert mt.get(b"k") == (b"v", True)
        mt.delete(b"k")
        value, found = mt.get(b"k")
        assert found and value is None  # tombstone
        assert mt.get(b"absent") == (None, False)

    def test_items_include_tombstones(self):
        mt = MemTable()
        mt.put(b"a", b"1")
        mt.delete(b"b")
        items = dict(mt.items())
        assert items[b"a"] == b"1"
        assert items[b"b"] is TOMBSTONE

    def test_size_accounting(self):
        mt = MemTable()
        assert mt.approximate_bytes() == 0
        mt.put(b"key", b"value")
        assert mt.approximate_bytes() > 0

    def test_range(self):
        mt = MemTable()
        for i in range(10):
            mt.put(bytes([i]), b"v")
        assert len(list(mt.range(bytes([3]), bytes([6])))) == 3

    def test_is_empty(self):
        mt = MemTable()
        assert mt.is_empty()
        mt.put(b"k", b"v")
        assert not mt.is_empty()


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = Manifest(tmp_path)
        n1 = manifest.allocate_file_number()
        manifest.register(0, f"{n1:08d}.sst")
        manifest.save()
        reopened = Manifest(tmp_path)
        assert reopened.tables == [(0, f"{n1:08d}.sst")]
        assert reopened.allocate_file_number() > n1

    def test_replace(self, tmp_path):
        manifest = Manifest(tmp_path)
        manifest.register(0, "a.sst")
        manifest.register(0, "b.sst")
        manifest.replace(["a.sst", "b.sst"], [(1, "c.sst")])
        assert manifest.tables == [(1, "c.sst")]
        assert manifest.tables_at_level(0) == []
        assert manifest.tables_at_level(1) == ["c.sst"]

    def test_garbage_collection(self, tmp_path):
        manifest = Manifest(tmp_path)
        manifest.register(0, "live.sst")
        (tmp_path / "live.sst").write_bytes(b"x")
        (tmp_path / "orphan.sst").write_bytes(b"x")
        assert manifest.collect_garbage() == 1
        assert (tmp_path / "live.sst").exists()
        assert not (tmp_path / "orphan.sst").exists()

    def test_corrupt_manifest_raises(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text("not json{")
        with pytest.raises(CorruptionError):
            Manifest(tmp_path)

    def test_levels(self, tmp_path):
        manifest = Manifest(tmp_path)
        manifest.register(2, "x.sst")
        manifest.register(0, "y.sst")
        assert manifest.levels() == [0, 2]


class TestLRUCache:
    def test_hit_miss(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_invalidate(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.invalidate("a")
        assert cache.get("a") is None

    def test_hit_ratio(self):
        cache = LRUCache(4)
        assert cache.hit_ratio() == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hit_ratio() == 0.5

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)
