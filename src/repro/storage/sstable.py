"""Sorted String Tables: the immutable on-disk run files of the LSM store.

File layout (all integers little-endian)::

    [data block]      repeated: klen(4) | vlen(4) | tombstone(1) | key | value
    [index block]     repeated: klen(4) | key | offset(8)          (sparse)
    [bloom block]     serialized BloomFilter
    [footer]          index_off(8) | index_len(8) | bloom_off(8) | bloom_len(8)
                      | count(8) | magic(8)

The sparse index holds every ``index_interval``-th key with the file offset
of its record, so a point lookup seeks to the greatest indexed key <= target
and scans forward at most ``index_interval`` records — the classic
SSTable design (Bigtable, LevelDB, RocksDB).
"""

from __future__ import annotations

import os
import struct
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..errors import CorruptionError
from .bloom import BloomFilter
from .wal import fsync_dir

_MAGIC = 0x53535442_31303031  # "SSTB1001"
_FOOTER = struct.Struct("<QQQQQQ")
_REC_HEADER = struct.Struct("<IIB")

#: Marker stored in the tombstone byte.
_LIVE = 0
_TOMBSTONE = 1


class SSTableWriter:
    """Builds an SSTable from an iterator of sorted, unique keys."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        index_interval: int = 16,
        bits_per_key: int = 10,
    ) -> None:
        self.path = Path(path)
        self.index_interval = max(1, index_interval)
        self.bits_per_key = bits_per_key

    def write(self, records: Iterable[tuple[bytes, bytes | None]]) -> "SSTable":
        """Write ``(key, value-or-None)`` pairs (``None`` = tombstone).

        Keys must arrive in strictly ascending order; violations raise
        :class:`~repro.errors.CorruptionError` to catch merge bugs early.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        index: list[tuple[bytes, int]] = []
        keys: list[bytes] = []
        count = 0
        last_key: bytes | None = None
        with open(self.path, "wb") as fh:
            for key, value in records:
                if last_key is not None and key <= last_key:
                    raise CorruptionError(
                        f"SSTable keys out of order: {key!r} after {last_key!r}"
                    )
                last_key = key
                if count % self.index_interval == 0:
                    index.append((key, fh.tell()))
                tomb = _TOMBSTONE if value is None else _LIVE
                body = value if value is not None else b""
                fh.write(_REC_HEADER.pack(len(key), len(body), tomb))
                fh.write(key)
                fh.write(body)
                keys.append(key)
                count += 1

            index_off = fh.tell()
            for key, offset in index:
                fh.write(len(key).to_bytes(4, "little"))
                fh.write(key)
                fh.write(offset.to_bytes(8, "little"))
            index_len = fh.tell() - index_off

            bloom = BloomFilter.for_capacity(max(count, 1), self.bits_per_key)
            for key in keys:
                bloom.add(key)
            bloom_blob = bloom.to_bytes()
            bloom_off = fh.tell()
            fh.write(bloom_blob)

            fh.write(
                _FOOTER.pack(
                    index_off, index_len, bloom_off, len(bloom_blob), count, _MAGIC
                )
            )
            fh.flush()
            os.fsync(fh.fileno())
        # The file's fsync covers its contents only; the *name* needs a
        # directory-entry fsync or a crash right after the flush can leave
        # a manifest pointing at a file that does not exist.
        fsync_dir(self.path.parent)
        return SSTable(self.path)


class SSTable:
    """Read-side handle on an immutable sorted run.

    The sparse index and bloom filter are loaded eagerly (they are tiny);
    data records are read on demand.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            file_len = fh.tell()
            if file_len < _FOOTER.size:
                raise CorruptionError(f"SSTable {self.path} too short")
            fh.seek(file_len - _FOOTER.size)
            (
                index_off,
                index_len,
                bloom_off,
                bloom_len,
                count,
                magic,
            ) = _FOOTER.unpack(fh.read(_FOOTER.size))
            if magic != _MAGIC:
                raise CorruptionError(f"SSTable {self.path} bad magic {magic:#x}")
            self.count = count
            self._data_end = index_off

            fh.seek(index_off)
            index_blob = fh.read(index_len)
            self._index_keys: list[bytes] = []
            self._index_offsets: list[int] = []
            pos = 0
            while pos < len(index_blob):
                klen = int.from_bytes(index_blob[pos : pos + 4], "little")
                pos += 4
                self._index_keys.append(index_blob[pos : pos + klen])
                pos += klen
                self._index_offsets.append(
                    int.from_bytes(index_blob[pos : pos + 8], "little")
                )
                pos += 8

            fh.seek(bloom_off)
            self._bloom = BloomFilter.from_bytes(fh.read(bloom_len))

        self.min_key = self._index_keys[0] if self._index_keys else None
        self.max_key = self._read_last_key() if self._index_keys else None

    def _read_last_key(self) -> bytes:
        last = None
        for key, _value, _tomb in self._scan_from(self._index_offsets[-1]):
            last = key
        assert last is not None
        return last

    def _scan_from(self, offset: int) -> Iterator[tuple[bytes, bytes, int]]:
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            while fh.tell() < self._data_end:
                header = fh.read(_REC_HEADER.size)
                if len(header) < _REC_HEADER.size:
                    raise CorruptionError(f"torn record in {self.path}")
                klen, vlen, tomb = _REC_HEADER.unpack(header)
                key = fh.read(klen)
                value = fh.read(vlen)
                yield key, value, tomb

    def get(self, key: bytes) -> tuple[bytes | None, bool]:
        """Point lookup.

        Returns ``(value, found)``; a tombstone yields ``(None, True)`` so
        the LSM read path stops descending to older runs.
        """
        if not self._index_keys or not self._bloom.might_contain(key):
            return None, False
        if self.min_key is not None and key < self.min_key:
            return None, False
        if self.max_key is not None and key > self.max_key:
            return None, False
        slot = bisect_right(self._index_keys, key) - 1
        if slot < 0:
            return None, False
        for rec_key, value, tomb in self._scan_from(self._index_offsets[slot]):
            if rec_key == key:
                return (None, True) if tomb == _TOMBSTONE else (value, True)
            if rec_key > key:
                return None, False
        return None, False

    def items(self) -> Iterator[tuple[bytes, bytes | None]]:
        """All records in key order; tombstones surface as ``None`` values."""
        if not self._index_keys:
            return
        for key, value, tomb in self._scan_from(self._index_offsets[0]):
            yield key, None if tomb == _TOMBSTONE else value

    def range(self, low: bytes | None, high: bytes | None) -> Iterator[tuple[bytes, bytes | None]]:
        """Records with ``low <= key < high`` (open bounds when ``None``)."""
        if not self._index_keys:
            return
        # a range outside [min_key, max_key] never opens the file
        if (low is not None and low > self.max_key) or (
            high is not None and high <= self.min_key
        ):
            return
        if low is None:
            start = self._index_offsets[0]
        else:
            slot = max(0, bisect_right(self._index_keys, low) - 1)
            start = self._index_offsets[slot]
        for key, value, tomb in self._scan_from(start):
            if low is not None and key < low:
                continue
            if high is not None and key >= high:
                return
            yield key, None if tomb == _TOMBSTONE else value

    def might_contain(self, key: bytes) -> bool:
        return self._bloom.might_contain(key)

    def size_bytes(self) -> int:
        return self.path.stat().st_size

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SSTable({self.path.name}, count={self.count})"
