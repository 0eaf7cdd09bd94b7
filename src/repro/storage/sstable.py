"""Sorted String Tables: the immutable on-disk run files of the LSM store.

File layout (all integers little-endian)::

    [data block]      repeated: klen(4) | vlen(4) | tombstone(1) | key | value
    [index block]     repeated: klen(4) | key | offset(8)          (sparse)
    [bloom block]     serialized BloomFilter
    [footer]          index_off(8) | index_len(8) | bloom_off(8) | bloom_len(8)
                      | count(8) | magic(8)

The sparse index holds every ``index_interval``-th key with the file offset
of its record, which cuts the data region into *blocks* of at most
``index_interval`` records — the classic SSTable design (Bigtable, LevelDB,
RocksDB).  Reads follow the LevelDB/RocksDB table-reader shape: each table
keeps one read-only descriptor open from construction to :meth:`SSTable.close`
and reads whole blocks with ``os.pread`` — no ``open()`` and no buffered
seek/read per lookup.  A point lookup bisects the index for the one block
that can hold the key, reads it in one ``pread`` and parses it in memory;
scans and compaction merges read about 64 KiB of whole blocks per
``pread``.  A record whose lengths run past its block raises
:class:`~repro.errors.CorruptionError` instead of reading on into the
index and footer.
"""

from __future__ import annotations

import os
import struct
import weakref
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..errors import CorruptionError
from .bloom import BloomFilter
from .wal import fsync_dir

_MAGIC = 0x53535442_31303031  # "SSTB1001"
_FOOTER = struct.Struct("<QQQQQQ")
_REC_HEADER = struct.Struct("<IIB")
#: Bytes of whole blocks one ``pread`` of a scan or merge asks for.
_READ_AHEAD = 64 * 1024

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
    data blocks are read on demand with ``os.pread`` on one read-only
    descriptor held from construction until :meth:`close`.  The store
    that installs a table owns that descriptor (see ``LSMStore``); a table
    dropped without ``close`` releases it when garbage-collected.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        fd = os.open(self.path, os.O_RDONLY)
        try:
            self._fd = fd
            self._file_len = os.fstat(fd).st_size
            if self._file_len < _FOOTER.size:
                raise CorruptionError(f"SSTable {self.path} too short")
            (
                index_off,
                index_len,
                bloom_off,
                bloom_len,
                count,
                magic,
            ) = _FOOTER.unpack(self._pread(self._file_len - _FOOTER.size, self._file_len))
            if magic != _MAGIC:
                raise CorruptionError(f"SSTable {self.path} bad magic {magic:#x}")
            self.count = count
            self._data_end = index_off

            index_blob = self._pread(index_off, index_off + index_len)
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
            #: Block ``i`` spans ``[_index_offsets[i], _block_ends[i])``.
            self._block_ends = self._index_offsets[1:] + [self._data_end]

            self._bloom = BloomFilter.from_bytes(
                self._pread(bloom_off, bloom_off + bloom_len)
            )
            self.min_key = self._index_keys[0] if self._index_keys else None
            self.max_key = self._read_last_key() if self._index_keys else None
        except BaseException:
            os.close(fd)
            raise
        self._release = weakref.finalize(self, os.close, fd)

    def close(self) -> None:
        """Release the descriptor (idempotent).

        The caller guarantees no reader can still reach this table: a
        closed descriptor's number may be reused by another file, and a
        stale ``pread`` on it would return that file's bytes.
        """
        self._fd = -1
        self._release()

    @property
    def closed(self) -> bool:
        return not self._release.alive

    def _pread(self, start: int, end: int) -> bytes:
        """Bytes ``[start, end)`` of the file in one ``pread``."""
        buf = os.pread(self._fd, end - start, start)
        if len(buf) != end - start:
            raise CorruptionError(f"SSTable {self.path} truncated at {start + len(buf)}")
        return buf

    def _records(
        self, buf: bytes, pos: int, end: int
    ) -> Iterator[tuple[bytes, bytes, int]]:
        """Parse the block ``buf[pos:end]``; a record running past the
        block's end is corruption, not a reason to read on."""
        unpack = _REC_HEADER.unpack_from
        header = _REC_HEADER.size
        while pos < end:
            if pos + header > end:
                raise CorruptionError(f"torn record header in {self.path}")
            klen, vlen, tomb = unpack(buf, pos)
            key_start = pos + header
            key_end = key_start + klen
            pos = key_end + vlen
            if pos > end:
                raise CorruptionError(f"record runs past its block in {self.path}")
            yield buf[key_start:key_end], buf[key_end:pos], tomb

    def _read_last_key(self) -> bytes:
        last = None
        for key, _value, _tomb in self._scan_from(len(self._index_offsets) - 1):
            last = key
        assert last is not None
        return last

    def _scan_from(
        self, slot: int, stop: int | None = None
    ) -> Iterator[tuple[bytes, bytes, int]]:
        """Records of blocks ``slot`` up to ``stop`` (default: the end of
        the data region), whole blocks about ``_READ_AHEAD`` bytes per
        ``pread``."""
        offsets = self._index_offsets
        ends = self._block_ends
        if stop is None:
            stop = len(offsets)
        while slot < stop:
            start = offsets[slot]
            last = max(slot, bisect_right(ends, start + _READ_AHEAD, slot, stop) - 1)
            buf = self._pread(start, ends[last])
            for block in range(slot, last + 1):
                yield from self._records(buf, offsets[block] - start, ends[block] - start)
            slot = last + 1

    def get(self, key: bytes) -> tuple[bytes | None, bool]:
        """Point lookup: one ``pread`` of the one block that can hold ``key``.

        Returns ``(value, found)``; a tombstone yields ``(None, True)`` so
        the LSM read path stops descending to older runs.  The bloom probe
        is the caller's (the store counts its skips), so it is not repeated
        here.
        """
        if not self._index_keys or key < self.min_key or key > self.max_key:
            return None, False
        slot = bisect_right(self._index_keys, key) - 1
        start = self._index_offsets[slot]
        end = self._block_ends[slot]
        for rec_key, value, tomb in self._records(self._pread(start, end), 0, end - start):
            if rec_key == key:
                return (None, True) if tomb == _TOMBSTONE else (value, True)
            if rec_key > key:
                break
        return None, False

    def items(self) -> Iterator[tuple[bytes, bytes | None]]:
        """All records in key order; tombstones surface as ``None`` values."""
        if not self._index_keys:
            return
        for key, value, tomb in self._scan_from(0):
            yield key, None if tomb == _TOMBSTONE else value

    def range(self, low: bytes | None, high: bytes | None) -> Iterator[tuple[bytes, bytes | None]]:
        """Records with ``low <= key < high`` (open bounds when ``None``)."""
        if not self._index_keys:
            return
        # a range outside [min_key, max_key] never reads the file
        if (low is not None and low > self.max_key) or (
            high is not None and high <= self.min_key
        ):
            return
        slot = 0 if low is None else max(0, bisect_right(self._index_keys, low) - 1)
        # a block whose first key is >= high holds nothing in the range
        stop = None if high is None else bisect_left(self._index_keys, high)
        for key, value, tomb in self._scan_from(slot, stop):
            if low is not None and key < low:
                continue
            if high is not None and key >= high:
                return
            yield key, None if tomb == _TOMBSTONE else value

    def might_contain(self, key: bytes) -> bool:
        return self._bloom.might_contain(key)

    def size_bytes(self) -> int:
        return self._file_len

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SSTable({self.path.name}, count={self.count})"
