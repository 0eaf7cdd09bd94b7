"""The mutable in-memory component of the LSM store.

A memtable is a ``dict`` of the most recent writes plus the same keys in
a list kept sorted with :func:`bisect.insort` on each key's first
insert: a point read is one dict lookup and a range is a bisect plus a
slice.  Deletes are recorded as tombstones (not removals) so that
flushing the memtable produces a run that correctly shadows older values
of the key in lower levels.

The memtable has no latch of its own.  :class:`~repro.storage.lsm.LSMStore`
mutates and reads the live memtable only under its store lock, and a
sealed memtable is never mutated again.  LevelDB and RocksDB keep the
memtable in a skip list because it admits concurrent inserts without a
lock; here every insert already holds the store lock (and the GIL), so a
skip list would only be a slower sorted map.
"""

from __future__ import annotations

from bisect import bisect_left, insort


class Tombstone:
    """Singleton marker for a deleted key inside memtables and merges."""

    _instance: "Tombstone | None" = None

    def __new__(cls) -> "Tombstone":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<tombstone>"


TOMBSTONE = Tombstone()

_MISSING = object()


class MemTable:
    """Sorted in-memory map with approximate size accounting."""

    def __init__(self) -> None:
        self._data: dict[bytes, bytes | Tombstone] = {}
        #: ``_data``'s keys in ascending order (tombstoned keys included).
        self._keys: list[bytes] = []
        self._approx_bytes = 0
        # Entries that are live values (not tombstones): len() counts
        # tombstoned keys, so the LSM's approximate live-key count needs
        # this maintained alongside each insert.
        self._live = 0

    def put(self, key: bytes, value: bytes) -> None:
        old = self._data.get(key, _MISSING)
        if old is _MISSING:
            insort(self._keys, key)
            self._live += 1
        elif old is TOMBSTONE:
            self._live += 1
        self._data[key] = value
        self._approx_bytes += len(key) + len(value) + 24

    def delete(self, key: bytes) -> None:
        """Record a tombstone for ``key``."""
        old = self._data.get(key, _MISSING)
        if old is _MISSING:
            insort(self._keys, key)
        elif old is not TOMBSTONE:
            self._live -= 1
        self._data[key] = TOMBSTONE
        self._approx_bytes += len(key) + 24

    def get(self, key: bytes) -> tuple[bytes | None, bool]:
        """Return ``(value, found)``; tombstones yield ``(None, True)``."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return None, False
        if value is TOMBSTONE:
            return None, True
        return value, True

    def items(self) -> list[tuple[bytes, bytes | Tombstone]]:
        """Snapshot of all entries in key order (tombstones included)."""
        data = self._data
        return [(key, data[key]) for key in self._keys]

    def range(
        self, low: bytes | None, high: bytes | None
    ) -> list[tuple[bytes, bytes | Tombstone]]:
        """Snapshot of the entries with ``low <= key < high`` in key order;
        a ``None`` bound is open on that side."""
        keys = self._keys
        start = 0 if low is None else bisect_left(keys, low)
        stop = len(keys) if high is None else bisect_left(keys, high, start)
        data = self._data
        return [(key, data[key]) for key in keys[start:stop]]

    def approximate_bytes(self) -> int:
        return self._approx_bytes

    def __len__(self) -> int:
        return len(self._data)

    def live_count(self) -> int:
        """Entries holding live values (tombstoned keys excluded)."""
        return self._live

    def is_empty(self) -> bool:
        return not self._data
