"""Key-value store interface and the in-memory reference backend.

The paper's transactional table wrapper is backend-agnostic: "any existing
backend structure with a key-value mapping can be used" (Section 4.1).  This
module defines that contract (:class:`KVStore`) plus a trivial in-memory
implementation used for fast tests and volatile states; the durable
implementation is :class:`repro.storage.lsm.LSMStore`.

The contract is batched: a backend implements a point-lookup batch
(:meth:`KVStore.multi_get`) and a mutation batch
(:meth:`KVStore.write_batch`); single-key reads and writes are
one-element batches defined once in the base class.

Keys and values are ``bytes`` at this layer; the transactional table handles
object (de)serialisation above it.
"""

from __future__ import annotations

import abc
import threading
from bisect import bisect_left
from collections.abc import Iterator


class KVStore(abc.ABC):
    """Minimal ordered key-value contract the transactional layer needs.

    Batches are the contract: a backend implements :meth:`multi_get` and
    :meth:`write_batch`, and :meth:`get`, :meth:`put` and :meth:`delete`
    are one-element batches (RocksDB's ``Put`` and ``Delete`` are
    one-entry ``WriteBatch``es the same way).
    """

    @abc.abstractmethod
    def multi_get(self, keys: list[bytes]) -> list[bytes | None]:
        """Batched point lookup: the value (or ``None``) per key, aligned
        with ``keys``."""

    @abc.abstractmethod
    def write_batch(self, puts: list[tuple[bytes, bytes]], deletes: list[bytes]) -> None:
        """Apply a batch of mutations as one unit: a durable backend makes
        it one atomic, synced unit, which is what the commit protocol's
        "populated atomically ... into the base table" step relies on."""

    @abc.abstractmethod
    def scan(
        self, low: bytes | None = None, high: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Iterate live ``(key, value)`` pairs with ``low <= key < high``."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release resources; the store must not be used afterwards."""

    def get(self, key: bytes) -> bytes | None:
        """Return the value for ``key`` or ``None`` when absent."""
        return self.multi_get([key])[0]

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        self.write_batch([(key, value)], [])

    def delete(self, key: bytes) -> None:
        """Remove ``key`` (no-op when absent)."""
        self.write_batch([], [key])

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class MemoryKVStore(KVStore):
    """Dictionary-backed volatile store (for tests and transient states)."""

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}
        self._lock = threading.RLock()
        self._closed = False
        #: sorted key list for scans; ``None`` once a key is added or
        #: removed (overwrites keep it), rebuilt by the next scan.
        self._sorted: list[bytes] | None = None

    def multi_get(self, keys: list[bytes]) -> list[bytes | None]:
        with self._lock:
            return [self._data.get(key) for key in keys]

    def scan(
        self, low: bytes | None = None, high: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        with self._lock:
            if self._sorted is None:
                self._sorted = sorted(self._data)
            keys = self._sorted
        start = 0 if low is None else bisect_left(keys, low)
        stop = len(keys) if high is None else bisect_left(keys, high)
        for key in keys[start:stop]:
            with self._lock:
                value = self._data.get(key)
            if value is not None:
                yield key, value

    def write_batch(self, puts: list[tuple[bytes, bytes]], deletes: list[bytes]) -> None:
        with self._lock:
            for key, value in puts:
                if key not in self._data:
                    self._sorted = None
                self._data[key] = value
            for key in deletes:
                if self._data.pop(key, None) is not None:
                    self._sorted = None

    def close(self) -> None:
        self._closed = True

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)
