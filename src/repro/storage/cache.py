"""A small LRU block/value cache for the LSM read path.

RocksDB fronts its SSTables with a shared block cache; reads that hit the
cache never touch the filesystem.  We cache at value granularity (the store's
records are small — 4-byte keys / 20-byte values in the paper's workload),
which gives the same behaviour the evaluation depends on: after warm-up the
readers are "mostly only accessing memory".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable
from typing import Any


class LRUCache:
    """Thread-safe least-recently-used cache with hit/miss counters."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return default

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def put_many(self, items: Iterable[tuple[Any, Any]]) -> None:
        """:meth:`put` each ``(key, value)`` in order under one lock
        acquisition (a store's write batch updates the cache at once)."""
        with self._lock:
            data = self._data
            capacity = self.capacity
            for key, value in items:
                if key in data:
                    data.move_to_end(key)
                data[key] = value
                if len(data) > capacity:
                    data.popitem(last=False)

    def resize(self, capacity: int) -> None:
        """Change the capacity, evicting LRU entries if shrinking (the
        fleet-wide cache budget re-divides as shards/tables are added)."""
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        with self._lock:
            self.capacity = capacity
            while len(self._data) > capacity:
                self._data.popitem(last=False)

    def invalidate(self, key: Any) -> None:
        with self._lock:
            self._data.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def hit_ratio(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0
