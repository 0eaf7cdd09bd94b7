"""Storage substrate: an LSM-tree key-value store (RocksDB substitute).

The paper uses RocksDB as the persistent base table under its transactional
table wrapper.  This package provides the same role from scratch: a
write-ahead-logged, memtable + SSTable, bloom-filtered, compacting
key-value store with a ``sync`` durability knob, plus a volatile in-memory
backend for tests and transient operator states.
"""

from .bloom import BloomFilter
from .cache import LRUCache
from .kvstore import KVStore, MemoryKVStore
from .lsm import LSMOptions, LSMStats, LSMStore
from .maintenance import StorageMaintenanceDaemon
from .memtable import TOMBSTONE, MemTable, Tombstone
from .manifest import Manifest
from .sstable import SSTable, SSTableWriter
from .wal import WriteAheadLog

__all__ = [
    "BloomFilter",
    "KVStore",
    "LRUCache",
    "LSMOptions",
    "LSMStats",
    "LSMStore",
    "Manifest",
    "MemTable",
    "MemoryKVStore",
    "SSTable",
    "SSTableWriter",
    "StorageMaintenanceDaemon",
    "TOMBSTONE",
    "Tombstone",
    "WriteAheadLog",
]
