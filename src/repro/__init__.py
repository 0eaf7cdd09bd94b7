"""repro — Snapshot Isolation for Transactional Stream Processing.

A from-scratch Python reproduction of Götze & Sattler, EDBT 2019:

* :mod:`repro.core` — multi-versioned queryable states, the MVCC snapshot
  isolation protocol with First-Committer-Wins, S2PL and BOCC baselines,
  and the multi-state consistency protocol (group commits via LastCTS);
* :mod:`repro.storage` — an LSM-tree key-value store (RocksDB substitute);
* :mod:`repro.streams` — a PipeFabric-style dataflow framework with
  punctuation-marked transaction boundaries and the linking operators
  TO_TABLE / TO_STREAM / FROM;
* :mod:`repro.workload` — the Section-5 micro benchmark and the Figure-1
  smart-metering scenario;
* :mod:`repro.sim` — a single-site discrete-event simulator reproducing
  the Figure-4 concurrency study in virtual time (the sharded engine is
  measured on the wall clock by ``perfbench/`` instead);
* :mod:`repro.recovery` — restart recovery from the commit WALs
  (checkpoints, in-doubt 2PC resolution, ``LastCTS`` restoration);
* :mod:`repro.bench` — the harness regenerating every figure.

Quickstart::

    from repro import TransactionManager

    mgr = TransactionManager(protocol="mvcc")
    mgr.create_table("measurements")
    mgr.create_table("specification")
    mgr.register_group("q1", ["measurements", "specification"])

    with mgr.transaction() as txn:
        mgr.write(txn, "measurements", 7, {"power_kw": 1.5})
        mgr.write(txn, "specification", 7, {"max_kw": 3.0})

    with mgr.snapshot() as view:
        print(view.multi_get(["measurements", "specification"], 7))
"""

from .core import (
    GCPolicy,
    IsolationLevel,
    ShardedSnapshotView,
    ShardedTransaction,
    ShardedTransactionManager,
    SnapshotView,
    StateContext,
    StateTable,
    TimestampOracle,
    Transaction,
    TransactionManager,
    TxnStatus,
)
from .errors import (
    ReproError,
    StorageError,
    StreamError,
    TransactionAborted,
    ValidationFailure,
    WriteConflict,
)
from .storage import LSMOptions, LSMStore, MemoryKVStore
from .streams import Topology, TransactionalSource, from_table, from_tables

__version__ = "1.0.0"

__all__ = [
    "GCPolicy",
    "IsolationLevel",
    "LSMOptions",
    "LSMStore",
    "MemoryKVStore",
    "ReproError",
    "ShardedSnapshotView",
    "ShardedTransaction",
    "ShardedTransactionManager",
    "SnapshotView",
    "StateContext",
    "StateTable",
    "StorageError",
    "StreamError",
    "TimestampOracle",
    "Topology",
    "Transaction",
    "TransactionAborted",
    "TransactionManager",
    "TransactionalSource",
    "TxnStatus",
    "ValidationFailure",
    "WriteConflict",
    "from_table",
    "from_tables",
    "__version__",
]
