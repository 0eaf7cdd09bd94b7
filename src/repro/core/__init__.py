"""Core contribution: snapshot isolation for transactional stream states.

Implements the paper's three components — multi-versioned queryable states,
the MVCC concurrency protocol (plus S2PL and BOCC baselines), and the
multi-state consistency protocol — behind the
:class:`~repro.core.manager.TransactionManager` facade.
"""

from .bocc import BOCCProtocol
from .codecs import (
    BYTES_CODEC,
    FLOAT_CODEC,
    INT4_CODEC,
    INT8_CODEC,
    JSON_CODEC,
    ORDERED_KEY_CODEC,
    PICKLE_CODEC,
    STR_CODEC,
    BytesCodec,
    Codec,
    FloatCodec,
    IntCodec,
    JsonCodec,
    OrderedKeyCodec,
    PickleCodec,
    StrCodec,
)
from .context import GroupInfo, StateContext, StateInfo
from .durability import (
    DURABILITY_ASYNC,
    DURABILITY_SYNC,
    CheckpointLogRecord,
    CommitLogRecord,
    DurabilityTicket,
    GroupFsyncDaemon,
    PrepareLogRecord,
    commit_wal_tail,
    recovered_commits,
    replay_commit_wal,
)
from .gc import GarbageCollector, GCPolicy, GCReport
from .group_commit import GroupCommitCoordinator
from .indexes import IndexSet, SecondaryIndex
from .isolation import IsolationLevel
from .locks import LockManager, LockMode
from .manager import TransactionManager
from .mvcc import MVCCProtocol
from .protocol import ConcurrencyControl, ProtocolStats, make_protocol, protocol_names
from .protocol import PreparedCommit
from .s2pl import S2PLProtocol
from .sharding import (
    CheckpointDaemon,
    ShardedSnapshotView,
    ShardedTransaction,
    ShardedTransactionManager,
    shard_of_key,
)
from .slots import NUM_SLOTS, SlotFlip, SlotMap, integral_key, slot_of_key
from .snapshot import GlobalSnapshot, SnapshotCoordinator, SnapshotView
from .table import RESIDENCY_FULL, RESIDENCY_LAZY, RESIDENCY_MODES, StateTable
from .timestamps import INF_TS, ZERO_TS, TimestampOracle
from .transactions import StateFlag, Transaction, TxnStatus
from .version_store import DEFAULT_SLOTS, MVCCObject, VersionEntry
from .write_set import ReadSet, WriteEntry, WriteKind, WriteSet

__all__ = [
    "BOCCProtocol",
    "BYTES_CODEC",
    "BytesCodec",
    "CheckpointDaemon",
    "CheckpointLogRecord",
    "Codec",
    "CommitLogRecord",
    "ConcurrencyControl",
    "DEFAULT_SLOTS",
    "DURABILITY_ASYNC",
    "DURABILITY_SYNC",
    "DurabilityTicket",
    "FLOAT_CODEC",
    "FloatCodec",
    "GCPolicy",
    "GCReport",
    "GarbageCollector",
    "GlobalSnapshot",
    "GroupCommitCoordinator",
    "GroupFsyncDaemon",
    "GroupInfo",
    "INF_TS",
    "INT4_CODEC",
    "INT8_CODEC",
    "IndexSet",
    "IntCodec",
    "IsolationLevel",
    "JSON_CODEC",
    "JsonCodec",
    "LockManager",
    "LockMode",
    "MVCCObject",
    "MVCCProtocol",
    "ORDERED_KEY_CODEC",
    "OrderedKeyCodec",
    "PICKLE_CODEC",
    "PickleCodec",
    "PrepareLogRecord",
    "PreparedCommit",
    "ProtocolStats",
    "RESIDENCY_FULL",
    "RESIDENCY_LAZY",
    "RESIDENCY_MODES",
    "ReadSet",
    "S2PLProtocol",
    "STR_CODEC",
    "SecondaryIndex",
    "ShardedSnapshotView",
    "ShardedTransaction",
    "ShardedTransactionManager",
    "SnapshotCoordinator",
    "SnapshotView",
    "StateContext",
    "StateFlag",
    "StateInfo",
    "StateTable",
    "StrCodec",
    "TimestampOracle",
    "Transaction",
    "TransactionManager",
    "TxnStatus",
    "VersionEntry",
    "WriteEntry",
    "WriteKind",
    "WriteSet",
    "ZERO_TS",
    "commit_wal_tail",
    "make_protocol",
    "protocol_names",
    "recovered_commits",
    "replay_commit_wal",
    "shard_of_key",
]
