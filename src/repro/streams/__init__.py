"""Stream-processing substrate: a PipeFabric-style dataflow framework.

Topologies of push-based operators with punctuation-marked transaction
boundaries, the linking operators TO_TABLE / TO_STREAM / FROM, windows and
grouped aggregates — everything the paper's transaction model (Section 3)
needs from its host stream processor.  A topology runs on either
manager: the single-site :class:`~repro.core.manager.TransactionManager`
or the :class:`~repro.core.sharding.ShardedTransactionManager`, whose
``commit_state``/``abort_state`` votes commit through its single-shard or
2PC path (and, with ``data_dir=``, durably).
"""

from .aggregates import AggregateSpec, GroupedAggregate
from .from_op import StreamTap, TableScanSource, from_table, from_tables
from .joins import TableLookupJoin
from .operators import (
    Element,
    FilterOp,
    FlatMapOp,
    ForEachOp,
    KeyByOp,
    MapOp,
    Operator,
    SinkOp,
    UnionOp,
)
from .punctuations import (
    BOT,
    COMMIT,
    EOS,
    ROLLBACK,
    Punctuation,
    PunctuationGuard,
    PunctuationKind,
    bot,
    commit,
    eos,
    rollback,
    transaction_batches,
)
from .router import RouterOp
from .runtime import TransactionContext
from .sources import GeneratorSource, MemorySource, Source, TransactionalSource
from .to_stream import ToStream, TriggerPolicy
from .to_table import ToTable
from .topology import StreamHandle, Topology
from .tuples import StreamTuple, TupleOp, make_tuples
from .windows import SlidingCountWindow, SlidingTimeWindow, TumblingCountWindow

__all__ = [
    "AggregateSpec",
    "BOT",
    "COMMIT",
    "EOS",
    "Element",
    "FilterOp",
    "FlatMapOp",
    "ForEachOp",
    "GeneratorSource",
    "GroupedAggregate",
    "KeyByOp",
    "MapOp",
    "MemorySource",
    "Operator",
    "Punctuation",
    "PunctuationGuard",
    "PunctuationKind",
    "ROLLBACK",
    "RouterOp",
    "SinkOp",
    "SlidingCountWindow",
    "SlidingTimeWindow",
    "Source",
    "StreamHandle",
    "StreamTap",
    "StreamTuple",
    "TableLookupJoin",
    "TableScanSource",
    "ToStream",
    "ToTable",
    "Topology",
    "TransactionContext",
    "TransactionalSource",
    "TriggerPolicy",
    "TumblingCountWindow",
    "TupleOp",
    "UnionOp",
    "bot",
    "commit",
    "eos",
    "from_table",
    "from_tables",
    "make_tuples",
    "rollback",
    "transaction_batches",
]
