"""Topology: the dataflow graph of one stream query, with a fluent builder.

"In PipeFabric a query is written by defining a so-called Topology.  It can
be seen as [a] graph where each node is an operator and the edges represent
their subscribed streams." (paper Section 4.1)

The builder tracks every ``TO_TABLE`` target; :meth:`Topology.build`
registers those states as one *group* in the state context, which is what
the consistency protocol uses to commit them atomically and to serve
readers a unified ``LastCTS`` snapshot.

Example::

    topo = Topology(mgr, "meter_query")
    (topo.source(TransactionalSource(readings, batch_size=10,
                                     key_fn=lambda r: r["meter"]))
         .filter(lambda r: r["power_kw"] >= 0)
         .to_table("measurements1")
         .to_table("measurements2"))
    topo.build()
    topo.run()
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

from ..errors import TopologyBuildError, TransactionAborted
from .aggregates import AggregateSpec, GroupedAggregate
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
from .runtime import TransactionContext
from .sources import Source
from .to_stream import ToStream, TriggerPolicy
from .to_table import ToTable
from .windows import SlidingCountWindow, SlidingTimeWindow, TumblingCountWindow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import StreamManager


class StreamHandle:
    """Fluent handle on one operator's output inside a topology.

    Each handle carries the transaction context its TO_TABLE sinks join.
    Crossing a TO_STREAM starts a *fresh* context: the paper's table-to-
    stream operator generates a new "back-to-the-table-directed stream" of
    transactions, decoupled from the upstream query's transactions (its
    emissions must read already-committed data, which requires the
    upstream commit to complete without waiting for downstream votes).
    """

    def __init__(
        self,
        topology: "Topology",
        op: Operator,
        txn_context: TransactionContext | None = None,
    ) -> None:
        self.topology = topology
        self.op = op
        self.txn_context = txn_context or topology.txn_context

    def _chain(self, op: Operator, txn_context: TransactionContext | None = None) -> "StreamHandle":
        self.op.subscribe(op)
        self.topology._operators.append(op)
        return StreamHandle(self.topology, op, txn_context or self.txn_context)

    # stateless ------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], name: str = "") -> "StreamHandle":
        return self._chain(MapOp(fn, name))

    def filter(self, predicate: Callable[[Any], bool], name: str = "") -> "StreamHandle":
        return self._chain(FilterOp(predicate, name))

    def flat_map(self, fn: Callable[[Any], Iterable[Any]], name: str = "") -> "StreamHandle":
        return self._chain(FlatMapOp(fn, name))

    def key_by(self, key_fn: Callable[[Any], Any], name: str = "") -> "StreamHandle":
        return self._chain(KeyByOp(key_fn, name))

    def for_each(self, fn: Callable[[Any], None], name: str = "") -> "StreamHandle":
        return self._chain(ForEachOp(fn, name))

    def union(self, *others: "StreamHandle") -> "StreamHandle":
        union = UnionOp()
        self.op.subscribe(union)
        for other in others:
            other.op.subscribe(union)
        self.topology._operators.append(union)
        return StreamHandle(self.topology, union)

    # stateful -------------------------------------------------------------

    def sliding_window(self, size: int, name: str = "") -> "StreamHandle":
        return self._chain(SlidingCountWindow(size, name))

    def tumbling_window(self, size: int, name: str = "") -> "StreamHandle":
        return self._chain(TumblingCountWindow(size, name))

    def time_window(self, duration: int, name: str = "") -> "StreamHandle":
        return self._chain(SlidingTimeWindow(duration, name))

    def aggregate(
        self,
        key_fn: Callable[[Any], Any],
        fields: dict[str, tuple[str, str]],
        name: str = "",
    ) -> "StreamHandle":
        return self._chain(GroupedAggregate(key_fn, AggregateSpec(fields), name))

    # linking --------------------------------------------------------------

    def join_table(
        self,
        state_id: str,
        key_fn: Callable[[Any], Any],
        combine: Callable[[Any, Any], Any] | None = None,
        how: str = "inner",
        transactional: bool = True,
        name: str = "",
    ) -> "StreamHandle":
        """Enrich tuples with rows from ``state_id`` (stream-table join).

        ``transactional=True`` performs lookups inside the stream's current
        transaction; ``False`` uses a fresh committed snapshot per tuple.
        """
        from .joins import TableLookupJoin

        op = TableLookupJoin(
            self.topology.manager,
            state_id,
            key_fn,
            combine=combine,
            how=how,
            txn_context=self.txn_context if transactional else None,
            name=name,
        )
        return self._chain(op)

    def to_table(
        self,
        state_id: str,
        key_fn: Callable[[Any], Any] | None = None,
        name: str = "",
    ) -> "StreamHandle":
        op = ToTable(
            self.topology.manager,
            state_id,
            self.txn_context,
            key_fn=key_fn,
            name=name,
        )
        self.topology._record_written_state(self.txn_context, state_id)
        return self._chain(op)

    def to_stream(
        self,
        state_id: str,
        trigger: TriggerPolicy = TriggerPolicy.ON_COMMIT,
        emit: str = "delta",
        condition: Callable[[dict[Any, Any]], bool] | None = None,
        name: str = "",
    ) -> "StreamHandle":
        op = ToStream(
            self.topology.manager,
            state_id,
            trigger=trigger,
            emit=emit,
            condition=condition,
            name=name,
        )
        # downstream of TO_STREAM is a new transaction domain
        fresh = self.topology._new_txn_context()
        return self._chain(op, txn_context=fresh)

    def sink(self, name: str = "", keep_punctuations: bool = False) -> SinkOp:
        handle = self._chain(SinkOp(name, keep_punctuations))
        assert isinstance(handle.op, SinkOp)
        return handle.op


class Topology:
    """One stream query: sources, an operator graph, one txn context."""

    def __init__(self, manager: "StreamManager", name: str) -> None:
        self.manager = manager
        self.name = name
        self.txn_context = TransactionContext(manager, [])
        #: every transaction domain of this topology (primary first; one
        #: more per TO_STREAM crossing) with the states it writes.
        self._contexts: list[TransactionContext] = [self.txn_context]
        self._context_states: dict[int, list[str]] = {id(self.txn_context): []}
        self._sources: list[Source] = []
        self._operators: list[Operator] = []
        self._built = False

    # building -------------------------------------------------------------

    def source(self, source: Source) -> StreamHandle:
        self._sources.append(source)
        self._operators.append(source)
        return StreamHandle(self, source)

    def _new_txn_context(self) -> TransactionContext:
        ctx = TransactionContext(self.manager, [])
        self._contexts.append(ctx)
        self._context_states[id(ctx)] = []
        return ctx

    def _record_written_state(self, ctx: TransactionContext, state_id: str) -> None:
        states = self._context_states[id(ctx)]
        if state_id not in states:
            states.append(state_id)

    def build(self) -> "Topology":
        """Finalise the graph; group multi-state writers in the context.

        The states written within one transaction domain form one group —
        the unit of the consistency protocol.  The primary domain's group
        carries the topology name; TO_STREAM-spawned domains get indexed
        names.
        """
        if self._built:
            return self
        if not self._sources:
            raise TopologyBuildError(f"topology {self.name!r} has no sources")
        for index, ctx in enumerate(self._contexts):
            states = self._context_states[id(ctx)]
            if len(states) >= 2:
                group_id = self.name if index == 0 else f"{self.name}:{index}"
                self.manager.register_group(group_id, states)
        self._built = True
        return self

    # running --------------------------------------------------------------

    def run(self) -> int:
        """Drain every source (sequentially); returns elements pushed.

        A :class:`~repro.errors.TransactionAborted` escaping here means the
        current stream transaction died (e.g. FCW against an ad-hoc
        writer); the caller decides whether to replay the batch.
        """
        if not self._built:
            self.build()
        return sum(source.drain() for source in self._sources)

    def push(self, element: Element, source_index: int = 0) -> None:
        """Push one element through a given source (interleaved drivers)."""
        if not self._built:
            self.build()
        self._sources[source_index].push(element)

    def run_with_retry(self, elements: list[Element], max_retries: int = 10) -> int:
        """Push a transactional batch, replaying it on conflict aborts.

        Only safe when the topology has no cross-transaction operator state
        (windows spanning transactions would double-count on replay); the
        caller asserts that by choosing this entry point.
        """
        if not self._built:
            self.build()
        attempts = 0
        while True:
            try:
                for element in elements:
                    self._sources[0].push(element)
                return attempts
            except TransactionAborted:
                for ctx in self._contexts:
                    ctx.clear()
                attempts += 1
                if attempts > max_retries:
                    raise

    # inspection -----------------------------------------------------------

    def operators(self) -> list[Operator]:
        return list(self._operators)

    def written_states(self) -> list[str]:
        out: list[str] = []
        for ctx in self._contexts:
            for state_id in self._context_states[id(ctx)]:
                if state_id not in out:
                    out.append(state_id)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Topology({self.name!r}, operators={len(self._operators)}, "
            f"states={self.written_states()})"
        )
