"""TO_TABLE: the only way to modify a state in the paper's model.

``TO_TABLE`` "inserts, deletes, or updates tuples from a stream in a table";
whether a stream tuple inserts or updates depends on key presence (the
transactional write path handles that uniformly as an upsert), and deletes
arrive as DELETE-kind tuples (outdated window tuples or explicit deletes).

Transactional behaviour:

* data tuples are written into the topology's current transaction (begun
  lazily or at the BOT punctuation);
* a COMMIT punctuation makes this operator cast its per-state ``Commit``
  vote to the group-commit coordinator — when its vote is the last one, it
  *is* the coordinator and performs the global commit before forwarding the
  punctuation (so downstream ``TO_STREAM`` operators observe committed
  state);
* a ROLLBACK punctuation casts an ``Abort`` vote, aborting globally;
* EOS commits any open transaction, then forwards.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from ..errors import StreamError, TransactionAborted
from .operators import Operator
from .punctuations import Punctuation, PunctuationKind
from .runtime import TransactionContext
from .tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import StreamManager


class ToTable(Operator):
    """Stream-to-table linking operator (paper Section 3, Figure 2)."""

    def __init__(
        self,
        manager: "StreamManager",
        state_id: str,
        txn_context: TransactionContext,
        key_fn: Callable[[Any], Any] | None = None,
        name: str = "",
    ) -> None:
        super().__init__(name or f"to_table:{state_id}")
        self.manager = manager
        self.state_id = state_id
        self.txn_context = txn_context
        self.key_fn = key_fn
        txn_context.register_state(state_id)
        self.writes = 0
        self.deletes = 0
        self.commits_voted = 0
        self.aborts_voted = 0

    # ------------------------------------------------------------ data path

    def _key_of(self, tup: StreamTuple) -> Any:
        # An explicit per-operator key_fn wins over the tuple's inherited
        # key: different TO_TABLE sinks of one pipeline may key differently.
        if self.key_fn is not None:
            return self.key_fn(tup.payload)
        if tup.key is not None:
            return tup.key
        raise StreamError(
            f"{self.name}: tuple has no key and no key_fn was configured"
        )

    def on_tuple(self, tup: StreamTuple) -> None:
        txn = self.txn_context.ensure_begun()
        key = self._key_of(tup)
        if tup.is_delete():
            self.manager.delete(txn, self.state_id, key)
            self.deletes += 1
        else:
            self.manager.write(txn, self.state_id, key, tup.payload)
            self.writes += 1
        self.publish(tup)

    # --------------------------------------------------------- punctuations

    def on_punctuation(self, punctuation: Punctuation) -> None:
        kind = punctuation.kind
        if kind is PunctuationKind.BOT:
            self.txn_context.ensure_begun()
        elif kind is PunctuationKind.COMMIT:
            self._vote_commit()
        elif kind is PunctuationKind.ROLLBACK:
            self._vote_abort()
        elif kind is PunctuationKind.EOS:
            if self.txn_context.has_open_transaction():
                self._vote_commit()
        self.publish(punctuation)

    def _vote_commit(self) -> None:
        txn = self.txn_context.current()
        if txn is None or txn.is_finished():
            self.txn_context.clear_if_finished()
            return
        try:
            self.manager.commit_state(txn, self.state_id)
            self.commits_voted += 1
        except TransactionAborted:
            self.txn_context.clear()
            raise
        self.txn_context.clear_if_finished()

    def _vote_abort(self) -> None:
        txn = self.txn_context.current()
        if txn is None or txn.is_finished():
            self.txn_context.clear_if_finished()
            return
        self.manager.abort_state(txn, self.state_id)
        self.aborts_voted += 1
        self.txn_context.clear_if_finished()
