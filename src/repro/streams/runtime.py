"""Shared transaction context and execution driver for topologies.

One stream query (topology) runs one transaction at a time: the consecutive
tuples between two boundary punctuations form the transaction (data-centric
model).  All ``TO_TABLE`` operators of the topology share a
:class:`TransactionContext` so their writes land in the *same* transaction
and their per-state commit votes drive the consistency protocol's group
commit — the operator whose vote arrives last becomes the coordinator.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.manager import TransactionManager
    from ..core.sharding import ShardedTransaction, ShardedTransactionManager
    from ..core.transactions import Transaction

    #: A topology runs on either manager: both take per-state votes
    #: (``commit_state``/``abort_state``) and serve ``snapshot()`` reads.
    StreamManager = TransactionManager | ShardedTransactionManager
    StreamTransaction = Transaction | ShardedTransaction


class TransactionContext:
    """Per-topology handle on the currently open stream transaction."""

    def __init__(self, manager: "StreamManager", state_ids: list[str]) -> None:
        self.manager = manager
        #: States this topology writes; pre-registered at BOT so an early
        #: per-state commit vote cannot prematurely complete the global
        #: commit before the other states voted.
        self.state_ids = list(state_ids)
        self._current: StreamTransaction | None = None
        self._mutex = threading.Lock()
        self.transactions_started = 0

    def ensure_begun(self) -> "StreamTransaction":
        """Return the open transaction, starting one if necessary.

        Idempotent: the first TO_TABLE operator (or the BOT punctuation) to
        arrive begins the transaction, everyone else joins it.
        """
        with self._mutex:
            if self._current is None or self._current.is_finished():
                self._current = self.manager.begin(states=self.state_ids or None)
                self.transactions_started += 1
            return self._current

    def current(self) -> "StreamTransaction | None":
        with self._mutex:
            return self._current

    def clear_if_finished(self) -> None:
        """Drop the handle once the transaction reached a final state."""
        with self._mutex:
            if self._current is not None and self._current.is_finished():
                self._current = None

    def clear(self) -> None:
        with self._mutex:
            self._current = None

    def has_open_transaction(self) -> bool:
        with self._mutex:
            return self._current is not None and not self._current.is_finished()

    def register_state(self, state_id: str) -> None:
        """Late registration of a TO_TABLE state (builder plumbing)."""
        if state_id not in self.state_ids:
            self.state_ids.append(state_id)
