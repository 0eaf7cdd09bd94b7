"""Stream-table lookup joins.

The paper's Figure-1 "Verify" query checks each measurement against the
``Specification`` state — a stream-table join.  :class:`TableLookupJoin`
enriches every stream tuple with the matching table row:

* when the operator shares the topology's transaction context, lookups run
  *inside the current stream transaction* — they see the transaction's own
  uncommitted writes and are isolated like every other read;
* without a context, each tuple is enriched from a fresh committed
  snapshot (the ad-hoc flavour).

``how="inner"`` drops tuples without a match, ``how="left"`` forwards them
with ``None`` as the joined row.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from ..errors import StreamError
from .operators import Operator
from .runtime import TransactionContext
from .tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import StreamManager


class TableLookupJoin(Operator):
    """Enrich stream tuples with rows of a transactional state."""

    def __init__(
        self,
        manager: "StreamManager",
        state_id: str,
        key_fn: Callable[[Any], Any],
        combine: Callable[[Any, Any], Any] | None = None,
        how: str = "inner",
        txn_context: TransactionContext | None = None,
        name: str = "",
    ) -> None:
        super().__init__(name or f"join:{state_id}")
        if how not in ("inner", "left"):
            raise StreamError(f"join 'how' must be 'inner' or 'left', got {how!r}")
        self.manager = manager
        self.state_id = state_id
        self.key_fn = key_fn
        self.combine = combine or (lambda payload, row: {"left": payload, "right": row})
        self.how = how
        self.txn_context = txn_context
        self.matched = 0
        self.unmatched = 0

    def _lookup(self, key: Any) -> Any | None:
        if self.txn_context is not None:
            txn = self.txn_context.ensure_begun()
            return self.manager.read(txn, self.state_id, key)
        with self.manager.snapshot() as view:
            return view.get(self.state_id, key)

    def on_tuple(self, tup: StreamTuple) -> None:
        row = self._lookup(self.key_fn(tup.payload))
        if row is None:
            self.unmatched += 1
            if self.how == "inner":
                return
        else:
            self.matched += 1
        self.publish(tup.with_payload(self.combine(tup.payload, row)))
