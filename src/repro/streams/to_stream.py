"""TO_STREAM: produce a stream of tuples from a (transactional) table.

The paper: "Whenever a certain condition on a table is fulfilled, TO_STREAM
is executed and emits a new (set of) tuple(s) to a stream."  Two trigger
policies are named in Section 3 — per tuple modification or per transaction
commit — and both are implemented here:

* ``ON_COMMIT`` (default) — when a COMMIT punctuation passes by (i.e. the
  group commit already completed, because upstream ``TO_TABLE`` votes before
  forwarding), read the affected keys *from a fresh committed snapshot* and
  emit them.  Emits only committed data: this realises the "rely on
  transaction commits" trigger/isolation combination.
* ``ON_TUPLE`` — emit on every modification flowing past, before it commits
  (the "each tuple modification" policy; a read-uncommitted-style visibility
  that downstream consumers may explicitly opt into).

``emit="delta"`` emits only the keys changed since the last trigger;
``emit="full"`` emits the whole table snapshot (the RStream-like mode).
An optional ``condition`` predicate over the snapshot gates emission.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from typing import TYPE_CHECKING, Any

from ..errors import StreamError
from .operators import Operator
from .punctuations import Punctuation, PunctuationKind
from .tuples import StreamTuple, TupleOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import StreamManager


class TriggerPolicy(Enum):
    """When TO_STREAM fires (paper Section 3, "trigger policy")."""

    ON_COMMIT = "on-commit"
    ON_TUPLE = "on-tuple"


class ToStream(Operator):
    """Table-to-stream linking operator (paper Section 3, Figure 2)."""

    def __init__(
        self,
        manager: "StreamManager",
        state_id: str,
        trigger: TriggerPolicy = TriggerPolicy.ON_COMMIT,
        emit: str = "delta",
        condition: Callable[[dict[Any, Any]], bool] | None = None,
        name: str = "",
    ) -> None:
        super().__init__(name or f"to_stream:{state_id}")
        if emit not in ("delta", "full"):
            raise StreamError(f"emit must be 'delta' or 'full', got {emit!r}")
        self.manager = manager
        self.state_id = state_id
        self.trigger = trigger
        self.emit = emit
        self.condition = condition
        #: keys touched since the last trigger (delta mode).
        self._dirty_keys: list[Any] = []
        self.emissions = 0

    # ------------------------------------------------------------ data path

    def on_tuple(self, tup: StreamTuple) -> None:
        if self.trigger is TriggerPolicy.ON_TUPLE:
            # per-modification trigger: forward the (uncommitted) change.
            self.emissions += 1
            self.publish(tup)
            return
        if tup.key is not None:
            self._dirty_keys.append(tup.key)
        # ON_COMMIT swallows raw modifications; emission happens at commit.

    def on_punctuation(self, punctuation: Punctuation) -> None:
        if self.trigger is TriggerPolicy.ON_COMMIT:
            if punctuation.kind is PunctuationKind.COMMIT or (
                # EOS flushes only when modifications are still pending
                # (an open transaction just committed via EOS upstream).
                punctuation.kind is PunctuationKind.EOS and self._dirty_keys
            ):
                self._emit_committed(punctuation.timestamp)
        self.publish(punctuation)

    # ------------------------------------------------------------- emission

    def _emit_committed(self, timestamp: int) -> None:
        """Read committed values under one snapshot and emit them."""
        dirty = self._dirty_keys
        self._dirty_keys = []
        with self.manager.snapshot() as view:
            if self.emit == "full":
                rows = dict(view.scan(self.state_id))
            else:
                seen: set[Any] = set()
                rows = {}
                for key in dirty:
                    if key in seen:
                        continue
                    seen.add(key)
                    rows[key] = view.get(self.state_id, key)
            if self.condition is not None and not self.condition(rows):
                return
            for key, value in rows.items():
                self.emissions += 1
                if value is None:
                    self.publish(StreamTuple({}, timestamp, key, TupleOp.DELETE))
                else:
                    self.publish(StreamTuple(value, timestamp, key, TupleOp.UPSERT))
