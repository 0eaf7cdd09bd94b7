"""FROM: the ad-hoc query operator over tables and streams.

Section 3: FROM "either attach[es] to a stream, i.e., read all tuples of
the stream starting at the point of attachment, or ... read[s] data of a
table."  Both flavours are provided:

* :func:`from_table` / :class:`TableScanSource` — one-shot snapshot read of
  a table under full snapshot isolation (the paper's snapshot reports);
* :class:`StreamTap` — attach to a live operator's output and collect every
  tuple from the attachment point on.

Ad-hoc *transactions* over several states go through the manager's
``snapshot()`` (single-site or sharded), which these helpers use
internally, so the consistency protocol's multi-state guarantees apply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .operators import Operator
from .tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import StreamManager


def from_table(
    manager: "StreamManager",
    state_id: str,
    low: Any = None,
    high: Any = None,
) -> list[tuple[Any, Any]]:
    """Snapshot read of a table's (key, value) pairs — FROM (Table)."""
    with manager.snapshot() as view:
        return list(view.scan(state_id, low, high))


def from_tables(
    manager: "StreamManager", state_ids: list[str], key: Any
) -> dict[str, Any]:
    """Read one key from several states under a *single* snapshot.

    The multi-state consistency check: for states written together this
    never returns a mix of two different commits.
    """
    with manager.snapshot() as view:
        return view.multi_get(state_ids, key)


class TableScanSource(Operator):
    """Push a table snapshot into a dataflow — FROM (Table) as a source."""

    def __init__(
        self,
        manager: "StreamManager",
        state_id: str,
        name: str = "",
    ) -> None:
        super().__init__(name or f"from:{state_id}")
        self.manager = manager
        self.state_id = state_id

    def run(self) -> int:
        """Emit the current committed snapshot; returns tuple count."""
        count = 0
        for key, value in from_table(self.manager, self.state_id):
            self.publish(StreamTuple(value, key=key))
            count += 1
        return count


class StreamTap(Operator):
    """Attach to a running stream at the point of attachment — FROM (Stream).

    Collects everything published by the tapped operator *after*
    :meth:`attach` was called; earlier tuples are, by definition of the
    FROM semantics, not observed.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__(name or "stream_tap")
        self.collected: list[StreamTuple] = []
        self._attached_to: Operator | None = None

    def attach(self, upstream: Operator) -> "StreamTap":
        upstream.subscribe(self)
        self._attached_to = upstream
        return self

    def on_tuple(self, tup: StreamTuple) -> None:
        self.collected.append(tup)
        self.publish(tup)

    def payloads(self) -> list[Any]:
        return [t.payload for t in self.collected]
