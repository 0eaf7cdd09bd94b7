"""Slot-map key routing: the indirection that makes shards elastic.

Direct modulo routing (``shard = key % num_shards``) freezes the shard
count forever: changing ``N`` re-routes almost every key at once, so
shards can never split or merge online.  The classic fix (Redis Cluster
hash slots, Couchbase vBuckets) inserts a small fixed **slot space**
between keys and shards:

* every key hashes to one of :data:`NUM_SLOTS` slots — a pure function of
  the key, stable forever;
* a :class:`SlotMap` assigns each slot to a shard — a tiny mutable table
  that can be persisted, diffed and flipped atomically.

Moving a slot from one shard to another relocates exactly that slot's
keys; every other key keeps its placement.  The map carries an ``epoch``
(bumped on every flip) so in-flight transactions can detect that their
buffered routing went stale and restart against the new owner.

Key identity.  Per-shard tables are dict-like: **equal keys are one
key**.  Python's numeric tower makes ``2 == 2.0 == Decimal(2) == True+1``
(and ``hash`` agrees), so routing must agree too — any numeric key whose
value is integral routes by that integer value.  (The pre-slot-map code
routed ``2`` by ``key % N`` but ``2.0`` by ``crc32(repr(key))``, silently
forking one logical key's version history across two shards.)

Integers map onto slots by value (``key % NUM_SLOTS``): under the uniform
map this coincides with plain ``key % num_shards`` for every shard count
dividing the slot space (all powers of two up to 256 — every
configuration the benchmarks use), preserving the residue-class shard
targeting the workload generators rely on.  Everything else hashes
through CRC-32 of its ``repr`` (stable across processes, unlike builtin
``hash``).
"""

from __future__ import annotations

import zlib
from typing import Any

#: Size of the fixed slot space.  256 slots bound migration granularity to
#: ~0.4% of the key space per slot while keeping the persisted map tiny
#: (one JSON int per slot); a power of two so every power-of-two shard
#: count divides it evenly.
NUM_SLOTS = 256


def integral_key(key: Any) -> int | None:
    """The integer a numeric key is *equal* to, or ``None``.

    ``2``, ``2.0``, ``True + 1``, ``Decimal(2)`` and ``Fraction(2, 1)``
    are all the same dict key (``==`` and ``hash`` agree across the
    numeric tower), so they must be the same routing key.  Non-integral
    and non-numeric values — including ``nan``/``inf``, whose ``int()``
    conversion raises — return ``None`` and route by ``repr`` instead.
    """
    if isinstance(key, int):  # covers bool: True routes like 1
        return key
    if isinstance(key, float):
        return int(key) if key.is_integer() else None
    if isinstance(key, complex):
        return integral_key(key.real) if key.imag == 0 else None
    try:
        as_int = int(key)
    except (TypeError, ValueError, ArithmeticError):
        return None
    try:
        return as_int if key == as_int else None
    except TypeError:  # pragma: no cover - exotic __eq__
        return None


def slot_of_key(key: Any, num_slots: int = NUM_SLOTS) -> int:
    """Stable slot assignment for ``key`` — the permanent half of routing.

    Python's ``%`` with a positive modulus always lands in
    ``[0, num_slots)`` (e.g. ``-1 % 256 == 255``), so the full integer
    domain — negative keys included — is covered by construction.
    """
    value = integral_key(key)
    if value is not None:
        return value % num_slots
    return zlib.crc32(repr(key).encode()) % num_slots


class SlotFlip:
    """One durable slot-map transition (the migration commit point).

    ``moves`` maps each migrated slot to its new owner shard.  Flips are
    totally ordered by ``epoch``; recovery applies every flip newer than
    the persisted schema's epoch (the schema may lag: the flip record
    becomes durable in the coordinator log *before* ``schema.json`` is
    rewritten, and a crash in between must still resolve post-flip).
    """

    __slots__ = ("epoch", "moves")

    def __init__(self, epoch: int, moves: dict[int, int]) -> None:
        self.epoch = epoch
        self.moves = dict(moves)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SlotFlip)
            and other.epoch == self.epoch
            and other.moves == self.moves
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SlotFlip(epoch={self.epoch}, moves={len(self.moves)} slot(s))"


class SlotMap:
    """Immutable slot -> shard assignment with a flip epoch.

    Treated as a value: migrations build the successor with
    :meth:`apply` and swap the manager's reference in one assignment (an
    atomic pointer store under the GIL), so routing readers never see a
    half-updated table.
    """

    __slots__ = ("slots", "epoch")

    def __init__(self, slots: list[int], epoch: int = 0) -> None:
        if not slots:
            raise ValueError("slot map needs at least one slot")
        self.slots = tuple(slots)
        self.epoch = epoch

    @classmethod
    def uniform(cls, num_shards: int, num_slots: int = NUM_SLOTS) -> "SlotMap":
        """The round-robin default: slot ``s`` lives on shard ``s % N``.

        For shard counts dividing ``num_slots`` this composes with
        :func:`slot_of_key` to exactly the historical ``key % num_shards``
        integer routing.
        """
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive: {num_shards}")
        if num_shards > num_slots:
            # With more shards than slots some shards could never receive
            # a key — they would silently burn threads and WAL daemons at
            # zero capacity.  (The old modulo routing used every shard;
            # anyone genuinely at this scale needs a bigger slot space.)
            raise ValueError(
                f"num_shards ({num_shards}) exceeds the slot space "
                f"({num_slots}): shards beyond slot count would be "
                "unreachable"
            )
        return cls([s % num_shards for s in range(num_slots)], epoch=0)

    @property
    def num_slots(self) -> int:
        return len(self.slots)

    def shard_of(self, key: Any) -> int:
        return self.slots[slot_of_key(key, len(self.slots))]

    def owner(self, slot: int) -> int:
        return self.slots[slot]

    def slots_of(self, shard: int) -> list[int]:
        """Ascending slot indices currently owned by ``shard``."""
        return [s for s, owner in enumerate(self.slots) if owner == shard]

    def num_shards(self) -> int:
        """Smallest shard count covering every assignment."""
        return max(self.slots) + 1

    def apply(self, flip: SlotFlip) -> "SlotMap":
        """The successor map after ``flip`` (validates slot indices)."""
        slots = list(self.slots)
        for slot, shard in flip.moves.items():
            if not 0 <= slot < len(slots):
                raise ValueError(
                    f"flip epoch {flip.epoch} moves unknown slot {slot} "
                    f"(map has {len(slots)})"
                )
            slots[slot] = shard
        return SlotMap(slots, epoch=flip.epoch)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SlotMap)
            and other.slots == self.slots
            and other.epoch == self.epoch
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SlotMap(slots={len(self.slots)}, shards={self.num_shards()}, "
            f"epoch={self.epoch})"
        )
