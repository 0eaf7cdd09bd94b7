"""Benchmark workload of the paper's evaluation (Section 5.1).

"As a benchmark, we use a scenario having one stream continuously writing
to two states and multiple ad-hoc queries reading from these states.  Both
are initialized with a table size of one million key-value pairs (4 Byte
key, 20 Byte value). During the experiments, we vary the number of parallel
ad-hoc queries and the contention rate using a Zipfian distribution."

This module turns that paragraph into code: a configuration object, the
two-state initialisation, and generators producing writer transactions
(one stream transaction = ``txn_length`` upserts split over both states)
and reader transactions (``txn_length`` point reads over both states) with
Zipfian-drawn keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from .zipf import ZipfianGenerator

#: The two state ids of the paper's micro benchmark.
STATE_A = "state_a"
STATE_B = "state_b"
GROUP_ID = "stream_query"


@dataclass
class WorkloadConfig:
    """Parameters of the Section-5 micro benchmark.

    Defaults mirror the paper: two states, 10-operation transactions,
    4-byte keys / 20-byte values.  ``table_size`` defaults to a laptop-scale
    100k (the paper used 1M on a 2-socket server); the shape of Figure 4 is
    insensitive to this because contention is governed by θ, not by table
    size: at high θ the hot keys are the same few whatever the table size,
    and at θ = 0 conflicts are rare at either size.
    """

    table_size: int = 100_000
    txn_length: int = 10
    theta: float = 0.0
    value_bytes: int = 20
    seed: int = 42
    states: tuple[str, str] = (STATE_A, STATE_B)

    def __post_init__(self) -> None:
        if self.table_size <= 0:
            raise ValueError(f"table_size must be positive: {self.table_size}")
        if self.txn_length <= 0:
            raise ValueError(f"txn_length must be positive: {self.txn_length}")


@dataclass
class Operation:
    """One step of a transaction script."""

    kind: str  # "read" | "write"
    state_id: str
    key: int
    value: Any = None


@dataclass
class TransactionScript:
    """A fully materialised transaction (sequence of operations)."""

    ops: list[Operation] = field(default_factory=list)

    def read_keys(self, state_id: str) -> list[int]:
        return [op.key for op in self.ops if op.kind == "read" and op.state_id == state_id]

    def write_keys(self, state_id: str) -> list[int]:
        return [op.key for op in self.ops if op.kind == "write" and op.state_id == state_id]

    def __len__(self) -> int:
        return len(self.ops)


def initial_rows(config: WorkloadConfig) -> list[tuple[int, bytes]]:
    """The 1M-row (by default scaled-down) initial table content."""
    rng = random.Random(config.seed)
    payload = bytes(rng.randrange(256) for _ in range(config.value_bytes))
    return [(key, payload) for key in range(config.table_size)]


class WorkloadGenerator:
    """Produces writer and reader transaction scripts with Zipfian keys."""

    def __init__(self, config: WorkloadConfig, seed_offset: int = 0) -> None:
        self.config = config
        seed = config.seed + seed_offset
        self._zipf = ZipfianGenerator(config.table_size, config.theta, seed=seed)
        self._rng = random.Random(seed ^ 0x5EED)
        self._counter = 0

    def _value(self) -> bytes:
        """A fresh value of the configured width (cheap, deterministic)."""
        self._counter += 1
        raw = self._counter.to_bytes(8, "little")
        reps = (self.config.value_bytes + len(raw) - 1) // len(raw)
        return (raw * reps)[: self.config.value_bytes]

    def writer_transaction(self) -> TransactionScript:
        """One stream transaction: ``txn_length`` upserts over both states.

        The stream "continuously writ[es] to two states": operations
        alternate between the two states so every transaction exercises the
        multi-state consistency protocol.
        """
        state_a, state_b = self.config.states
        script = TransactionScript()
        for i in range(self.config.txn_length):
            state = state_a if i % 2 == 0 else state_b
            script.ops.append(Operation("write", state, self._zipf.next(), self._value()))
        return script

    def reader_transaction(self) -> TransactionScript:
        """One ad-hoc query: ``txn_length`` point reads over both states."""
        state_a, state_b = self.config.states
        script = TransactionScript()
        for i in range(self.config.txn_length):
            state = state_a if i % 2 == 0 else state_b
            script.ops.append(Operation("read", state, self._zipf.next()))
        return script

    # ------------------------------------------------------ sharded scripts

    def single_shard_transaction(self, shard: int, num_shards: int) -> TransactionScript:
        """Writer transaction whose every key lives on ``shard``.

        Same shape as :meth:`writer_transaction` (upserts alternating over
        both states), with each Zipf-drawn key aligned to the home shard's
        residue class — the sharded fast-path workload.
        """
        state_a, state_b = self.config.states
        script = TransactionScript()
        for i in range(self.config.txn_length):
            state = state_a if i % 2 == 0 else state_b
            key = align_key_to_shard(
                self._zipf.next(), shard, num_shards, self.config.table_size
            )
            script.ops.append(Operation("write", state, key, self._value()))
        return script

    def cross_shard_transaction(
        self, shards: list[int], num_shards: int
    ) -> TransactionScript:
        """Writer transaction spreading its keys round-robin over ``shards``.

        Every listed shard receives at least one operation (for the usual
        ``txn_length >= len(shards)``), forcing the two-phase commit path.
        """
        state_a, state_b = self.config.states
        script = TransactionScript()
        for i in range(self.config.txn_length):
            state = state_a if i % 2 == 0 else state_b
            key = align_key_to_shard(
                self._zipf.next(), shards[i % len(shards)], num_shards,
                self.config.table_size,
            )
            script.ops.append(Operation("write", state, key, self._value()))
        return script

    def sharded_transaction(self, num_shards: int, cross_ratio: float) -> TransactionScript:
        """One writer transaction of the multi-shard contention scenario.

        With probability ``cross_ratio`` the transaction spans two distinct
        shards (two-phase commit path); otherwise it stays on a uniformly
        drawn home shard (fast path).
        """
        home = self._rng.randrange(num_shards) if num_shards > 1 else 0
        if num_shards > 1 and self._rng.random() < cross_ratio:
            other = (home + 1 + self._rng.randrange(num_shards - 1)) % num_shards
            return self.cross_shard_transaction([home, other], num_shards)
        return self.single_shard_transaction(home, num_shards)

    def mixed_transaction(self, write_fraction: float = 0.2) -> TransactionScript:
        """A read-modify-write mix (used by extension benchmarks)."""
        state_a, state_b = self.config.states
        script = TransactionScript()
        for i in range(self.config.txn_length):
            state = state_a if i % 2 == 0 else state_b
            key = self._zipf.next()
            if self._rng.random() < write_fraction:
                script.ops.append(Operation("write", state, key, self._value()))
            else:
                script.ops.append(Operation("read", state, key))
        return script


def align_key_to_shard(key: int, shard: int, num_shards: int, table_size: int) -> int:
    """Move ``key`` to the nearest key of ``shard``'s residue class.

    Sharded workloads need to *target* shards: under the uniform slot map
    the sharded manager routes integer keys exactly like ``key %
    num_shards`` for every power-of-two shard count (the slot space is a
    multiple — see :mod:`repro.core.slots`), so replacing a Zipf-drawn key
    with the closest key of the right residue class preserves the
    contention profile (hot keys stay hot) while pinning the operation to
    one shard.
    """
    if num_shards <= 1:
        return key
    aligned = (key // num_shards) * num_shards + shard
    if aligned >= table_size:
        aligned -= num_shards
    return aligned if aligned >= 0 else shard


def apply_script(manager: Any, txn: Any, script: TransactionScript) -> int:
    """Execute a script against a live transaction; returns reads done."""
    reads = 0
    for op in script.ops:
        if op.kind == "read":
            manager.read(txn, op.state_id, op.key)
            reads += 1
        else:
            manager.write(txn, op.state_id, op.key, op.value)
    return reads
