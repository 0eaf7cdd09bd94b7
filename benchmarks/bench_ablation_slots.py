"""Ablation A1: version-array slot count (design choice, paper §4.1).

The paper fixes the per-key version array to a 64-bit-word width and
garbage-collects on demand when it is full.  Here the width is an
``MVCCObject``'s ``capacity``: the version count at which an install runs
on-demand GC, past which the list grows when nothing is collectable.  This
ablation measures, on the real (non-simulated) data structures, how the
slot count trades install cost (GC frequency) against snapshot-read cost
on a hot key under an update-heavy workload with a lagging reader.

Run:  pytest benchmarks/bench_ablation_slots.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.core.version_store import MVCCObject

UPDATES = 2_000


def hot_key_updates(slots: int) -> MVCCObject:
    """Install UPDATES versions with a reader pinned ~8 versions back."""
    obj = MVCCObject(capacity=slots)
    for ts in range(1, UPDATES + 1):
        oldest_active = max(0, ts - 8)  # lagging snapshot
        obj.install(f"v{ts}", ts, oldest_active)
    return obj


@pytest.mark.benchmark(group="ablation-slots")
@pytest.mark.parametrize("slots", [2, 4, 8, 16])
def test_install_throughput_by_slot_count(benchmark, slots):
    obj = benchmark(hot_key_updates, slots)
    # correctness invariant regardless of slot count: newest version wins
    assert obj.live_version().value == f"v{UPDATES}"
    # the 8-versions-back snapshot keeps ~9 versions alive, so 16 slots
    # never grow past capacity while 2-slot lists must
    if slots >= 16:
        assert obj.version_count() <= obj.capacity
    if slots == 2:
        assert obj.version_count() > obj.capacity


@pytest.mark.benchmark(group="ablation-slots")
@pytest.mark.parametrize("slots", [2, 8, 16])
def test_snapshot_read_cost_by_slot_count(benchmark, slots):
    obj = hot_key_updates(slots)
    target = UPDATES - 4

    def read_old_snapshot():
        version = obj.read_at(target)
        assert version is not None
        return version

    benchmark(read_old_snapshot)
