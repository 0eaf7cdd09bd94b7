"""Tests for MVCC objects: visibility, supersession, on-demand GC."""

import pytest

from repro.core.timestamps import INF_TS
from repro.core.version_store import MVCCObject, VersionEntry


class TestVersionEntry:
    def test_visibility_window(self):
        v = VersionEntry(cts=5, dts=10, value="x")
        assert not v.visible_at(4)
        assert v.visible_at(5)
        assert v.visible_at(9)
        assert not v.visible_at(10)

    def test_live_version_visible_forever(self):
        v = VersionEntry(cts=5, dts=INF_TS, value="x")
        assert v.is_live()
        assert v.visible_at(10**12)


class TestMVCCObject:
    def test_install_and_read(self):
        obj = MVCCObject()
        obj.install("v1", commit_ts=5, oldest_active=0)
        assert obj.read_at(4) is None
        assert obj.read_at(5).value == "v1"
        assert obj.read_at(100).value == "v1"

    def test_supersession_preserves_old_snapshot(self):
        obj = MVCCObject()
        obj.install("v1", 5, 0)
        obj.install("v2", 10, 0)
        assert obj.read_at(7).value == "v1"
        assert obj.read_at(10).value == "v2"
        assert obj.live_version().value == "v2"

    def test_at_most_one_visible_version(self):
        obj = MVCCObject()
        for ts in range(1, 6):
            obj.install(f"v{ts}", ts * 10, 0)
        for snapshot in range(0, 60):
            visible = [v for v in obj.versions() if v.visible_at(snapshot)]
            assert len(visible) <= 1

    def test_mark_deleted_hides_from_later_snapshots(self):
        obj = MVCCObject()
        obj.install("v1", 5, 0)
        obj.mark_deleted(8)
        assert obj.read_at(7).value == "v1"
        assert obj.read_at(8) is None
        assert obj.live_version() is None

    def test_latest_cts(self):
        obj = MVCCObject()
        assert obj.latest_cts() == 0
        obj.install("a", 3, 0)
        obj.install("b", 9, 0)
        assert obj.latest_cts() == 9

    def test_gc_on_demand_when_full(self):
        obj = MVCCObject(capacity=4)
        # Fill to capacity; old versions dead to oldest_active=100.
        for i in range(1, 5):
            obj.install(f"v{i}", i, oldest_active=0)
        assert obj.version_count() == 4
        # Next install triggers GC: versions with dts <= 100 are reclaimed.
        obj.install("v5", 200, oldest_active=100)
        assert obj.version_count() == 2  # v4 (dts=200) and v5
        assert obj.live_version().value == "v5"

    def test_grows_past_capacity_when_nothing_collectable(self):
        obj = MVCCObject(capacity=2)
        # oldest_active=0 pins everything: GC cannot reclaim.
        obj.install("v1", 1, 0)
        obj.install("v2", 2, 0)
        obj.install("v3", 3, 0)
        assert obj.version_count() == obj.capacity + 1
        # committed data is never lost:
        assert obj.read_at(1).value == "v1"
        assert obj.read_at(2).value == "v2"
        assert obj.read_at(3).value == "v3"

    def test_collect_shrinks_back_below_capacity(self):
        obj = MVCCObject(capacity=2)
        obj.install("v1", 1, 0)
        obj.install("v2", 2, 0)
        obj.install("v3", 3, 0)
        assert obj.version_count() > obj.capacity
        reclaimed = obj.collect(oldest_active=10)
        assert reclaimed == 2  # v1 (dts=2) and v2 (dts=3)
        assert obj.version_count() == 1
        assert obj.live_version().value == "v3"

    def test_collect_keeps_visible_version(self):
        obj = MVCCObject()
        obj.install("v1", 1, 0)
        obj.install("v2", 10, 0)
        # A snapshot at 5 still needs v1 (dts=10 > 5): not collectable.
        assert obj.collect(oldest_active=5) == 0
        assert obj.read_at(5).value == "v1"

    def test_collect_reclaims_dead_versions(self):
        obj = MVCCObject()
        obj.install("v1", 1, 0)
        obj.install("v2", 10, 0)
        assert obj.collect(oldest_active=10) == 1
        assert obj.read_at(10).value == "v2"

    def test_versions_sorted_newest_first(self):
        obj = MVCCObject()
        for ts in (3, 7, 5):
            obj.install(f"v{ts}", ts, 0)
        assert [v.cts for v in obj.versions()] == [7, 5, 3]

    def test_version_count(self):
        obj = MVCCObject()
        assert obj.version_count() == 0
        obj.install("a", 1, 0)
        obj.install("b", 2, 0)
        assert obj.version_count() == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MVCCObject(capacity=0)

    def test_gc_counter_increments(self):
        obj = MVCCObject(capacity=2)
        obj.install("v1", 1, 0)
        obj.install("v2", 2, 0)
        obj.collect(oldest_active=5)
        assert obj.gc_count == 1
