"""Tests for the timestamp oracle."""

import threading

import pytest

from repro.core.timestamps import INF_TS, ZERO_TS, TimestampOracle


class TestTimestampOracle:
    def test_starts_at_one(self):
        oracle = TimestampOracle()
        assert oracle.next() == 1

    def test_strictly_increasing(self):
        oracle = TimestampOracle()
        values = [oracle.next() for _ in range(100)]
        assert values == sorted(values)
        assert len(set(values)) == 100

    def test_current_does_not_advance(self):
        oracle = TimestampOracle()
        oracle.next()
        assert oracle.current() == 1
        assert oracle.current() == 1

    def test_advance_to_forward_only(self):
        oracle = TimestampOracle()
        oracle.advance_to(50)
        assert oracle.current() == 50
        oracle.advance_to(10)  # never moves backwards
        assert oracle.current() == 50
        assert oracle.next() == 51

    def test_custom_start(self):
        oracle = TimestampOracle(start=99)
        assert oracle.next() == 100

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            TimestampOracle(start=-1)

    def test_thread_safety_no_duplicates(self):
        oracle = TimestampOracle()
        results: list[int] = []
        lock = threading.Lock()

        def worker():
            local = [oracle.next() for _ in range(500)]
            with lock:
                results.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4000
        assert len(set(results)) == 4000

    def test_inf_ts_larger_than_any_issued(self):
        oracle = TimestampOracle()
        for _ in range(1000):
            assert oracle.next() < INF_TS
        assert ZERO_TS < 1
