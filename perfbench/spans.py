"""Span recorder for the traced run, attached to the engine from outside.

``LayerTracer.install`` replaces the public functions named in ``WRAPS``
with wrappers that record a span per call — name, start, duration, self
time, parent span name and thread — and ``uninstall`` puts the originals
back, so untraced phases run the engine's own code.  Class attributes
are patched, so calls made on the engine's daemon threads (group fsync,
replication, checkpoint and maintenance) are recorded too.

Self time is a span's duration minus the durations of its child spans on
the same thread.  A generator function gets one span per generator that
sums the time spent inside ``next()``; its yields are counted.

Aggregates (calls, total and self seconds per span name, and per
``(name, parent)``) are kept per thread and summed on read; the first
``MAX_SPANS`` raw spans are kept in memory and written out by ``write``
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

MAX_SPANS = 200_000

#: (module, attribute path, span name, kind).  ``kind`` is ``call`` (one
#: span per call), ``gen`` (generator function), ``iter`` (a call span
#: plus a ``<name>_merge`` span over the iterator it returns),
#: ``wal_append`` or ``sstable_write`` (a call span that also counts
#: bytes, see the methods of the same name).
WRAPS: list[tuple[str, str, str, str]] = [
    ("repro.streams.topology", "Topology.push", "streams.push", "call"),
    ("repro.streams.to_table", "ToTable.on_tuple", "streams.to_table_write", "call"),
    ("repro.core.manager", "TransactionManager.commit_state", "group_commit.vote", "call"),
    ("repro.core.protocol", "ConcurrencyControl.commit_transaction", "protocol.commit", "call"),
    ("repro.core.protocol", "ConcurrencyControl.commit_prepared", "protocol.commit", "call"),
    ("repro.core.mvcc", "MVCCProtocol.prepare_transaction", "protocol.commit", "call"),
    ("repro.core.mvcc", "MVCCProtocol.read", "protocol.read", "call"),
    ("repro.core.table", "StateTable.hydrate_many", "table.hydrate", "call"),
    ("repro.core.table", "StateTable._hydrate", "table.hydrate", "call"),
    ("repro.core.table", "StateTable.scan_at", "table.scan", "gen"),
    ("repro.core.gc", "GarbageCollector.sweep", "gc.sweep", "call"),
    ("repro.core.sharding", "ShardedTransactionManager.commit", "sharding.commit", "call"),
    ("repro.core.sharding", "ShardedTransactionManager.read", "sharding.read", "call"),
    ("repro.core.sharding", "ShardedTransactionManager.read_many", "sharding.read", "call"),
    ("repro.core.sharding", "ShardedTransactionManager.scan", "sharding.scan", "iter"),
    ("repro.core.sharding", "ShardedTransactionManager.checkpoint_shard", "checkpoint.cut",
     "call"),
    ("repro.core.sharding", "ShardedTransactionManager.open", "recovery.open", "call"),
    ("repro.core.durability", "DurabilityTicket.wait", "durability.wait", "call"),
    ("repro.core.durability", "encode_commit_body", "durability.encode", "call"),
    ("repro.core.durability", "GroupFsyncDaemon.await_replica_quorum", "replication.ack_wait",
     "call"),
    ("repro.core.replication", "ShardReplica.append_batch", "replication.apply", "call"),
    ("repro.core.replication", "ShardReplica.apply_batch", "replication.apply", "call"),
    ("repro.storage.wal", "WriteAheadLog.append_many", "wal.append", "wal_append"),
    ("repro.storage.wal", "WriteAheadLog.sync", "wal.sync", "call"),
    ("os", "fsync", "os.fsync", "call"),
    ("repro.storage.lsm", "LSMStore.get", "lsm.get", "call"),
    ("repro.storage.lsm", "LSMStore.multi_get", "lsm.get", "call"),
    ("repro.storage.lsm", "LSMStore.scan", "lsm.scan", "gen"),
    ("repro.storage.lsm", "LSMStore.maintenance_flush", "maintenance.flush", "call"),
    ("repro.storage.lsm", "LSMStore.compact_level", "maintenance.compact", "call"),
    ("repro.storage.sstable", "SSTableWriter.write", "sstable.write", "sstable_write"),
]

#: Commit WALs are named ``shard-NN/commit.wal`` by the sharded manager.
COMMIT_WAL_NAME = "commit.wal"
#: Frame header of one WAL record (crc32, length, kind): ``<IIB``.
WAL_FRAME_HEADER = 9


class _Aggregates:
    """One thread's span and count totals (read by the main thread)."""

    def __init__(self) -> None:
        self.agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.by_parent: dict[tuple[str, str], list[float]] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        self.counts: dict[str, float] = defaultdict(float)


class _ThreadState(threading.local):
    """Per-thread span stack plus that thread's registered aggregates."""

    def __init__(self, registry: list[_Aggregates]) -> None:
        self.stack: list[list] = []
        self.data = _Aggregates()
        registry.append(self.data)


class LayerTracer:
    """Records spans at the engine's layer boundaries while installed."""

    def __init__(self) -> None:
        self._threads: list[_Aggregates] = []
        self._local = _ThreadState(self._threads)
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self.spans: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        stack = self._local.stack
        span = [name, stack[-1] if stack else None, 0.0, time.perf_counter()]
        stack.append(span)
        return span

    def _exit(self, span: list, busy: float | None = None) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        state = self._local.data
        duration = end - span[3] if busy is None else busy
        parent = span[1]
        if parent is not None:
            parent[2] += duration
        self_time = duration - span[2]
        name = span[0]
        parent_name = parent[0] if parent is not None else ""
        agg = state.agg[name]
        agg[0] += 1
        agg[1] += duration
        agg[2] += self_time
        pagg = state.by_parent[(name, parent_name)]
        pagg[0] += 1
        pagg[1] += duration
        pagg[2] += self_time
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (name, span[3], duration, self_time, parent_name, threading.get_ident())
            )

    def count(self, name: str, amount: float = 1) -> None:
        self._local.data.counts[name] += amount

    def _call(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)

        return wrapper

    def _traced_iter(self, it, name: str):
        """Drive ``it`` with one span whose busy time sums every step."""
        busy = 0.0
        span = None
        while True:
            if span is None:
                span = self._enter(name)
            else:
                self._local.stack.append(span)
            t0 = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                busy += time.perf_counter() - t0
                self._exit(span, busy)
                return
            except BaseException:
                busy += time.perf_counter() - t0
                self._exit(span, busy)
                raise
            busy += time.perf_counter() - t0
            self._local.stack.pop()
            self.count(f"{name}.yields")
            yield item

    def _gen(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._traced_iter(iter(fn(*args, **kwargs)), name)

        return wrapper

    def _iter(self, fn: Callable, name: str) -> Callable:
        call = self._call(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._traced_iter(iter(call(*args, **kwargs)), f"{name}_merge")

        return wrapper

    def _wal_append(self, fn: Callable, name: str) -> Callable:
        """Span per batch; commit-WAL record bytes counted on the way in."""
        call = self._call(fn, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(wal, records, *args, **kwargs):
            if wal.path.name != COMMIT_WAL_NAME:
                return call(wal, records, *args, **kwargs)

            def counted():
                for kind, payload in records:
                    tracer.count("wal.commit_bytes", WAL_FRAME_HEADER + len(payload))
                    yield kind, payload

            return call(wal, counted(), *args, **kwargs)

        return wrapper

    def _sstable_write(self, fn: Callable, name: str) -> Callable:
        """Span per SSTable; bytes written, split by the calling layer."""
        call = self._call(fn, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(writer, *args, **kwargs):
            stack = tracer._local.stack
            parent = stack[-1][0] if stack else ""
            table = call(writer, *args, **kwargs)
            size = os.path.getsize(writer.path)
            key = "compaction" if parent == "maintenance.compact" else "flush"
            tracer.count(f"sstable.{key}_bytes", size)
            return table

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        makers = {
            "call": self._call,
            "gen": self._gen,
            "iter": self._iter,
            "wal_append": self._wal_append,
            "sstable_write": self._sstable_write,
        }
        for module_name, path, name, kind in WRAPS:
            module = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            make = makers[kind]
            if inspect.ismodule(owner):
                # A module-level function: patch its home module and every
                # engine module that imported it by name.
                original = getattr(owner, attr)
                wrapped = make(original, name)
                importers = [
                    mod for mod in list(sys.modules.values())
                    if getattr(mod, "__name__", "").startswith("repro.")
                    and mod is not owner and getattr(mod, attr, None) is original
                ]
                for mod in [owner, *importers]:
                    self._patch(mod, attr, wrapped)
                continue
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(make(raw.__func__, name))
            else:
                fn = getattr(owner, attr)
                if kind == "call" and inspect.isgeneratorfunction(fn):
                    raise TypeError(f"{path} is a generator; wrap it as 'gen'")
                wrapped = make(fn, name)
            self._patch(owner, attr, wrapped)

    def _patch(self, owner: Any, attr: str, wrapped: Any) -> None:
        # A class may inherit the attribute; uninstall then deletes the
        # override instead of pinning the inherited function on the class.
        owned = not isinstance(owner, type) or attr in owner.__dict__
        original = owner.__dict__[attr] if owned else None
        self._patches.append((owner, attr, original, owned))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def reset(self) -> None:
        for state in list(self._threads):
            state.agg.clear()
            state.by_parent.clear()
            state.counts.clear()
        self.spans.clear()

    def _sum(self, table: str, key: Any) -> list[float]:
        total = [0, 0.0, 0.0]
        for state in list(self._threads):
            entry = getattr(state, table).get(key)
            if entry is not None:
                for i in range(3):
                    total[i] += entry[i]
        return total

    def total_seconds(self, name: str) -> float:
        return self._sum("agg", name)[1]

    def self_seconds(self, name: str) -> float:
        return self._sum("agg", name)[2]

    def counted(self, name: str) -> float:
        return sum(state.counts.get(name, 0) for state in list(self._threads))

    def mean_us(self, name: str) -> float:
        calls, total, _ = self._sum("agg", name)
        return total / calls * 1e6 if calls else 0.0

    def self_mean_us(self, name: str) -> float:
        calls, _, self_time = self._sum("agg", name)
        return self_time / calls * 1e6 if calls else 0.0

    def layer_metrics(self, before: dict, after: dict, samples: Any, queries: int) -> dict:
        """Every per-layer metric of ``BENCHMARK.json`` for the traced
        phase; ``before`` and ``after`` are ``workloads.engine_counters``
        read around it."""
        delta = {key: after[key] - before[key] for key in after}

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        wal_fsyncs = [
            self._sum("by_parent", ("os.fsync", parent))
            for parent in ("wal.append", "wal.sync")
        ]
        fsync_calls = sum(entry[0] for entry in wal_fsyncs)
        fsync_time = sum(entry[1] for entry in wal_fsyncs)
        flush_bytes = self.counted("sstable.flush_bytes")
        commits = len(samples.txn)
        values = {
            "streams.push_self_us": (self.self_mean_us("streams.push"), "us"),
            "streams.to_table_write_us": (self.mean_us("streams.to_table_write"), "us"),
            "group_commit.vote_us": (self.self_mean_us("group_commit.vote"), "us"),
            "protocol.commit_us": (
                ratio(self.self_seconds("protocol.commit"), delta["commits"]) * 1e6,
                "us",
            ),
            "protocol.read_us": (self.mean_us("protocol.read"), "us"),
            "protocol.abort_ratio": (
                ratio(delta["aborts"],
                      delta["commits"] + delta["aborts"]),
                "ratio",
            ),
            "table.hydrate_us": (self.mean_us("table.hydrate"), "us"),
            "table.hydrations_per_query": (ratio(delta["hydrations"], queries), "count"),
            "table.evictions_per_query": (ratio(delta["residency_evictions"], queries), "count"),
            "table.scan_us": (self.mean_us("table.scan"), "us"),
            "table.scan_rows_examined_per_row": (
                ratio(self.counted("lsm.scan.yields"), self.counted("table.scan.yields")),
                "ratio",
            ),
            "gc.sweep_us": (self.mean_us("gc.sweep"), "us"),
            "gc.versions_reclaimed_per_commit": (
                ratio(delta["gc_reclaimed"], commits), "count"
            ),
            "sharding.commit_self_us": (self.self_mean_us("sharding.commit"), "us"),
            "sharding.read_self_us": (self.self_mean_us("sharding.read"), "us"),
            "sharding.scan_merge_us": (self.mean_us("sharding.scan_merge"), "us"),
            "sharding.cross_shard_share": (
                ratio(delta["cross_shard_commits"],
                      delta["cross_shard_commits"] + delta["single_shard_commits"]),
                "ratio",
            ),
            "snapshot.barrier_slow_path_share": (
                ratio(delta["barrier_slow_path"],
                      delta["barrier_slow_path"] + delta["barrier_fast_path"]),
                "ratio",
            ),
            "durability.wait_us": (self.mean_us("durability.wait"), "us"),
            "durability.records_per_fsync": (
                ratio(delta["durable_records"], delta["fsync_batches"]), "count"
            ),
            "durability.encode_us": (self.mean_us("durability.encode"), "us"),
            "durability.wal_bytes_per_row": (
                ratio(self.counted("wal.commit_bytes"), samples.rows), "B"
            ),
            "wal.append_us": (self.mean_us("wal.append"), "us"),
            "wal.sync_us": (ratio(fsync_time, fsync_calls) * 1e6, "us"),
            "replication.ack_wait_us": (self.mean_us("replication.ack_wait"), "us"),
            "replication.apply_us": (self.mean_us("replication.apply"), "us"),
            "replication.records_per_batch": (
                ratio(delta["records_shipped"], delta["batches_shipped"]), "count"
            ),
            "lsm.get_us": (self.mean_us("lsm.get"), "us"),
            "lsm.sstable_reads_per_get": (
                ratio(delta["lsm_sstable_reads"], delta["lsm_gets"]), "count"
            ),
            "lsm.cache_hit_ratio": (
                ratio(delta["lsm_cache_hits"],
                      delta["lsm_cache_hits"] + delta["lsm_cache_misses"]),
                "ratio",
            ),
            "lsm.bloom_skip_ratio": (
                ratio(delta["lsm_bloom_skips"],
                      delta["lsm_bloom_skips"] + delta["lsm_sstable_reads"]),
                "ratio",
            ),
            "lsm.write_amp": (
                ratio(flush_bytes + self.counted("sstable.compaction_bytes"), flush_bytes),
                "ratio",
            ),
            "lsm.flushes": (delta["lsm_flushes"], "count"),
            "lsm.compactions": (delta["lsm_compactions"], "count"),
            "lsm.stall_s": (delta["lsm_stall_seconds"], "s"),
            "maintenance.busy_s": (
                self.total_seconds("maintenance.flush")
                + self.total_seconds("maintenance.compact"),
                "s",
            ),
            "checkpoint.cuts": (delta["background_checkpoints"], "count"),
            "checkpoint.cut_us": (self.mean_us("checkpoint.cut"), "us"),
        }
        return values

    def write(self, path: Path) -> None:
        """Write the recorded spans as tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_s\tduration_us\tself_us\tparent\tthread\n")
            for name, start, duration, self_time, parent, thread in self.spans:
                out.write(
                    f"{name}\t{start:.6f}\t{duration * 1e6:.1f}\t"
                    f"{self_time * 1e6:.1f}\t{parent}\t{thread}\n"
                )
