"""The transactional table wrapper (paper Figure 3, left-hand side).

A :class:`StateTable` wraps **any** key-value backend (the paper: "any
existing backend structure with a key-value mapping can be used") and adds
the multi-version index: every key maps to an
:class:`~repro.core.version_store.MVCCObject`.

Division of labour:

* the **version index** (in memory, volatile) answers snapshot reads and
  holds recent history;
* the **base table** (the pluggable backend, e.g. the LSM store) always
  holds the *newest committed* value per key and provides persistence; the
  commit path pushes each commit's changes into it as one atomic, synced
  batch ("the changes are populated atomically and isolated into the base
  table").

On restart the version index is rebuilt from the base table with a single
bootstrap version per key (commit timestamp = the group's recovered
``LastCTS``), which restores exactly the view of the last completed commit.

Residency modes
---------------

``residency="full"`` (the default) keeps that contract: open scans the
whole base table into the version index, so the dataset is capped by RAM
and ``open()`` is O(data).  ``residency="lazy"`` inverts it — the index
starts (nearly) empty and each key moves through a small state machine:

* **cold** — no index entry; the authoritative newest-committed value
  lives only in the base table.  A point read that misses the index
  *faults the row in*: one bloom-gated ``backend.get`` (true misses are
  absorbed by the LSM's negative cache), then
  :meth:`MVCCObject.install_bootstrap` under the key's latch installs the
  value as a bootstrap version stamped with the table's
  :attr:`bootstrap_cts` (the recovered checkpoint ``LastCTS``).  The
  install is idempotent and racing-writer-safe: it no-ops the moment any
  committed version exists, and a committed delete that beat the fault-in
  leaves the bootstrap entry already-superseded instead of resurrected.
* **resident** — the key behaves exactly like full residency: reads hit
  the version array, commits supersede it, GC prunes it.  A commit
  writes its values through to the base table under the commit latch,
  so each committed version is *clean* (the base table holds exactly
  it) from the moment it is installed.
* **evicted (cold again)** — when the index exceeds the residency budget,
  a clock/second-chance sweep drops arrays whose only version not yet
  dead at the GC horizon is clean, live and itself at or below the
  horizon — a bootstrap entry or a written-through commit alike.  Every
  snapshot that can still read the key then reads that value, which is
  what the base table holds.  Eviction removes the index entry only —
  never the backend row — so the next read faults the value back in,
  stamped with ``bootstrap_cts`` (hence no sweep while ``bootstrap_cts``
  is above the horizon).  The sweep frees never-written arrays first
  and falls back to written ones only when that cannot reach the
  budget.  A write to a cold key needs no fault-in for
  First-Committer-Wins: its newest commit is at or below the horizon,
  so no live snapshot can have missed it.  Bulk sweeps run on the
  :class:`~repro.storage.maintenance.StorageMaintenanceDaemon`; the
  faulting reader only pays a bounded inline backstop that keeps the
  resident count at the budget plus the keys written since the last
  fault-in.

Range scans in lazy mode merge the resident index with a base-table scan
(cold rows are visible iff the snapshot is at or above
``bootstrap_cts``), so consistent scatter-gather scans still see one
capped, sorted vector per shard.  When the key codec preserves order (the
default :class:`~repro.core.codecs.OrderedKeyCodec` does, as do
``IntCodec``, ``StrCodec`` and ``BytesCodec``) the base-table scan reads
only the encoded ``[low, high)`` range plus the codec's unordered region;
a codec that cannot encode the bounds (pickle, JSON) sweeps the whole
partition.  Either way every row is re-checked against the bounds in
Python, so the result does not depend on the codec.

Full residency scans bisect ``low`` and ``high`` in a sorted key list that
the table caches and rebuilds only when the index's key set changes.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Iterator
from itertools import chain
from typing import Any

from collections.abc import Callable, Hashable, Iterable

from ..storage.kvstore import KVStore, MemoryKVStore
from .codecs import ORDERED_KEY_CODEC, PICKLE_CODEC, Codec
from .indexes import IndexSet, SecondaryIndex
from .timestamps import ZERO_TS
from .version_store import DEFAULT_SLOTS, MVCCObject, VersionEntry
from .write_set import WriteKind, WriteSet

#: Residency modes: ``full`` bootstraps the whole base table into the
#: version index at open; ``lazy`` faults rows in on first read and lets
#: the residency budget evict clean arrays back to the backend.
RESIDENCY_FULL = "full"
RESIDENCY_LAZY = "lazy"
RESIDENCY_MODES = (RESIDENCY_FULL, RESIDENCY_LAZY)


class StateTable:
    """Versioned, backend-agnostic representation of one queryable state."""

    def __init__(
        self,
        state_id: str,
        backend: KVStore | None = None,
        key_codec: Codec = ORDERED_KEY_CODEC,
        value_codec: Codec = PICKLE_CODEC,
        version_slots: int = DEFAULT_SLOTS,
        residency: str = RESIDENCY_FULL,
    ) -> None:
        if residency not in RESIDENCY_MODES:
            raise ValueError(
                f"residency must be one of {RESIDENCY_MODES}: {residency!r}"
            )
        self.state_id = state_id
        self.backend = backend if backend is not None else MemoryKVStore()
        self.key_codec = key_codec
        self.value_codec = value_codec
        self.version_slots = version_slots
        self.residency = residency
        self._index: dict[Any, MVCCObject] = {}
        #: guards structural changes to the key -> MVCCObject mapping.
        self._index_latch = threading.RLock()
        #: the short commit-time synchronisation the paper describes; held
        #: while a commit validates and installs its versions.
        self.commit_latch = threading.RLock()
        #: monotonic counters for observability.
        self.commits_applied = 0
        self.versions_installed = 0
        #: snapshot-consistent secondary indexes (maintained at commit).
        self.indexes = IndexSet()
        #: commit timestamp stamped on faulted-in bootstrap versions — the
        #: recovered group ``LastCTS`` (strictly below every post-recovery
        #: commit), so hydration restores the checkpoint view.
        self.bootstrap_cts = ZERO_TS
        #: lazy-residency cap on index entries (``None`` = unbounded); the
        #: sharded manager divides its fleet-wide ``memory_budget`` here.
        self.residency_budget: int | None = None
        #: supplies the GC horizon at or below which clean arrays may be
        #: evicted; the sharded manager wires the shard context's
        #: ``oldest_active_version`` (which folds in the global barrier).
        self.gc_horizon_hook: Callable[[], int] | None = None
        #: called when a fault-in pushes the index over budget; the sharded
        #: manager wires the maintenance daemon's eviction request here.
        self.eviction_trigger: Callable[[], None] | None = None
        #: lazy-residency observability counters.
        self.hydrations = 0
        self.hydration_misses = 0
        self.residency_evictions = 0
        #: clock/second-chance sweep state over a cached key snapshot.
        self._clock_keys: list[Any] = []
        self._clock_hand = 0
        #: bumped under the index latch whenever a key enters or leaves
        #: the index; ``_key_cache`` is ``(epoch, keys, sorted)`` and only
        #: valid while its epoch is current (see :meth:`_sorted_keys`).
        self._key_epoch = 0
        self._key_cache: tuple[int, list[Any], bool] | None = None
        #: bumped under the index latch whenever a written array is
        #: evicted (see :meth:`_arrays_for`).
        self._written_evictions = 0

    # -------------------------------------------------------------- lookups

    def mvcc_object(self, key: Any, create: bool = False) -> MVCCObject | None:
        """The version array for ``key``; optionally created when missing.

        The lookup itself is lock-free — a single ``dict.get`` is atomic
        under the GIL and objects are only ever *added* to the index (GC
        prunes versions inside an object, never the mapping) — so the read
        and validation hot paths skip the latch entirely.  Creation uses
        double-checked locking under the index latch.
        """
        obj = self._index.get(key)
        if obj is None and create:
            with self._index_latch:
                obj = self._index.get(key)
                if obj is None:
                    obj = self._index[key] = MVCCObject(self.version_slots)
                    self._key_epoch += 1
        return obj

    def read_version_at(self, key: Any, ts: int) -> VersionEntry | None:
        """Snapshot read: the version of ``key`` visible at ``ts``."""
        obj = self.mvcc_object(key)
        if obj is None:
            if self.residency != RESIDENCY_LAZY:
                return None
            obj = self._hydrate(key)
            if obj is None:
                return None
        return obj.read_at(ts)

    def read_live(self, key: Any) -> VersionEntry | None:
        """Read the newest committed version (single-version protocols)."""
        obj = self.mvcc_object(key)
        if obj is None:
            if self.residency != RESIDENCY_LAZY:
                return None
            obj = self._hydrate(key)
            if obj is None:
                return None
        return obj.live_version()

    def latest_cts(self, key: Any) -> int:
        """Newest commit timestamp recorded for ``key`` (0 when unwritten).

        In lazy mode a cold key answers :attr:`bootstrap_cts` without a
        backend probe.  Its newest commit is the bootstrap or an evicted
        write, both at or below the GC horizon and so at or below every
        live snapshot: First-Committer-Wins passes on it exactly as full
        residency's answer would let it.
        """
        obj = self._index.get(key)
        if obj is None:
            return self.bootstrap_cts if self.residency == RESIDENCY_LAZY else 0
        return obj.latest_cts()

    # ------------------------------------------------------- lazy residency

    def resident_keys(self) -> int:
        """Number of keys currently holding an in-memory version array."""
        return len(self._index)

    def _hydrate(self, key: Any) -> MVCCObject | None:
        """Fault a cold key in from the base table (lazy residency).

        One bloom-gated backend point read; repeated reads of a truly
        absent key cost one LSM negative-cache hit.  The install is
        delegated to :meth:`MVCCObject.install_bootstrap`, which makes it
        idempotent and safe against racing committers (see there).
        """
        kbytes = self.key_codec.encode(key)
        while True:
            evictions = self._written_evictions
            vbytes = self.backend.get(kbytes)
            if vbytes is None:
                self.hydration_misses += 1
                # a racing commit may have created the object meanwhile
                return self._index.get(key)
            objects = self._arrays_for([key], evictions)
            if objects is not None:
                break
        obj = objects[0]
        if obj.install_bootstrap(self.value_codec.decode(vbytes), self.bootstrap_cts):
            self.hydrations += 1
            self._enforce_budget()
        return obj

    def hydrate_many(self, keys: list[Any]) -> int:
        """Batched fault-in for a set of keys (the ``read_many`` path).

        One ``backend.multi_get`` covers every cold key — a single
        cache/bloom pass with shared SSTable handles instead of one full
        probe chain per key.  Returns the number of keys installed.
        """
        if self.residency != RESIDENCY_LAZY:
            return 0
        missing = [key for key in keys if key not in self._index]
        if not missing:
            return 0
        encoded = [self.key_codec.encode(key) for key in missing]
        while True:
            evictions = self._written_evictions
            rows = [
                (key, vbytes)
                for key, vbytes in zip(missing, self.backend.multi_get(encoded))
                if vbytes is not None
            ]
            objects = self._arrays_for([key for key, _ in rows], evictions)
            if objects is not None:
                break
        self.hydration_misses += len(missing) - len(rows)
        installed = 0
        for (_key, vbytes), obj in zip(rows, objects):
            if obj.install_bootstrap(
                self.value_codec.decode(vbytes), self.bootstrap_cts
            ):
                installed += 1
        if installed:
            self.hydrations += installed
            self._enforce_budget()
        return installed

    def _arrays_for(
        self, keys: list[Any], evictions: int
    ) -> list[MVCCObject] | None:
        """The arrays a fault-in installs rows just read from the base
        table into, created where missing — or ``None`` when a written
        array was evicted since :attr:`_written_evictions` read
        ``evictions``: the read may predate that write, and installing it
        into a fresh array would resurrect the overwritten value, so the
        caller reads again.  Any write after this check lands in these
        arrays, where the bootstrap install loses to it.
        """
        with self._index_latch:
            if self._written_evictions != evictions:
                return None
            return [self.mvcc_object(key, create=True) for key in keys]

    def _enforce_budget(self) -> None:
        """Keep the resident count at or below the residency budget.

        Runs on every fault-in.  The maintenance daemon owns bulk sweeps
        (requested through :attr:`eviction_trigger`, so eviction never
        rides the commit path); the faulting reader additionally pays a
        small strict backstop, so between fault-ins the index exceeds the
        budget by at most the keys written since the last one (commits
        add arrays but never sweep).
        """
        budget = self.residency_budget
        if budget is None or len(self._index) <= budget:
            return
        if self.eviction_trigger is not None:
            self.eviction_trigger()
        self.evict_cold_versions(strict=True)

    def evict_cold_versions(
        self,
        limit: int | None = None,
        horizon: int | None = None,
        strict: bool = False,
        max_steps: int | None = None,
    ) -> int:
        """Clock/second-chance sweep demoting cold keys to backend-resident.

        Drops version arrays that :meth:`MVCCObject.evictable` admits at
        the GC ``horizon`` until the index is back under the residency
        budget (or ``limit`` keys are evicted).  The clock pass frees
        never-written arrays only; a written array (``last_write_ts``,
        read without its latch) whose newest commit is at or below the
        horizon is set aside and tried after the pass, only if the pass
        fell short.  Nothing is evicted while :attr:`bootstrap_cts` is
        above the horizon, because a re-fault is stamped with it.  Only
        the index entry is removed — the backend row is untouched, so the
        key simply becomes cold again.  Holds the commit latch so no
        commit is concurrently installing into an array being dropped;
        the hold is bounded by ``max_steps`` clock positions.  Returns
        the number of arrays evicted.
        """
        if self.residency != RESIDENCY_LAZY:
            return 0
        with self.commit_latch:
            resident = len(self._index)
            if limit is None:
                budget = self.residency_budget
                if budget is None or resident <= budget:
                    return 0
                limit = resident - budget
            if limit <= 0 or resident == 0:
                return 0
            if horizon is None:
                hook = self.gc_horizon_hook
                horizon = hook() if hook is not None else self.bootstrap_cts
            if self.bootstrap_cts > horizon:
                return 0
            if max_steps is None:
                max_steps = 2 * resident + 64
            evicted = 0
            steps = 0
            written: dict[Any, None] = {}
            while evicted < limit and steps < max_steps:
                if self._clock_hand >= len(self._clock_keys):
                    with self._index_latch:
                        self._clock_keys = list(self._index)
                    self._clock_hand = 0
                    if not self._clock_keys:
                        break
                key = self._clock_keys[self._clock_hand]
                self._clock_hand += 1
                steps += 1
                obj = self._index.get(key)
                if obj is None:
                    continue
                if obj.last_write_ts:
                    if obj.last_write_ts <= horizon:
                        written[key] = None
                    continue
                if obj.evictable(horizon, strict=strict):
                    self._drop(key)
                    evicted += 1
            for key in written:
                if evicted >= limit:
                    break
                obj = self._index.get(key)
                if obj is not None and obj.evictable(horizon, strict=strict):
                    self._drop(key, written=True)
                    evicted += 1
            if evicted:
                self.residency_evictions += evicted
            return evicted

    def _drop(self, key: Any, written: bool = False) -> None:
        with self._index_latch:
            self._index.pop(key, None)
            self._key_epoch += 1
            if written:
                self._written_evictions += 1

    def _sorted_keys(self) -> tuple[list[Any], bool]:
        """The cached key list and whether it is sorted.

        Rebuilt only when the key set changed since the last build; keys
        Python cannot sort (e.g. ints mixed with strs) stay in insertion
        order with ``False``.  The list is never mutated, so callers may
        iterate it while the index changes.
        """
        cached = self._key_cache
        if cached is not None and cached[0] == self._key_epoch:
            return cached[1], cached[2]
        with self._index_latch:
            epoch = self._key_epoch
            keys = list(self._index)
        try:
            keys.sort()
            ordered = True
        except TypeError:
            ordered = False
        self._key_cache = (epoch, keys, ordered)
        return keys, ordered

    def _keys_in_range(self, low: Any, high: Any) -> list[Any]:
        """Index keys with ``low <= key < high``, in sorted order."""
        keys, ordered = self._sorted_keys()
        if not ordered:
            return [
                key for key in keys
                if (low is None or key >= low) and (high is None or key < high)
            ]
        start = 0 if low is None else bisect_left(keys, low)
        stop = len(keys) if high is None else bisect_left(keys, high)
        return keys[start:stop]

    def keys(self) -> list[Any]:
        """All keys with at least one version, in sorted order (insertion
        order for keys Python cannot sort)."""
        return list(self._sorted_keys()[0])

    def scan_at(self, ts: int, low: Any = None, high: Any = None) -> Iterator[tuple[Any, Any]]:
        """Snapshot range scan with ``low <= key < high`` bounds.

        Lazy residency merges the resident index with a base-table scan:
        cold rows carry the bootstrap timestamp, so they are visible iff
        ``ts >= bootstrap_cts`` — exactly the version full residency
        would have installed for them.
        """
        if self.residency == RESIDENCY_LAZY:
            yield from self._lazy_scan(
                low, high, lambda obj: obj.read_at(ts), ts >= self.bootstrap_cts
            )
            return
        for key in self._keys_in_range(low, high):
            version = self.read_version_at(key, ts)
            if version is not None:
                yield key, version.value

    def scan_live(self, low: Any = None, high: Any = None) -> Iterator[tuple[Any, Any]]:
        if self.residency == RESIDENCY_LAZY:
            yield from self._lazy_scan(
                low, high, lambda obj: obj.live_version(), True
            )
            return
        for key in self._keys_in_range(low, high):
            version = self.read_live(key)
            if version is not None:
                yield key, version.value

    def _lazy_scan(
        self,
        low: Any,
        high: Any,
        read: Callable[[MVCCObject], VersionEntry | None],
        cold_visible: bool,
    ) -> list[tuple[Any, Any]]:
        """One merged, sorted vector over resident + cold rows.

        The resident keys in range (bisected from the sorted key list) are
        captured first, each as its object reference, so a concurrent
        eviction cannot hide a row mid-scan; a key evicted before its
        capture is simply read cold.  The backend scan then supplies only
        keys outside that capture, re-checking the live index per key so
        rows committed or faulted in after the capture are read through
        their version array with proper visibility instead of being
        misread as cold.  Scans do **not** install bootstrap versions —
        one analytics pass must not blow the residency budget.

        With an order-preserving key codec the backend scan reads only the
        encoded bounds plus the codec's unordered region; otherwise it
        sweeps the partition.  The Python bound check below runs either
        way.
        """

        def in_bounds(key: Any) -> bool:
            if low is not None and key < low:
                return False
            return high is None or key < high

        resident: set[Any] = set()
        out: list[tuple[Any, Any]] = []
        for key in self._keys_in_range(low, high):
            obj = self._index.get(key)
            if obj is None:
                continue
            resident.add(key)
            version = read(obj)
            if version is not None:
                out.append((key, version.value))
        if cold_visible:
            for kbytes, vbytes in self._backend_range(low, high):
                key = self.key_codec.decode(kbytes)
                if key in resident or not in_bounds(key):
                    continue
                obj = self._index.get(key)
                if obj is not None:
                    version = read(obj)
                    if version is not None:
                        out.append((key, version.value))
                else:
                    out.append((key, self.value_codec.decode(vbytes)))
        try:
            out.sort(key=lambda kv: kv[0])
        except TypeError:
            # heterogeneous keys: keep resident-then-cold order
            pass
        return out

    def _backend_range(
        self, low: Any, high: Any
    ) -> Iterator[tuple[bytes, bytes]]:
        """Base-table rows that may hold keys in ``[low, high)``."""
        codec = self.key_codec
        low_bytes = None if low is None else codec.encode_bound(low)
        high_bytes = None if high is None else codec.encode_bound(high)
        rows = self.backend.scan(low_bytes, high_bytes)
        if high_bytes is None or codec.unordered_region is None:
            return rows
        return chain(rows, self.backend.scan(codec.unordered_region, None))

    def __len__(self) -> int:
        """Number of keys with a live (committed, undeleted) version."""
        return sum(1 for _ in self.scan_live())

    # --------------------------------------------------------------- commit

    def apply_write_set(
        self, write_set: WriteSet, commit_ts: int, oldest_active: int
    ) -> None:
        """Install a committed write set into the version index **and** push
        it to the base table as one atomic batch.

        Every installed version is clean once the batch lands.  Caller
        must hold :attr:`commit_latch` (the group-commit path does).
        """
        entries = write_set.entries
        objects = [self.mvcc_object(key, create=True) for key in entries]
        if self.residency == RESIDENCY_LAZY:
            self._install_underlays(entries, objects)
        puts: list[tuple[bytes, bytes]] = []
        deletes: list[bytes] = []
        installed: list[VersionEntry] = []
        for (key, entry), obj in zip(entries.items(), objects):
            if entry.kind is WriteKind.UPSERT:
                installed.append(obj.install(entry.value, commit_ts, oldest_active))
                puts.append(
                    (self.key_codec.encode(key), self.value_codec.encode(entry.value))
                )
                self.versions_installed += 1
                for index in self.indexes.all():
                    index.apply_upsert(key, entry.value, commit_ts)
            else:
                obj.mark_deleted(commit_ts)
                deletes.append(self.key_codec.encode(key))
                for index in self.indexes.all():
                    index.apply_delete(key, commit_ts)
        self.backend.write_batch(puts, deletes)
        for version in installed:
            version.clean = True
        self.commits_applied += 1

    def _install_underlays(
        self, keys: Iterable[Any], objects: list[MVCCObject]
    ) -> None:
        """Give each *cold* key of a commit its backend pre-image.

        A commit to a cold key (blind write, an evicted write, or the
        writer's fault-in was evicted before this commit latched) starts
        a fresh array, which must carry the backend pre-image as its
        bootstrap underlay, or the interval below the commit would vanish
        from history while a barrier-capped reader can still pin a
        snapshot inside it.  One ``multi_get`` fetches every pre-image.
        """
        cold = [
            (key, obj)
            for key, obj in zip(keys, objects)
            if obj.last_write_ts == 0 and obj.version_count() == 0
        ]
        if not cold:
            return
        values = self.backend.multi_get(
            [self.key_codec.encode(key) for key, _ in cold]
        )
        for (_key, obj), vbytes in zip(cold, values):
            if vbytes is not None:
                obj.install_bootstrap(
                    self.value_codec.decode(vbytes), self.bootstrap_cts
                )

    def redo_write_set(self, write_set: WriteSet) -> int:
        """Apply a recovered commit's write set to the **base table only**.

        The recovery redo step: commit-WAL tail records are replayed into
        the backend *before* the version index is bootstrapped with
        :meth:`load_from_backend`, so versions are never installed out of
        timestamp order.  Idempotent — re-applying a write set that partly
        survived (e.g. through the LSM's own buffered WAL) converges on the
        same bytes.  Returns the number of keys touched.
        """
        puts: list[tuple[bytes, bytes]] = []
        deletes: list[bytes] = []
        for key, entry in write_set.entries.items():
            if entry.kind is WriteKind.UPSERT:
                puts.append(
                    (self.key_codec.encode(key), self.value_codec.encode(entry.value))
                )
            else:
                deletes.append(self.key_codec.encode(key))
        self.backend.write_batch(puts, deletes)
        return len(puts) + len(deletes)

    # ------------------------------------------------------------ bootstrap

    def bulk_load(self, items: Iterator[tuple[Any, Any]] | list[tuple[Any, Any]]) -> int:
        """Load initial data outside any transaction (commit ts = 0).

        Used to initialise benchmark tables; visible to every snapshot.
        """
        puts: list[tuple[bytes, bytes]] = []
        installed: list[VersionEntry] = []
        with self.commit_latch:
            for key, value in items:
                obj = self.mvcc_object(key, create=True)
                installed.append(obj.install(value, ZERO_TS, ZERO_TS))
                puts.append(
                    (self.key_codec.encode(key), self.value_codec.encode(value))
                )
                for index in self.indexes.all():
                    index.apply_upsert(key, value, ZERO_TS)
            self.backend.write_batch(puts, [])
            for version in installed:
                version.clean = True
        return len(installed)

    def load_from_backend(self, bootstrap_cts: int = ZERO_TS) -> int:
        """Rebuild the version index from the base table (recovery path).

        Every persisted key gets one bootstrap version stamped with
        ``bootstrap_cts`` (the recovered group ``LastCTS``), restoring the
        view of the last completed commit.
        """
        count = 0
        with self.commit_latch:
            self.bootstrap_cts = bootstrap_cts
            with self._index_latch:
                self._index.clear()
                self._key_epoch += 1
            for kbytes, vbytes in self.backend.scan():
                key = self.key_codec.decode(kbytes)
                value = self.value_codec.decode(vbytes)
                obj = self.mvcc_object(key, create=True)
                obj.install(value, bootstrap_cts, bootstrap_cts, clean=True)
                for index in self.indexes.all():
                    index.apply_upsert(key, value, bootstrap_cts)
                count += 1
        return count

    def evict_keys(self, keys: list[Any]) -> int:
        """Drop keys this partition no longer owns (slot-migration purge).

        Removes the version arrays *and* the backend rows in one batch —
        not a transactional delete: no tombstone version is installed and
        no commit record is written, because ownership of the keys (and
        their authoritative history) has moved to another shard's
        partition.  Caller must hold :attr:`commit_latch` or otherwise
        guarantee no commit is in flight.  Returns the number of keys that
        actually existed here.
        """
        deletes: list[bytes] = []
        with self._index_latch:
            self._key_epoch += 1
            for key in keys:
                resident = self._index.pop(key, None) is not None
                # A lazy partition holds rows its index never faulted in;
                # their backend rows must go too (callers pass keys they
                # found in the backend), or they would re-hydrate later.
                if resident or self.residency == RESIDENCY_LAZY:
                    deletes.append(self.key_codec.encode(key))
        if deletes:
            self.backend.write_batch([], deletes)
        return len(deletes)

    # -------------------------------------------------------------- indexes

    def create_index(
        self, name: str, extractor: Callable[[Any], Hashable | None]
    ) -> SecondaryIndex:
        """Attach a snapshot-consistent secondary index.

        Existing committed rows are back-filled under the commit latch so
        lookups are complete from the moment this returns.  Unsupported
        on lazy-residency tables: the back-fill could only see resident
        keys, so the index would silently miss every cold row.
        """
        if self.residency == RESIDENCY_LAZY:
            raise ValueError(
                f"secondary indexes require residency='full': {self.state_id}"
            )
        with self.commit_latch:
            index = self.indexes.create(name, extractor)
            for key in self.keys():
                obj = self.mvcc_object(key)
                if obj is None:
                    continue
                live = obj.live_version()
                if live is not None:
                    index.apply_upsert(key, live.value, live.cts)
        return index

    def index(self, name: str) -> SecondaryIndex:
        return self.indexes.get(name)

    # ------------------------------------------------------------------- GC

    def collect_garbage(self, oldest_active: int) -> int:
        """Table-wide GC sweep (versions + index postings)."""
        reclaimed = 0
        with self._index_latch:
            objects = list(self._index.values())
        for obj in objects:
            reclaimed += obj.collect(oldest_active)
        for index in self.indexes.all():
            reclaimed += index.collect(oldest_active)
        return reclaimed

    def version_count(self) -> int:
        with self._index_latch:
            objects = list(self._index.values())
        return sum(obj.version_count() for obj in objects)

    def close(self) -> None:
        self.backend.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StateTable({self.state_id!r}, keys={len(self.keys())})"
