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
  *faults the row in*: one bloom-gated ``backend.multi_get`` (a batch
  read faults in all its cold keys with the same call; true misses are
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
  a sweep drops arrays whose only version not yet dead at the GC horizon
  is clean, live and itself at or below the horizon — a bootstrap entry
  or a written-through commit alike.  Every snapshot that can still read
  the key then reads that value, which is what the base table holds.
  Eviction removes the index entry only — never the backend row — so
  the next read faults the value back in, stamped with
  ``bootstrap_cts`` (hence no sweep while ``bootstrap_cts`` is above the
  horizon).  The sweep takes its candidates off two FIFO queues: a key
  joins the never-written queue when its array is created and moves to
  the written queue when a sweep finds it written, so never-written
  arrays go first and a sweep costs O(arrays evicted), not O(resident
  arrays).  It reads the GC horizon only when a written candidate's
  newest commit is above the last horizon it read.  A write to a cold
  key needs no fault-in for First-Committer-Wins: its newest commit is
  at or below the horizon, so no live snapshot can have missed it.
  Bulk sweeps run on the
  :class:`~repro.storage.maintenance.StorageMaintenanceDaemon`; the
  faulting reader only pays a bounded inline backstop that keeps the
  resident count at the budget plus the keys written since the last
  fault-in.  The backstop is strict (it ignores reference bits), so it
  visits each queue entry once, and it takes the arrays of the
  faulting read's own keys last: a read faults each cold key in once,
  unless its batch alone outgrows the budget.

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

import heapq
import threading
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Iterator
from itertools import chain, count
from typing import Any

from collections.abc import Callable, Hashable, Iterable, Sequence

from ..storage.kvstore import KVStore, MemoryKVStore
from .codecs import ORDERED_KEY_CODEC, PICKLE_CODEC, Codec
from .indexes import IndexSet, SecondaryIndex
from .timestamps import INF_TS, ZERO_TS
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
        #: newest commit timestamp installed here (a commit, a handover or
        #: a recovered tail row); with :attr:`bootstrap_cts` it tells
        #: :meth:`bulk_load` whether any snapshot may have read history.
        self.applied_cts = ZERO_TS
        #: snapshot-consistent secondary indexes (maintained at commit).
        self.indexes = IndexSet()
        #: commit timestamp stamped on faulted-in bootstrap versions — the
        #: recovered group ``LastCTS`` (strictly below every post-recovery
        #: commit), so hydration restores the checkpoint view.
        self.bootstrap_cts = ZERO_TS
        #: lazy-residency cap on index entries (``None`` = unbounded); the
        #: sharded manager divides its fleet-wide ``memory_budget`` here.
        self.residency_budget: int | None = None
        #: see :attr:`gc_horizon_hook`; setting it clears
        #: :attr:`_gc_horizon`, the newest value the hook returned.
        self.gc_horizon_hook = None
        #: called when a fault-in pushes the index over budget; the sharded
        #: manager wires the maintenance daemon's eviction request here.
        self.eviction_trigger: Callable[[], None] | None = None
        #: lazy-residency observability counters; a sweep's visits are the
        #: queue entries it examined.
        self.hydrations = 0
        self.hydration_misses = 0
        self.residency_evictions = 0
        self.residency_sweep_visits = 0
        #: eviction queues of a lazy table, oldest first: a key joins
        #: ``_unwritten`` when its array is created and moves to
        #: ``_written`` when a sweep finds the array written.  The index
        #: latch guards ``_unwritten`` (fault-ins create arrays under it
        #: alone); the commit latch guards ``_written``.
        self._unwritten: OrderedDict[Any, None] = OrderedDict()
        self._written: OrderedDict[Any, None] = OrderedDict()
        #: bumped under the index latch whenever a key enters or leaves
        #: the index; ``_key_cache`` is ``(epoch, keys, sorted)`` and only
        #: valid while its epoch is current (see :meth:`_sorted_keys`).
        self._key_epoch = 0
        self._key_cache: tuple[int, list[Any], bool] | None = None
        #: bumped under the index latch whenever a written array is
        #: evicted (see :meth:`_arrays_for`).
        self._written_evictions = 0
        #: GC pending set: key -> array for every array that may hold a
        #: superseded version (``dts`` below ``INF_TS``).  Every site that
        #: sets a ``dts`` registers its key under :attr:`commit_latch`.
        #: Entries leave with their index entry, so the set is a subset of
        #: the index.
        self._gc_pending: dict[Any, MVCCObject] = {}
        #: min-heap of ``(bound, seq, keys)`` beside the pending set: a key
        #: is queued when it joins the set, in an entry whose ``bound`` is
        #: at most its array's oldest superseded ``dts``, so
        #: :meth:`collect_garbage` pops only the entries at or below its
        #: horizon.  An entry whose key left the set, or was popped through
        #: another entry, is stale and harmless; ``_gc_heap_keys`` counts
        #: the keys the heap holds, which :meth:`_push_gc` keeps within
        #: twice the set.
        self._gc_heap: list[tuple[int, int, tuple[Any, ...]]] = []
        self._gc_heap_keys = 0
        self._gc_seq = count()

    # -------------------------------------------------------------- lookups

    def mvcc_object(self, key: Any, create: bool = False) -> MVCCObject | None:
        """The version array for ``key``; optionally created when missing.

        The lookup itself is lock-free — a single ``dict.get`` is atomic
        under the GIL, and GC prunes versions inside an object, never the
        mapping — so the read and validation hot paths skip the latch
        entirely.  Residency eviction (:meth:`evict_cold_versions`) and
        the recovery slot-ownership sweep (:meth:`evict_keys`, before the
        manager serves anyone) do remove mappings, but only under the
        commit latch, so no commit installs into a dropped array.  A
        reader still holding an evicted array reads the one version every
        live snapshot sees there — clean, so the base table holds it too
        — and the next lookup faults the key back in.  Creation uses
        double-checked locking under the index latch.
        """
        obj = self._index.get(key)
        if obj is None and create:
            with self._index_latch:
                obj = self._publish(key, MVCCObject(self.version_slots))
        return obj

    def _publish(self, key: Any, obj: MVCCObject) -> MVCCObject:
        """Make ``obj`` the array of ``key`` unless the index already has
        one, and return the array the index holds.  A lazy table queues a
        new key as never-written.  Caller holds the index latch.
        """
        current = self._index.get(key)
        if current is not None:
            return current
        self._index[key] = obj
        self._key_epoch += 1
        if self.residency == RESIDENCY_LAZY:
            self._unwritten[key] = None
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

    @property
    def gc_horizon_hook(self) -> Callable[[], int] | None:
        """Supplies the GC horizon at or below which clean arrays may be
        evicted; the sharded manager wires the shard context's
        ``oldest_active_version`` (which folds in the global barrier).

        The table records the newest value the hook returned and starts
        each sweep from it (see :meth:`evict_cold_versions`).  Setting the
        hook clears that value: a horizon of another hook bounds nothing.
        """
        return self._gc_horizon_hook

    @gc_horizon_hook.setter
    def gc_horizon_hook(self, hook: Callable[[], int] | None) -> None:
        # under the commit latch, which every sweep holds, so no sweep
        # records the old hook's value over the cleared one
        with self.commit_latch:
            self._gc_horizon_hook = hook
            self._gc_horizon = ZERO_TS

    def _read_gc_horizon(self) -> int:
        """Call the GC-horizon hook and record its value; without a hook
        the horizon is :attr:`bootstrap_cts`, which is not recorded.
        Caller holds the commit latch."""
        hook = self._gc_horizon_hook
        if hook is None:
            return self.bootstrap_cts
        self._gc_horizon = hook()
        return self._gc_horizon

    def _hydrate(self, key: Any) -> MVCCObject | None:
        """Fault one cold key in from the base table (lazy residency).

        A one-key :meth:`_fault_in`.  Returns the array the row was
        installed into, never a second index lookup: the backstop takes
        that array last, but a concurrent fault-in's backstop may already
        have evicted it again, and a lookup would read a present row as
        absent.  When the base table holds no row, returns whatever array
        a racing commit created meanwhile.
        """
        objects, _installed = self._fault_in([key], [key])
        return objects[0] if objects else self._index.get(key)

    def hydrate_many(self, keys: list[Any]) -> int:
        """Batched fault-in for a set of keys (the ``read_many`` path).

        Faults in the keys without an index entry with one
        :meth:`_fault_in`, which spares the whole batch.  Returns the
        number of keys installed.
        """
        if self.residency != RESIDENCY_LAZY:
            return 0
        missing = [key for key in keys if key not in self._index]
        if not missing:
            return 0
        return self._fault_in(missing, keys)[1]

    def _fault_in(
        self, keys: list[Any], read: list[Any]
    ) -> tuple[list[MVCCObject], int]:
        """Read cold ``keys`` from the base table and install their rows.

        One ``backend.multi_get`` covers the batch: one store-lock
        acquisition, one bloom probe per (key, table) and, where the bloom
        passes, one ``pread`` of one block on the table's held descriptor;
        a truly absent key costs one LSM negative-cache hit on its next
        read.  A key still cold gets a new array that holds its row before
        the index publishes it, so a lock-free reader never finds it
        empty.  A row for a key that has an array meanwhile is delegated
        to :meth:`MVCCObject.install_bootstrap`, which makes it idempotent
        and safe against racing committers (see there).  The budget
        backstop that follows takes the arrays of ``read``, the keys the
        caller is about to read, last.  Returns the arrays of the rows
        found, in key order, and the number of rows installed.
        """
        encoded = [self.key_codec.encode(key) for key in keys]
        while True:
            evictions = self._written_evictions
            rows = [
                (key, vbytes)
                for key, vbytes in zip(keys, self.backend.multi_get(encoded))
                if vbytes is not None
            ]
            fresh = [self._new_array(vbytes) for _key, vbytes in rows]
            objects = self._arrays_for(rows, fresh, evictions)
            if objects is not None:
                break
        self.hydration_misses += len(keys) - len(rows)
        installed = 0
        for (key, vbytes), new, obj in zip(rows, fresh, objects):
            if obj is new:
                installed += 1
            elif obj.install_bootstrap(
                self.value_codec.decode(vbytes), self.bootstrap_cts
            ):
                installed += 1
                if obj.last_write_ts > self.bootstrap_cts:
                    self._register_gc(key, obj)
        if installed:
            self.hydrations += installed
            self._enforce_budget(read)
        return objects, installed

    def _new_array(self, vbytes: bytes | None) -> MVCCObject:
        """A new, unpublished array holding the backend row ``vbytes``, if
        any, as its bootstrap version."""
        obj = MVCCObject(self.version_slots)
        if vbytes is not None:
            obj.install_bootstrap(self.value_codec.decode(vbytes), self.bootstrap_cts)
        return obj

    def _arrays_for(
        self, rows: list[tuple[Any, bytes]], fresh: list[MVCCObject], evictions: int
    ) -> list[MVCCObject] | None:
        """The arrays a fault-in installs rows just read from the base
        table into: the index's own, or for a key still cold its ``fresh``
        array, published here — or ``None`` when a written array was
        evicted since :attr:`_written_evictions` read ``evictions``: the
        read may predate that write, and installing it into a fresh array
        would resurrect the overwritten value, so the caller reads again.
        Any write after this check lands in these arrays, where the
        bootstrap install loses to it.
        """
        with self._index_latch:
            if self._written_evictions != evictions:
                return None
            return [self._publish(key, obj) for (key, _row), obj in zip(rows, fresh)]

    def _enforce_budget(self, spare: list[Any]) -> None:
        """Keep the resident count at or below the residency budget.

        Runs on every fault-in, with the keys of the read that faulted as
        ``spare``.  The maintenance daemon owns bulk sweeps (requested
        through :attr:`eviction_trigger`, so eviction never rides the
        commit path); the faulting reader additionally pays a small strict
        backstop, so between fault-ins the index exceeds the budget by at
        most the keys written since the last one (commits add arrays but
        never sweep).  The backstop costs O(arrays evicted), not
        O(resident arrays): it pops its candidates off the eviction
        queues.  It takes ``spare`` last, so a batch is not evicted before
        the reads it was faulted in for.
        """
        budget = self.residency_budget
        if budget is None or len(self._index) <= budget:
            return
        if self.eviction_trigger is not None:
            self.eviction_trigger()
        self.evict_cold_versions(strict=True, spare=spare)

    def evict_cold_versions(
        self,
        limit: int | None = None,
        horizon: int | None = None,
        strict: bool = False,
        spare: Sequence[Any] = (),
    ) -> int:
        """FIFO sweep demoting cold keys to backend-resident.

        Drops version arrays that :meth:`MVCCObject.evictable` admits at
        the GC ``horizon`` until the index is back under the residency
        budget (or ``limit`` keys are evicted).  Candidates come off the
        front of two queues, never-written arrays first: an entry whose
        array left the index is discarded, a written array (``last_write_ts``,
        read without its latch) found in ``_unwritten`` moves to
        ``_written``, a ``spare`` key is held back at the tail, an
        admitted array is dropped and anything else goes back to the
        tail.  The ``spare`` keys (a faulting read's own keys) are tried
        last, in reverse order: the read visits them in order, so a batch
        too large for the budget keeps its head.  A ``strict`` sweep
        ignores reference bits, so a second visit could not evict what
        the first left: each pass is bounded by its queue's length when
        it starts, and visits each entry once.  A second-chance sweep
        clears a set reference bit and re-queues the array, up to
        ``2 * len + 64`` visits per queue.

        Without an explicit ``horizon`` the sweep starts from the newest
        value :attr:`gc_horizon_hook` returned, and calls the hook at most
        once: when :attr:`bootstrap_cts` is above that value, or when a
        written candidate's newest commit is (at or below it, every older
        version of the array is dead, so a newer horizon admits nothing
        more).  That is safe because every later pin is at or above a
        horizon the hook returned (see
        ``ShardedTransactionManager._global_horizon``), and a lower
        horizon never admits more.  A caller's ``horizon`` is used as
        given and never recorded.  Nothing is evicted while
        :attr:`bootstrap_cts` is above the horizon, because a re-fault is
        stamped with it.  Only the index entry is removed — the backend
        row is untouched, so the key simply becomes cold again.  Holds the
        commit latch so no commit is concurrently installing into an array
        being dropped, and the index latch over the never-written pass.
        Returns the number of arrays evicted.
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
            known = horizon is not None
            if horizon is None:
                horizon = self._gc_horizon
                if self.bootstrap_cts > horizon:
                    horizon = self._read_gc_horizon()
                    known = True
            if self.bootstrap_cts > horizon:
                return 0

            def admits(obj: MVCCObject) -> bool:
                nonlocal horizon, known
                if obj.last_write_ts > horizon and not known:
                    known = True
                    horizon = max(horizon, self._read_gc_horizon())
                return obj.last_write_ts <= horizon and obj.evictable(
                    horizon, strict
                )

            index = self._index
            spared = set(spare)
            evicted = visits = 0
            with self._index_latch:
                # a never-written array holds only versions at or below
                # bootstrap_cts, which the horizon covers: no hook call here
                queue = self._unwritten
                steps = len(queue) if strict else 2 * len(queue) + 64
                while evicted < limit and steps > 0 and queue:
                    steps -= 1
                    visits += 1
                    key = queue.popitem(last=False)[0]
                    obj = index.get(key)
                    if obj is None:
                        continue
                    if obj.last_write_ts:
                        self._written[key] = None
                    elif key not in spared and obj.evictable(horizon, strict):
                        self._drop(key)
                        evicted += 1
                    else:
                        queue[key] = None
            queue = self._written
            steps = len(queue) if strict else 2 * len(queue) + 64
            while evicted < limit and steps > 0 and queue:
                steps -= 1
                visits += 1
                key = queue.popitem(last=False)[0]
                obj = index.get(key)
                if obj is None:
                    continue
                if key not in spared and admits(obj):
                    self._drop(key, written=True)
                    evicted += 1
                else:
                    queue[key] = None
            for key in reversed(spare):
                if evicted >= limit:
                    break
                obj = index.get(key)
                if obj is not None and admits(obj):
                    self._drop(key, written=bool(obj.last_write_ts))
                    evicted += 1
            self.residency_sweep_visits += visits
            self.residency_evictions += evicted
            return evicted

    def _drop(self, key: Any, written: bool = False) -> None:
        """Remove ``key``'s array from the index and both eviction queues.
        Caller holds the commit latch."""
        self._gc_pending.pop(key, None)
        self._written.pop(key, None)
        with self._index_latch:
            self._index.pop(key, None)
            self._unwritten.pop(key, None)
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

        Every installed version is clean once the batch lands.  Every
        written key joins the GC pending set: an upsert or delete
        supersedes the key's live version, if it has one.  Caller must
        hold :attr:`commit_latch` (the group-commit path does).
        """
        entries = write_set.entries
        if self.residency == RESIDENCY_LAZY:
            objects = self._arrays_with_underlays(entries)
        else:
            objects = [self.mvcc_object(key, create=True) for key in entries]
        pending = self._gc_pending
        # a pending key is queued at a bound at most its oldest dts, and
        # this commit's dts are newer than any the key holds
        fresh = [key for key in entries if key not in pending]
        pending.update(zip(entries, objects))
        if fresh:
            self._push_gc(commit_ts, tuple(fresh))
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
        self.applied_cts = max(self.applied_cts, commit_ts)

    def _arrays_with_underlays(self, keys: Iterable[Any]) -> list[MVCCObject]:
        """The arrays a commit installs into, on a lazy table.

        A commit to a cold key (blind write, an evicted write, or the
        writer's fault-in was evicted before this commit latched) starts
        a fresh array, which must carry the backend pre-image as its
        bootstrap underlay, or the interval below the commit would vanish
        from history while a barrier-capped reader can still pin a
        snapshot inside it.  One ``multi_get`` fetches every pre-image,
        and each is installed before the index publishes its array: a
        lock-free reader never finds a key that exists as an empty array.
        A fault-in that published the key meanwhile installed the same
        row (the commit latch, which the caller holds, keeps the base
        table still), so its array is used as it is.
        """
        index = self._index
        cold = [key for key in keys if key not in index]
        if cold:
            rows = self.backend.multi_get(
                [self.key_codec.encode(key) for key in cold]
            )
            fresh = [self._new_array(vbytes) for vbytes in rows]
            with self._index_latch:
                for key, obj in zip(cold, fresh):
                    self._publish(key, obj)
        return [index[key] for key in keys]

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
        Only allowed before the table holds anything above ts 0 (see
        :meth:`check_bulk_loadable`); a key an earlier bulk load wrote
        gets a superseded version, so it joins the GC pending set.
        """
        puts: list[tuple[bytes, bytes]] = []
        installed: list[VersionEntry] = []
        with self.commit_latch:
            self.check_bulk_loadable()
            for key, value in items:
                obj = self._index.get(key)
                if obj is None:
                    obj = self.mvcc_object(key, create=True)
                else:
                    self._pend_gc(key, obj)
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

    def check_bulk_loadable(self) -> None:
        """Raise :class:`ValueError` once the table has applied a commit
        (or a handover, a redo or a recovery bootstrap above ts 0).

        A bulk load stamps ts 0, which every snapshot sees: after a
        commit it would rewrite history a held snapshot has already read,
        and a new key would appear under snapshots that read it absent.
        A table-level rule, so keys evicted from a lazy index count too.
        A redo is base-table only; the bootstrap or handover that
        follows it raises the timestamps checked here.
        """
        if self.applied_cts > ZERO_TS or self.bootstrap_cts > ZERO_TS:
            raise ValueError(
                f"bulk_load on state {self.state_id!r} after it applied "
                "commits would change what held snapshots read; bulk-load "
                "before the first commit"
            )

    def load_from_backend(self, bootstrap_cts: int = ZERO_TS) -> int:
        """Rebuild the version index from the base table (recovery path).

        Every persisted key gets one bootstrap version stamped with
        ``bootstrap_cts`` (the recovered group ``LastCTS``), restoring the
        view of the last completed commit.
        """
        count = 0
        with self.commit_latch:
            self.bootstrap_cts = bootstrap_cts
            self._gc_pending.clear()
            self._gc_heap.clear()
            self._gc_heap_keys = 0
            self._written.clear()
            with self._index_latch:
                self._index.clear()
                self._unwritten.clear()
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

    def install_version(
        self, key: Any, value: Any, cts: int, clean: bool = False
    ) -> None:
        """Install ``value`` as ``key``'s live version committed at ``cts``
        outside a transaction: a slot handover, a migration purge's frozen
        copy or a recovered WAL-tail row.  Any version it supersedes is
        registered for GC."""
        with self.commit_latch:
            obj = self.mvcc_object(key, create=True)
            obj.install(value, cts, cts, clean=clean)
            self._pend_gc(key, obj)
            self.applied_cts = max(self.applied_cts, cts)

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
        with self.commit_latch, self._index_latch:
            self._key_epoch += 1
            for key in keys:
                self._gc_pending.pop(key, None)
                self._unwritten.pop(key, None)
                self._written.pop(key, None)
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

    def _register_gc(self, key: Any, obj: MVCCObject) -> None:
        """Add a fault-in's array to the GC pending set, unless it was
        evicted meanwhile (the commit latch orders this with evictions)."""
        with self.commit_latch:
            if self._index.get(key) is obj:
                self._pend_gc(key, obj)

    def _pend_gc(self, key: Any, obj: MVCCObject) -> None:
        """Add ``key``'s array to the GC pending set, queued at
        ``ZERO_TS``, a lower bound on any ``dts``.  Queued even when the
        key is pending already: a fault-in stamps the ``dts`` of a commit
        older than the bound a later commit may have queued meanwhile.
        Caller holds :attr:`commit_latch`."""
        self._gc_pending[key] = obj
        self._push_gc(ZERO_TS, (key,))

    def _push_gc(self, bound: int, keys: tuple[Any, ...]) -> None:
        """Queue ``keys`` for the first sweep whose horizon reaches
        ``bound``, a lower bound on each one's oldest superseded ``dts``
        (``ZERO_TS`` always is one).  Caller holds :attr:`commit_latch`
        and has put ``keys`` in the pending set, which a rebuild keeps.

        A table that is never swept would grow the heap by every commit,
        so once it holds more than ``2 * len(pending) + 64`` keys it is
        rebuilt with one entry per pending key at that key's smallest
        bound: amortised O(1) per registered key.
        """
        heapq.heappush(self._gc_heap, (bound, next(self._gc_seq), keys))
        self._gc_heap_keys += len(keys)
        pending = self._gc_pending
        if self._gc_heap_keys <= 2 * len(pending) + 64:
            return
        smallest: dict[Any, int] = {}
        for entry_bound, _seq, entry_keys in self._gc_heap:
            for key in entry_keys:
                if key in pending and entry_bound < smallest.get(key, INF_TS):
                    smallest[key] = entry_bound
        self._gc_heap = [
            (low, next(self._gc_seq), (key,)) for key, low in smallest.items()
        ]
        heapq.heapify(self._gc_heap)
        self._gc_heap_keys = len(self._gc_heap)

    def collect_garbage(self, oldest_active: int) -> tuple[int, int]:
        """GC sweep over the pending arrays that can hold a version dead
        at ``oldest_active`` (versions + index postings).

        Under :attr:`commit_latch`, which every registering site holds,
        the sweep pops the heap entries whose bound is at or below the
        horizon and takes their keys out of the pending set; it stops at
        the first entry above it, so a sweep costs O(arrays it can
        reclaim from), and one under a pinned horizon costs nothing.  The
        arrays are collected outside the latch.  An array that still
        holds a superseded version is registered again with the exact
        ``dts`` of the oldest one, even when a commit registered it
        meanwhile: that commit's bound is its own, newer timestamp.
        Returns ``(arrays visited, versions reclaimed)``.
        """
        taken: list[tuple[Any, MVCCObject]] = []
        with self.commit_latch:
            heap, pending = self._gc_heap, self._gc_pending
            while heap and heap[0][0] <= oldest_active:
                keys = heapq.heappop(heap)[2]
                self._gc_heap_keys -= len(keys)
                for key in keys:
                    obj = pending.pop(key, None)
                    if obj is not None:
                        taken.append((key, obj))
        index = self._index
        visited = reclaimed = 0
        survivors: list[tuple[Any, MVCCObject, int]] = []
        for key, obj in taken:
            if index.get(key) is not obj:
                continue
            visited += 1
            freed, oldest_dts = obj.sweep(oldest_active)
            reclaimed += freed
            if oldest_dts is not None:
                survivors.append((key, obj, oldest_dts))
        if survivors:
            with self.commit_latch:
                for key, obj, oldest_dts in survivors:
                    if index.get(key) is obj:
                        self._gc_pending[key] = obj
                        self._push_gc(oldest_dts, (key,))
        for secondary in self.indexes.all():
            reclaimed += secondary.collect(oldest_active)
        return visited, reclaimed

    def version_count(self) -> int:
        with self._index_latch:
            objects = list(self._index.values())
        return sum(obj.version_count() for obj in objects)

    def close(self) -> None:
        self.backend.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StateTable({self.state_id!r}, keys={len(self.keys())})"
