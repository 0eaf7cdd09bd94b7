"""Write-ahead log with CRC-protected records and an fsync knob.

The paper configures RocksDB with ``sync = true`` "to guarantee failure
atomicity": every write reaches stable storage before the operation returns.
This module reproduces that knob.  Records are framed as::

    crc32(4) | length(4) | kind(1) | payload(length)

so that a torn tail (partial record after a crash) is detected during replay
and cleanly truncated instead of corrupting recovery, mirroring RocksDB's
``kTolerateCorruptedTailRecords`` behaviour.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..analysis import lockranks
from ..analysis.lockcheck import make_lock
from ..errors import WALError

_HEADER = struct.Struct("<IIB")

#: Record kinds.
KIND_PUT = 1
KIND_DELETE = 2
KIND_COMMIT = 3
KIND_CHECKPOINT = 4
#: Commit-durability pipeline records (:mod:`repro.core.durability`): a
#: whole transaction's redo image, and a 2PC participant's prepare vote.
KIND_TXN_COMMIT = 5
KIND_TXN_PREPARE = 6
#: Global 2PC coordinator outcome (:mod:`repro.recovery.sharded`): the
#: durable commit decision recovery consults to resolve in-doubt prepares.
KIND_COORD_COMMIT = 7
#: Durable slot-map flip (:mod:`repro.core.slots`): the commit point of an
#: online shard migration, logged to the coordinator log — until it is
#: durable, recovery presumes the *source* shard still owns the slots.
KIND_SLOT_FLIP = 8


def fsync_dir(directory: str | os.PathLike[str]) -> None:
    """Fsync a directory entry so file creations/renames inside it survive
    a crash (POSIX requires a directory fsync to make the new name durable;
    the file's own fsync only covers its *contents*)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def encode_kv(key: bytes, value: bytes) -> bytes:
    """Frame a key/value pair as ``klen(4) | key | value``."""
    return len(key).to_bytes(4, "little") + key + value


def decode_kv(payload: bytes) -> tuple[bytes, bytes]:
    klen = int.from_bytes(payload[:4], "little")
    return payload[4 : 4 + klen], payload[4 + klen :]


class WriteAheadLog:
    """Append-only redo log.

    ``sync=True`` forces an ``fsync`` after every append, giving the
    durability the paper's evaluation relies on (and the write-path cost its
    throughput analysis attributes to writers).  With ``sync=False`` appends
    are buffered and flushed on :meth:`close` or :meth:`sync`.
    """

    def __init__(self, path: str | os.PathLike[str], sync: bool = True) -> None:
        self.path = Path(path)
        self.sync_on_append = sync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")
        #: Serialises append/sync/close: the group-fsync daemon's leader and
        #: an application thread calling ``close`` may race otherwise.  The
        #: lowest-ranked file lock (docs/concurrency.md): it nests inside
        #: the store locks and daemon mutexes and takes nothing itself.
        self._lock = make_lock(lockranks.WAL, name="wal")
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    @staticmethod
    def _frame(kind: int, payload: bytes) -> bytes:
        crc = zlib.crc32(bytes([kind]) + payload)
        return _HEADER.pack(crc, len(payload), kind) + payload

    def append(self, kind: int, payload: bytes) -> None:
        """Append one record: a one-record :meth:`append_many`, so it is
        durable on return when ``sync`` is on."""
        self.append_many(((kind, payload),))

    def append_many(
        self, records: Iterable[tuple[int, bytes]], sync: bool | None = None
    ) -> int:
        """Append a batch of ``(kind, payload)`` records with one flush+fsync.

        Every record keeps its own CRC frame (replay cannot tell a batch
        from individual appends), but the whole batch is written with a
        single buffered write and — when ``sync`` is on — costs exactly one
        ``fsync``.  This is the amortisation the group-commit daemon
        (:mod:`repro.core.durability`) and the LSM store's write batches
        build on.  ``sync=None`` follows the instance-level
        ``sync_on_append`` knob.  Returns the record count.
        """
        do_sync = self.sync_on_append if sync is None else sync
        buffer = bytearray()
        count = 0
        for kind, payload in records:
            buffer += self._frame(kind, payload)
            count += 1
        with self._lock:
            if self._closed:
                raise WALError(f"append on closed WAL {self.path}")
            if count:
                self._file.write(buffer)
                if do_sync:
                    self._file.flush()
                    os.fsync(self._file.fileno())
        return count

    def sync(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        """Flush, fsync and close the file.  Idempotent and safe against an
        interleaved :meth:`sync` from another thread: the closed flag flips
        under the same lock that guards every file operation, so no call can
        touch the file object after it is closed."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._file.flush()
                os.fsync(self._file.fileno())
            finally:
                self._file.close()

    def reset_to(self, records: Iterable[tuple[int, bytes]]) -> int:
        """Atomically replace the log's contents with ``records``.

        The commit-WAL truncation primitive: after a checkpoint covers a
        prefix, the log is rewritten to hold only the surviving records
        (typically just the checkpoint marker seeding the new tail).  The
        replacement file is written fully, fsynced, renamed over the live
        path and the directory entry is fsynced — a crash at any point
        leaves either the complete old log or the complete new one.

        The caller must guarantee no concurrent :meth:`append` is in
        flight wanting to land *before* the reset (the sharded manager's
        checkpoint quiesces the shard first).  Returns the record count.
        """
        tmp = self.path.with_name(self.path.name + ".reset")
        count = 0
        with open(tmp, "wb") as fh:
            for kind, payload in records:
                fh.write(self._frame(kind, payload))
                count += 1
            fh.flush()
            os.fsync(fh.fileno())
        with self._lock:
            if self._closed:
                tmp.unlink(missing_ok=True)
                raise WALError(f"reset_to on closed WAL {self.path}")
            self._file.flush()
            os.replace(tmp, self.path)
            fsync_dir(self.path.parent)
            old = self._file
            self._file = open(self.path, "ab")
            old.close()
        return count

    def size_bytes(self) -> int:
        with self._lock:
            if not self._closed:
                self._file.flush()
        return self.path.stat().st_size

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @staticmethod
    def replay(path: str | os.PathLike[str]) -> Iterator[tuple[int, bytes]]:
        """Yield ``(kind, payload)`` for every intact record.

        A corrupt or truncated tail ends the iteration silently (last-record
        torn writes are expected after a crash); corruption *before* the tail
        raises :class:`~repro.errors.WALError` via checksum mismatch only if
        followed by further intact data — we cannot distinguish that without
        record sequence numbers, so replay is conservative and simply stops
        at the first bad frame, which is the safe prefix semantics recovery
        needs.
        """
        path = Path(path)
        if not path.exists():
            return
        with open(path, "rb") as fh:
            while True:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return
                crc, length, kind = _HEADER.unpack(header)
                payload = fh.read(length)
                if len(payload) < length:
                    return
                if zlib.crc32(bytes([kind]) + payload) != crc:
                    return
                yield kind, payload

    @staticmethod
    def truncate(path: str | os.PathLike[str]) -> None:
        """Delete the log file (after its contents were checkpointed)."""
        Path(path).unlink(missing_ok=True)
