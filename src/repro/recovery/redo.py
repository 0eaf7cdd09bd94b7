"""Persistence of the recovery-critical context metadata.

The paper (Section 4.1): topology groups track "the last committed
transaction (LastCTS) per group ... For recovery purposes, this information
needs to be persistent."  The :class:`ContextStore` writes exactly that —
group id -> LastCTS — on every group commit, using the same
CRC-framed append-only log format as the storage WAL so torn tails are
tolerated.

Snapshotting: the log is compacted whenever it exceeds
``compact_after_records`` by rewriting only the latest value per group.
"""

from __future__ import annotations

import os
import struct
import threading
from pathlib import Path
import zlib

from ..errors import WALError
from ..storage.wal import fsync_dir

_FRAME = struct.Struct("<II")


class ContextStore:
    """Durable group -> LastCTS map with write-through semantics.

    Thread-safe: ``record`` is called from every committer thread of a
    shard (the context's persistence hook runs outside the commit latches),
    so appends, compaction and close serialise on an internal mutex.

    Appends are buffered, with no fsync per publish: the shard's commit WAL
    is the durable source of truth for the tail, and recovery takes the
    max of the persisted value, the checkpoint marker and the replayed
    commit records (:func:`repro.recovery.sharded.recover_sharded`), so a
    lost context append can never roll a group's watermark backwards.
    :meth:`close` and compaction fsync.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        compact_after_records: int = 4096,
    ) -> None:
        self.path = Path(path)
        self.compact_after_records = compact_after_records
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._values: dict[str, int] = {}
        self._records = 0
        self._lock = threading.Lock()
        self._load()
        self._file = open(self.path, "ab")

    def _load(self) -> None:
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        pos = 0
        while pos + _FRAME.size <= len(data):
            crc, length = _FRAME.unpack_from(data, pos)
            pos += _FRAME.size
            if pos + length > len(data):
                break  # torn tail
            payload = data[pos : pos + length]
            pos += length
            if zlib.crc32(payload) != crc:
                break  # torn/corrupt tail: stop at safe prefix
            group_id, ts = self._decode(payload)
            self._values[group_id] = max(self._values.get(group_id, 0), ts)
            self._records += 1

    @staticmethod
    def _encode(group_id: str, ts: int) -> bytes:
        gid = group_id.encode("utf-8")
        return len(gid).to_bytes(2, "little") + gid + ts.to_bytes(8, "little")

    @staticmethod
    def _decode(payload: bytes) -> tuple[str, int]:
        glen = int.from_bytes(payload[:2], "little")
        group_id = payload[2 : 2 + glen].decode("utf-8")
        ts = int.from_bytes(payload[2 + glen : 10 + glen], "little")
        return group_id, ts

    # ------------------------------------------------------------------ API

    def record(self, group_id: str, last_cts: int) -> None:
        """Persist one group-commit publication (the context hook target)."""
        with self._lock:
            if self._file.closed:
                raise WALError(f"record on closed context store {self.path}")
            payload = self._encode(group_id, last_cts)
            self._file.write(_FRAME.pack(zlib.crc32(payload), len(payload)))
            self._file.write(payload)
            self._values[group_id] = max(self._values.get(group_id, 0), last_cts)
            self._records += 1
            if self._records >= self.compact_after_records:
                self._compact_locked()

    def values(self) -> dict[str, int]:
        """The recovered (or current) group -> LastCTS map."""
        with self._lock:
            return dict(self._values)

    def last_cts(self, group_id: str) -> int:
        with self._lock:
            return self._values.get(group_id, 0)

    def compact(self) -> None:
        """Rewrite the log keeping only the newest record per group."""
        with self._lock:
            self._compact_locked()

    def _compact_locked(self) -> None:
        self._file.close()
        tmp = self.path.with_suffix(".compact")
        with open(tmp, "wb") as fh:
            for group_id, ts in sorted(self._values.items()):
                payload = self._encode(group_id, ts)
                fh.write(_FRAME.pack(zlib.crc32(payload), len(payload)))
                fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(self.path)
        # Durable publication of the compacted log requires flushing the
        # parent directory entry, or a crash can resurrect the pre-compaction
        # file while recovery assumes the rewrite completed (reprolint RL003).
        fsync_dir(self.path.parent)
        self._records = len(self._values)
        self._file = open(self.path, "ab")

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                os.fsync(self._file.fileno())
                self._file.close()

    def __enter__(self) -> "ContextStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
