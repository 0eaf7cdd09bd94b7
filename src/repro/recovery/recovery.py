"""Restart recovery: rebuild a consistent transactional system from disk.

Recovery requirements from the paper (Section 4): "the results of
successfully committed transactions are still available after a system
restart or crash ... recoverability ... must ensure that the states are
brought back or always stay in a consistent form."

The recovery invariants this module restores:

1. every state table's content equals its last *completed* (group-)commit —
   the base tables only ever receive whole committed batches, and the LSM
   WAL replays intact prefixes only, so this holds by construction;
2. each group's ``LastCTS`` is restored from the context store, so readers
   resume from exactly the snapshot boundary they would have seen before
   the crash;
3. the timestamp oracle restarts above every persisted timestamp, so new
   transactions sort after everything recovered;
4. uncommitted work is gone (write sets were volatile — nothing to undo).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.codecs import ORDERED_KEY_CODEC, PICKLE_CODEC, Codec
from ..core.manager import TransactionManager
from ..errors import StorageError
from ..storage.lsm import LSMOptions, LSMStore
from ..storage.wal import fsync_dir
from .redo import ContextStore


@dataclass
class RecoveryReport:
    """What a restart recovered."""

    states: list[str] = field(default_factory=list)
    rows_recovered: dict[str, int] = field(default_factory=dict)
    last_cts: dict[str, int] = field(default_factory=dict)
    oracle_restarted_at: int = 0


class DurableSystem:
    """A transaction manager wired for durability and restart.

    Owns an LSM store per state, a :class:`ContextStore` for group
    ``LastCTS``, and the recovery procedure.  Create it, register states
    and groups, use ``manager`` for transactions; after a crash, create it
    again over the same directory and call :meth:`recover`.

    ``key_encodings.json`` records the key codec each state was created
    with (its :attr:`~repro.core.codecs.Codec.format_name`), the way a
    sharded ``schema.json`` records ``key_encoding``: re-creating a state
    under another key codec raises :class:`~repro.errors.StorageError`
    before its base table is opened, instead of failing to decode its
    rows mid-:meth:`recover`.  A directory written before the file
    existed adopts the codec of the first reopen.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        protocol: str = "mvcc",
        sync: bool = True,
        key_codec: Codec = ORDERED_KEY_CODEC,
        value_codec: Codec = PICKLE_CODEC,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self.key_codec = key_codec
        self.value_codec = value_codec
        self.manager = TransactionManager(protocol=protocol)
        self.context_store = ContextStore(self.directory / "context.log", sync=sync)
        self.manager.context.attach_persistence(self.context_store.record)
        self._state_dirs: dict[str, Path] = {}
        self._key_encodings_path = self.directory / "key_encodings.json"
        self._key_encodings: dict[str, str] = {}
        if self._key_encodings_path.exists():
            try:
                self._key_encodings = json.loads(
                    self._key_encodings_path.read_text(encoding="utf-8")
                )
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise StorageError(
                    f"catalog {self._key_encodings_path} is not valid JSON: {exc}"
                ) from exc
            if not isinstance(self._key_encodings, dict):
                raise StorageError(
                    f"catalog {self._key_encodings_path} is not a JSON object"
                )

    # ------------------------------------------------------------- schema

    def create_table(self, state_id: str, **table_kwargs: Any):
        """Register a durable state backed by its own LSM directory."""
        key_codec = table_kwargs.pop("key_codec", self.key_codec)
        recorded = self._key_encodings.get(state_id)
        if recorded is None:
            self._key_encodings[state_id] = key_codec.format_name
            self._save_key_encodings()
        elif recorded != key_codec.format_name:
            raise StorageError(
                f"state {state_id!r} in {self.directory} stores keys encoded "
                f"with {recorded!r}, not {key_codec.format_name!r}; pass the "
                "key_codec it was created with"
            )
        state_dir = self.directory / "states" / state_id
        self._state_dirs[state_id] = state_dir
        backend = LSMStore(state_dir, LSMOptions(sync=self.sync))
        return self.manager.create_table(
            state_id,
            backend=backend,
            key_codec=key_codec,
            value_codec=table_kwargs.pop("value_codec", self.value_codec),
            location=str(state_dir),
            **table_kwargs,
        )

    def _save_key_encodings(self) -> None:
        """Atomically persist (tmp + fsync + rename + directory fsync)."""
        tmp = self._key_encodings_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._key_encodings, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(self._key_encodings_path)
        fsync_dir(self.directory)

    def register_group(self, group_id: str, state_ids: list[str]) -> None:
        self.manager.register_group(group_id, state_ids)

    # ------------------------------------------------------------ recovery

    def recover(self) -> RecoveryReport:
        """Run restart recovery; call after recreating tables and groups.

        Order matters: restore ``LastCTS`` (and fast-forward the oracle)
        first, then rebuild each table's version index from its base table
        stamping versions with the owning group's recovered ``LastCTS``.
        """
        report = RecoveryReport()
        persisted = self.context_store.values()
        self.manager.context.restore_last_cts(persisted)
        report.last_cts = persisted
        report.oracle_restarted_at = self.manager.context.oracle.current()
        for table in self.manager.tables():
            group = self.manager.context.group_of(table.state_id)
            rows = table.load_from_backend(bootstrap_cts=group.last_cts)
            report.states.append(table.state_id)
            report.rows_recovered[table.state_id] = rows
        return report

    def close(self) -> None:
        self.manager.close()
        self.context_store.close()

    def __enter__(self) -> "DurableSystem":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
