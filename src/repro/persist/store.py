"""The durable store: snapshot generations + statement WAL + recovery.

Directory layout (one store per database)::

    persist_dir/
        CURRENT              # text file naming the durable generation N
        snapshot-00000N/     # manifest.json + .npy/.npz payloads
        wal-00000N.log       # statements logged since snapshot N

Invariant: the durable image is always *snapshot N + the intact prefix
of wal-N*.  A checkpoint writes snapshot N+1 and an empty wal-N+1 fully
(fsynced) **before** atomically flipping ``CURRENT``; a crash at any
point therefore recovers either the old generation (with its complete
WAL) or the new one — never a mix.  Stale files from interrupted
checkpoints are swept opportunistically.

Write visibility: a statement becomes durable when its WAL frame is
complete on disk.  ``fsync_every`` batches the fsync, so a machine crash
may lose the last < ``fsync_every`` statements; a killed process loses
at most the frame being written (the OS page cache survives the
process).  Mutating statements hold the store's barrier (read side)
across execute + append, and a checkpoint takes the write side, so a
snapshot can never capture an executed-but-unlogged statement — the
window that would otherwise double-apply it on replay.
"""

from __future__ import annotations

import os
import shutil
import threading
from pathlib import Path

from repro.errors import PersistError
from repro.obs import trace as obs_trace
from repro.persist.snapshot import (
    _fsync_directory,
    load_snapshot,
    snapshot_bytes,
    write_snapshot,
)
from repro.persist.wal import StatementWAL, scan_wal

CURRENT_NAME = "CURRENT"


class PersistentStore:
    """Durability manager bound to one :class:`~repro.sql.session.Database`.

    Args:
        directory: the store's root; created if absent.
        fsync_every: WAL fsync batching (1 = every statement, 0 = flush
            only; see :class:`~repro.persist.wal.StatementWAL`).
        checkpoint_statements: auto-checkpoint after this many logged
            statements (None disables the trigger).
        checkpoint_wal_bytes: auto-checkpoint once the WAL grows past
            this many bytes (None disables the trigger).
    """

    def __init__(
        self,
        directory: Path | str,
        fsync_every: int = 64,
        checkpoint_statements: int | None = None,
        checkpoint_wal_bytes: int | None = None,
    ) -> None:
        if checkpoint_statements is not None and checkpoint_statements < 1:
            raise PersistError(
                f"checkpoint_statements must be >= 1, got {checkpoint_statements}"
            )
        if checkpoint_wal_bytes is not None and checkpoint_wal_bytes < 1:
            raise PersistError(
                f"checkpoint_wal_bytes must be >= 1, got {checkpoint_wal_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_every = fsync_every
        self.checkpoint_statements = checkpoint_statements
        self.checkpoint_wal_bytes = checkpoint_wal_bytes
        self.generation = 0
        #: Statements logged over the store's whole lifetime (all
        #: generations); snapshot manifests record it so crash tests can
        #: identify the durable statement prefix exactly.
        self.statements_logged = 0
        self._since_checkpoint = 0
        self._unrestored_crackers = 0
        self._wal: StatementWAL | None = None
        self._lock = threading.RLock()
        self._counter_lock = threading.Lock()
        self._checkpoint_due = False
        # Serialises the execute→append window: mutating statements hold
        # it across both, so (a) WAL order always equals execution order
        # — replay of CREATE-then-INSERT races cannot invert — and (b) a
        # checkpoint (which also takes it) can never snapshot an
        # executed-but-unlogged statement.  SELECTs never touch it.
        self._barrier = threading.RLock()
        self.recovery: dict = {}

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def snapshot_dir(self, generation: int) -> Path:
        return self.directory / f"snapshot-{generation:06d}"

    def wal_path(self, generation: int) -> Path:
        return self.directory / f"wal-{generation:06d}.log"

    def _read_current(self) -> int:
        path = self.directory / CURRENT_NAME
        if not path.is_file():
            return 0
        text = path.read_text(encoding="utf-8").strip()
        try:
            return int(text)
        except ValueError:
            raise PersistError(
                f"{path} is corrupt: expected a generation number, got {text!r}"
            ) from None

    def _write_current(self, generation: int) -> None:
        path = self.directory / CURRENT_NAME
        tmp = self.directory / (CURRENT_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(f"{generation}\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_directory(self.directory)

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def recover_into(self, database) -> dict:
        """Load the latest snapshot, replay the WAL tail, open for append.

        Returns the recovery report (also kept as :attr:`recovery`).
        The WAL is truncated to its last intact frame, so appends after
        a torn crash never interleave with garbage; plan-cache epochs of
        every recovered table are bumped so stale cached plans (e.g. in
        a restore-into-live scenario) cannot outlive the restore.
        """
        with self._lock:
            generation = self._read_current()
            manifest = None
            self._unrestored_crackers = 0
            if generation > 0:
                manifest = load_snapshot(database, self.snapshot_dir(generation))
                if database._cracker is None:
                    # Data restored, warm indexes skipped: remember they
                    # exist so a checkpoint cannot silently discard them.
                    self._unrestored_crackers = len(manifest["crackers"])
            statements, valid_bytes, torn = scan_wal(self.wal_path(generation))
            if torn:
                with open(self.wal_path(generation), "rb+") as handle:
                    handle.truncate(valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
            database._replaying = True
            try:
                for sql in statements:
                    database.execute(sql)
            finally:
                database._replaying = False
            database._plan_cache.invalidate_all(database.catalog.table_names())
            self.generation = generation
            base = int(manifest["statements_logged"]) if manifest else 0
            self.statements_logged = base + len(statements)
            self._since_checkpoint = len(statements)
            self._wal = StatementWAL(
                self.wal_path(generation), fsync_every=self.fsync_every
            )
            self.recovery = {
                "generation": generation,
                "snapshot_loaded": manifest is not None,
                "crackers_dropped": manifest["crackers_dropped"] if manifest else 0,
                "wal_statements_replayed": len(statements),
                "torn_tail_discarded": torn,
                "durable_statements": self.statements_logged,
            }
            return self.recovery

    # ------------------------------------------------------------------ #
    # Logging
    # ------------------------------------------------------------------ #

    def mutation_guard(self):
        """Context manager the session holds across execute + append.

        Exclusive: persistent mutations serialise on it, which is what
        makes the WAL a faithful serialisation — the append order *is*
        the execution order.  Reads (SELECTs) are unaffected.
        """
        return self._barrier

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (or recovery never did)."""
        return self._wal is None or self._wal.closed

    def log_statement(self, sql: str) -> None:
        """Append one executed statement; flags a checkpoint when due.

        Must be called under :meth:`mutation_guard`.  The checkpoint
        itself is deferred to :meth:`maybe_checkpoint` (called after the
        guard is released) so the snapshot export never runs inside a
        statement's critical section.
        """
        wal = self._wal
        if wal is None:
            raise PersistError("store is not open (recover_into was never run)")
        wal.append(sql)
        with self._counter_lock:
            self.statements_logged += 1
            self._since_checkpoint += 1
            due = (
                self.checkpoint_statements is not None
                and self._since_checkpoint >= self.checkpoint_statements
            )
        if not due and self.checkpoint_wal_bytes is not None:
            due = wal.size_bytes >= self.checkpoint_wal_bytes
        if due:
            self._checkpoint_due = True

    def maybe_checkpoint(self, database) -> dict | None:
        """Run the checkpoint the policy flagged, if any."""
        if not self._checkpoint_due:
            return None
        with self._lock:
            if not self._checkpoint_due:
                return None
            return self.checkpoint(database)

    # ------------------------------------------------------------------ #
    # Checkpoint
    # ------------------------------------------------------------------ #

    def checkpoint(self, database) -> dict:
        """Compact WAL + live state into a fresh snapshot generation.

        Order of operations (each step durable before the next):
        snapshot N+1 written and fsynced → empty wal-N+1 created →
        ``CURRENT`` flipped atomically → append handle swapped → old
        generation swept.  A crash before the flip recovers generation N
        with its complete WAL; after the flip, generation N+1.

        Traced as a ``checkpoint`` span (meta: the new generation and
        how many WAL statements it compacted) when a trace is active.
        """
        with obs_trace.span("checkpoint") as ck_span:
            report = self._checkpoint(database)
        if ck_span is not None:
            ck_span.meta["generation"] = report["generation"]
            ck_span.meta["statements_compacted"] = report["statements_compacted"]
        return report

    def _checkpoint(self, database) -> dict:
        with self._lock:
            if self.closed:
                raise PersistError(
                    "store is closed (or recover_into was never run)"
                )
            if self._unrestored_crackers:
                # This session recovered data only (cracking disabled),
                # so a snapshot from it would drop the earned cracker
                # state the current generation still holds — and the
                # sweep would then delete the only copy.
                raise PersistError(
                    f"checkpoint would discard {self._unrestored_crackers} warm "
                    "cracker index(es) the snapshot holds but this session did "
                    "not restore; reopen with cracking enabled to checkpoint"
                )
            with self._barrier:
                self._wal.sync()
                compacted_now = self._since_checkpoint
                new_generation = self.generation + 1
                new_dir = self.snapshot_dir(new_generation)
                if new_dir.exists():  # leftover of an interrupted checkpoint
                    shutil.rmtree(new_dir)
                manifest = write_snapshot(
                    database, new_dir, new_generation, self.statements_logged
                )
                new_wal = self.wal_path(new_generation)
                with open(new_wal, "wb") as handle:
                    handle.flush()
                    os.fsync(handle.fileno())
                self._write_current(new_generation)
                old_generation = self.generation
                self._wal.close()
                self._wal = StatementWAL(new_wal, fsync_every=self.fsync_every)
                self.generation = new_generation
                self._since_checkpoint = 0
                self._checkpoint_due = False
            # Sweep outside the barrier: recovery never looks at
            # non-CURRENT generations, so this is pure housekeeping.
            self._sweep(keep=new_generation)
            return {
                "generation": new_generation,
                "tables": len(manifest["tables"]),
                "cracked_columns": len(manifest["crackers"]),
                # WAL statements this checkpoint folded into the snapshot
                # (not the store's cumulative lifetime count).
                "statements_compacted": compacted_now,
                "snapshot_bytes": snapshot_bytes(new_dir),
                "previous_generation": old_generation,
            }

    def _sweep(self, keep: int) -> None:
        """Best-effort removal of non-current generations."""
        for path in self.directory.iterdir():
            name = path.name
            try:
                if name.startswith("snapshot-") and path.is_dir():
                    if int(name.split("-")[1]) != keep:
                        shutil.rmtree(path)
                elif name.startswith("wal-") and name.endswith(".log"):
                    if int(name[4:-4]) != keep:
                        path.unlink()
            except (OSError, ValueError):  # pragma: no cover - housekeeping
                continue

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Counter snapshot for monitoring and tests."""
        wal = self._wal
        return {
            "generation": self.generation,
            "durable_statements": self.statements_logged,
            "statements_since_checkpoint": self._since_checkpoint,
            "wal_bytes": wal.size_bytes if wal is not None else 0,
            "fsync_every": self.fsync_every,
            "checkpoint_statements": self.checkpoint_statements,
            "checkpoint_wal_bytes": self.checkpoint_wal_bytes,
            **{f"recovery_{k}": v for k, v in self.recovery.items()},
        }

    def close(self) -> None:
        """Flush and close the WAL handle (idempotent)."""
        with self._lock:
            if self._wal is not None:
                self._wal.close()
