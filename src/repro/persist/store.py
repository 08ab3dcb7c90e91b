"""The durable store: snapshot generations + a chain of statement WALs.

Directory layout (one store per database)::

    persist_dir/
        CURRENT              # text file naming the durable generation K
        snapshot-00000K/     # manifest.json + payload.bin
        wal-00000K.log       # statements logged since snapshot K ...
        wal-0000(K+1).log    # ... and since each capture after it

Invariant: the durable image is *snapshot K, then wal-K, wal-(K+1), …
in order*, where K is what ``CURRENT`` names; only the last WAL of that
chain may have a torn tail.  A checkpoint is split in two:

* **capture** — on the triggering statement, under the database's
  statement lock: fsync and close wal-N, take private copies of every
  BAT and cracker (:func:`~repro.persist.snapshot.capture_snapshot`),
  and switch appends to a fresh, fsynced wal-(N+1).  Nothing is
  written but that empty file, so the statement pays only for the
  copies.
* **write** — on a writer thread: write snapshot N+1 from the copies,
  fsync its payload, manifest and directory, flip ``CURRENT``
  atomically, sweep the snapshots other than N+1 and the WALs before it.

A crash anywhere before the flip recovers snapshot K and replays the
whole chain, so nothing is lost; after it, snapshot N+1 and wal-(N+1).
At most one write is in flight: the next capture joins the previous
writer.  An explicit :meth:`PersistentStore.checkpoint` (and a server
stop) runs capture and write inline; :meth:`PersistentStore.close`
joins the writer.  A failed write leaves ``CURRENT`` where it was, is
counted in ``checkpoint_failures`` and is raised by the next explicit
checkpoint.

Write visibility: a statement becomes durable when its WAL frame is
complete on disk.  ``fsync_every`` batches the fsync, so a machine crash
may lose the last < ``fsync_every`` statements; a killed process loses
at most the frame being written (the OS page cache survives the
process).  A mutating statement's execute and append, and a capture,
each run under the database's statement lock, so a snapshot can never
capture an executed-but-unlogged statement — the window that would
otherwise double-apply it on replay.
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
    capture_snapshot,
    load_snapshot,
    snapshot_bytes,
    write_image,
)
from repro.persist.wal import StatementWAL, scan_wal

CURRENT_NAME = "CURRENT"


def _annotate(ck_span, job: dict) -> None:
    """Name the captured generation on a ``checkpoint`` span."""
    if ck_span is not None:
        ck_span.meta["generation"] = job["generation"]
        ck_span.meta["statements_compacted"] = job["statements_compacted"]


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
        #: The generation appends go to (wal-<generation>); a capture
        #: advances it.
        self.generation = 0
        #: The generation ``CURRENT`` names; a finished write advances it.
        self.durable_generation = 0
        #: Checkpoint writes that raised (on the writer thread or inline).
        self.checkpoint_failures = 0
        self._writer: threading.Thread | None = None
        self._writer_error: BaseException | None = None
        #: Statements logged over the store's whole lifetime (all
        #: generations); snapshot manifests record it so crash tests can
        #: identify the durable statement prefix exactly.
        self.statements_logged = 0
        self._since_checkpoint = 0
        self._unrestored_crackers = 0
        self._wal: StatementWAL | None = None
        # Serialises checkpoints: captures, inline writes, writer joins.
        self._lock = threading.RLock()
        self._checkpoint_due = False
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
        """Load the latest snapshot, replay the WAL chain, open for append.

        Returns the recovery report (also kept as :attr:`recovery`).
        The last WAL is truncated to its last intact frame, so appends
        after a torn crash never interleave with garbage; plan-cache
        epochs of every recovered table are bumped so stale cached plans
        (e.g. in a restore-into-live scenario) cannot outlive the
        restore.
        """
        with self._lock:
            durable = self._read_current()
            manifest = None
            self._unrestored_crackers = 0
            if durable > 0:
                manifest = load_snapshot(database, self.snapshot_dir(durable))
                if database._cracker is None:
                    # Data restored, warm indexes skipped: remember they
                    # exist so a checkpoint cannot silently discard them.
                    self._unrestored_crackers = len(manifest["crackers"])
            statements, generation, torn = self._scan_chain(durable)
            database._replaying = True
            try:
                for sql in statements:
                    database.execute(sql)
            finally:
                database._replaying = False
            database._plan_cache.invalidate_all(database.catalog.table_names())
            self.generation = generation
            self.durable_generation = durable
            base = int(manifest["statements_logged"]) if manifest else 0
            self.statements_logged = base + len(statements)
            self._since_checkpoint = len(statements)
            self._wal = StatementWAL(
                self.wal_path(generation), fsync_every=self.fsync_every
            )
            self.recovery = {
                "generation": durable,
                "snapshot_loaded": manifest is not None,
                "crackers_dropped": manifest["crackers_dropped"] if manifest else 0,
                "wal_statements_replayed": len(statements),
                "torn_tail_discarded": torn,
                "durable_statements": self.statements_logged,
            }
            return self.recovery

    def _scan_chain(self, first: int) -> tuple[list[str], int, bool]:
        """The statements of wal-``first``, wal-(``first``+1), … in order.

        Returns (statements, generation of the last WAL, torn).  The last
        WAL's torn tail is truncated; a torn WAL that another follows was
        fsynced whole before its successor existed, so it is corrupt.
        """
        statements: list[str] = []
        generation = first
        while True:
            path = self.wal_path(generation)
            found, valid_bytes, torn = scan_wal(path)
            statements.extend(found)
            following = self.wal_path(generation + 1).exists()
            if torn:
                if following:
                    raise PersistError(
                        f"{path} is corrupt: its tail is torn, but "
                        f"wal-{generation + 1:06d}.log follows it"
                    )
                with open(path, "rb+") as handle:
                    handle.truncate(valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
            if not following:
                return statements, generation, torn
            generation += 1

    # ------------------------------------------------------------------ #
    # Logging
    # ------------------------------------------------------------------ #

    def check_open(self) -> None:
        """Refuse a mutation on a closed store before it runs: applying
        it and then failing the WAL append would leave memory diverged
        from the durable image."""
        if self.closed:
            raise PersistError(
                "database is closed; reopen Database(persist_dir=...) to mutate"
            )

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (or recovery never did)."""
        return self._wal is None or self._wal.closed

    def log_statement(self, sql: str) -> None:
        """Append one executed statement; flags a checkpoint when due.

        Called under the database's statement lock, in execution order,
        so the append order *is* the execution order.  The checkpoint
        itself is left to :meth:`maybe_checkpoint`, which the session
        calls next.
        """
        wal = self._wal
        if wal is None:
            raise PersistError("store is not open (recover_into was never run)")
        wal.append(sql)
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

    def maybe_checkpoint(self, database) -> None:
        """Capture the checkpoint the policy flagged, if any.

        The capture runs here, on the statement that triggered it; a
        writer thread then writes the generation (see the module
        docstring).  Traced as a ``checkpoint`` span around the capture.
        """
        if not self._checkpoint_due:
            return
        with self._lock:
            if not self._checkpoint_due:
                return
            with obs_trace.span("checkpoint") as ck_span:
                job = self._capture(database)
            _annotate(ck_span, job)
            self._writer = threading.Thread(
                target=self._write_in_background,
                args=(job,),
                name="checkpoint-writer",
            )
            self._writer.start()

    # ------------------------------------------------------------------ #
    # Checkpoint
    # ------------------------------------------------------------------ #

    def checkpoint(self, database) -> dict:
        """Capture and write a snapshot generation now, inline.

        Joins a writer still in flight first; if that (or any earlier)
        background write failed, raises its error instead of
        checkpointing — the WAL chain still holds every statement.
        Traced as a ``checkpoint`` span (meta: the new generation and
        how many WAL statements it compacted) when a trace is active.
        """
        with self._lock:
            self._join_writer()
            error, self._writer_error = self._writer_error, None
            if error is not None:
                raise PersistError(
                    f"a background checkpoint failed: {error}"
                ) from error
            with obs_trace.span("checkpoint") as ck_span:
                job = self._capture(database)
                try:
                    report = self._write(job)
                except Exception:
                    self.checkpoint_failures += 1
                    raise
            _annotate(ck_span, job)
            return report

    def _capture(self, database) -> dict:
        """Switch appends to a fresh WAL and copy the state (lock held).

        Under the statement lock, so the copies hold exactly the
        statements logged before the switch.  The old WAL is fsynced and
        closed before the new one takes appends, which is what lets
        recovery treat a torn non-last WAL as corruption.
        """
        self._join_writer()
        if self.closed:
            raise PersistError("store is closed (or recover_into was never run)")
        if self._unrestored_crackers:
            # This session recovered data only (cracking disabled), so a
            # snapshot from it would drop the earned cracker state the
            # current generation still holds — and the sweep would then
            # delete the only copy.
            raise PersistError(
                f"checkpoint would discard {self._unrestored_crackers} warm "
                "cracker index(es) the snapshot holds but this session did "
                "not restore; reopen with cracking enabled to checkpoint"
            )
        image = capture_snapshot(database)
        generation = self.generation + 1
        new_wal = self.wal_path(generation)
        with open(new_wal, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        _fsync_directory(self.directory)
        self._wal.close()
        self._wal = StatementWAL(new_wal, fsync_every=self.fsync_every)
        job = {
            "image": image,
            "generation": generation,
            "previous_generation": self.generation,
            "statements_logged": self.statements_logged,
            # WAL statements this checkpoint folds into the snapshot
            # (not the store's cumulative lifetime count).
            "statements_compacted": self._since_checkpoint,
        }
        self.generation = generation
        self._since_checkpoint = 0
        self._checkpoint_due = False
        return job

    def _write(self, job: dict) -> dict:
        """Write a captured generation, flip ``CURRENT``, sweep.

        Each step is durable before the next: payload and manifest
        (fsynced, manifest last), then the atomic ``CURRENT`` flip, then
        the sweep — recovery never looks at a generation ``CURRENT``
        does not name, so the sweep is pure housekeeping.
        """
        generation = job["generation"]
        directory = self.snapshot_dir(generation)
        if directory.exists():  # leftover of an interrupted checkpoint
            shutil.rmtree(directory)
        manifest = write_image(
            job["image"], directory, generation, job["statements_logged"]
        )
        self._write_current(generation)
        self.durable_generation = generation
        self._sweep(keep=generation)
        return {
            "generation": generation,
            "tables": len(manifest["tables"]),
            "cracked_columns": len(manifest["crackers"]),
            "statements_compacted": job["statements_compacted"],
            "snapshot_bytes": snapshot_bytes(directory),
            "previous_generation": job["previous_generation"],
        }

    def _write_in_background(self, job: dict) -> None:
        """The writer thread: a failure is kept for the next checkpoint."""
        try:
            self._write(job)
        except Exception as exc:
            self.checkpoint_failures += 1
            self._writer_error = exc

    def _join_writer(self) -> None:
        writer = self._writer
        if writer is not None:
            writer.join()
            self._writer = None

    def _sweep(self, keep: int) -> None:
        """Best-effort removal of other snapshots and of older WALs."""
        for path in self.directory.iterdir():
            name = path.name
            try:
                if name.startswith("snapshot-") and path.is_dir():
                    if int(name.split("-")[1]) != keep:
                        shutil.rmtree(path)
                elif name.startswith("wal-") and name.endswith(".log"):
                    if int(name[4:-4]) < keep:
                        path.unlink()
            except (OSError, ValueError):  # pragma: no cover - housekeeping
                continue

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Counter snapshot for monitoring and tests."""
        wal = self._wal
        writer = self._writer
        return {
            "generation": self.generation,
            "durable_generation": self.durable_generation,
            "checkpoint_in_flight": writer is not None and writer.is_alive(),
            "checkpoint_failures": self.checkpoint_failures,
            "durable_statements": self.statements_logged,
            "statements_since_checkpoint": self._since_checkpoint,
            "wal_bytes": wal.size_bytes if wal is not None else 0,
            "fsync_every": self.fsync_every,
            "checkpoint_statements": self.checkpoint_statements,
            "checkpoint_wal_bytes": self.checkpoint_wal_bytes,
            **{f"recovery_{k}": v for k, v in self.recovery.items()},
        }

    def close(self) -> None:
        """Join the checkpoint writer, then flush and close the WAL
        (idempotent).  A failed background write stays counted; the WAL
        chain still holds its statements."""
        with self._lock:
            self._join_writer()
            if self._wal is not None:
                self._wal.close()
