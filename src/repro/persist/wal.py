"""Append-only statement WAL with CRC-framed records.

The durability contract of the store is *logical redo*: every mutating
SQL statement (DDL, INSERT, SELECT ... INTO) is appended to the log
after it executed successfully, and recovery replays the log tail on top
of the latest snapshot.  Framing per record::

    <u32 payload length> <u32 crc32(payload)> <payload utf-8 SQL>

Replay walks the frames front to back and stops at the first torn or
corrupt record (short frame, implausible length, CRC mismatch) — exactly
the crash-consistency model of a physical WAL tail: a statement is
durable iff its frame landed completely.  Recovery truncates the file to
the last valid frame so later appends never interleave with garbage.

``fsync_every`` batches the expensive ``fsync``: the OS page cache
already survives a killed *process*; the fsync cadence is what bounds
loss on a machine crash.  Every append flushes the user-space buffer, so
``kill -9`` loses at most the statement whose frame was mid-write.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path

from repro.errors import PersistError
from repro.obs import trace as obs_trace

#: Frame header: little-endian payload length + CRC32 of the payload.
_HEADER = struct.Struct("<II")

#: Replay refuses frames larger than this — a length field pointing past
#: any plausible statement means the tail is garbage, not a record.
MAX_RECORD_BYTES = 64 * 1024 * 1024


def frame_record(payload: bytes) -> bytes:
    """One framed WAL record for ``payload``."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_wal(path: Path | str) -> tuple[list[str], int, bool]:
    """Decode a WAL file into its durable statement prefix.

    Returns:
        (statements, valid_bytes, torn): the statements of every intact
        frame in order, the byte offset of the end of the last intact
        frame, and whether trailing bytes past that offset were
        discarded (a torn or corrupt tail).
    """
    path = Path(path)
    if not path.exists():
        return [], 0, False
    data = path.read_bytes()
    statements: list[str] = []
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        stop = start + length
        if length > MAX_RECORD_BYTES or stop > total:
            break
        payload = data[start:stop]
        if zlib.crc32(payload) != crc:
            break
        try:
            statements.append(payload.decode("utf-8"))
        except UnicodeDecodeError:
            break
        offset = stop
    return statements, offset, offset != total


class StatementWAL:
    """Single-writer append handle over one WAL file.

    Args:
        path: log file (created if absent; opened in append mode).
        fsync_every: fsync after every Nth append (1 = every record,
            0 = never fsync explicitly — flush-only, the cheapest mode).

    Thread-safe: appends serialise on an internal lock, so concurrent
    callers always log whole frames.  Replay correctness additionally
    needs append order to equal execution order; the SQL layer
    guarantees that by running execute + append under its statement
    lock (see :class:`~repro.persist.store.PersistentStore`).
    """

    def __init__(self, path: Path | str, fsync_every: int = 64) -> None:
        if fsync_every < 0:
            raise PersistError(
                f"fsync_every must be >= 0, got {fsync_every}"
            )
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "ab")
        self._lock = threading.Lock()
        self._since_sync = 0
        self.appended = 0

    @property
    def size_bytes(self) -> int:
        """Current log size (flushed frames included)."""
        with self._lock:
            if self._handle.closed:
                return self.path.stat().st_size if self.path.exists() else 0
            self._handle.flush()
            return self._handle.tell()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def append(self, statement: str) -> None:
        """Frame and append one statement; flush always, fsync per policy.

        Rejects payloads larger than :data:`MAX_RECORD_BYTES` *before*
        writing: replay treats such a length field as a torn tail, so an
        oversized frame would silently void every statement after it.
        """
        payload = statement.encode("utf-8")
        if len(payload) > MAX_RECORD_BYTES:
            raise PersistError(
                f"statement of {len(payload)} bytes exceeds the WAL record "
                f"limit ({MAX_RECORD_BYTES}); split the statement"
            )
        record = frame_record(payload)
        with obs_trace.span("wal_append", bytes=len(record)):
            with self._lock:
                if self._handle.closed:
                    raise PersistError(f"WAL {self.path} is closed")
                self._handle.write(record)
                self._handle.flush()
                self.appended += 1
                self._since_sync += 1
                if self.fsync_every and self._since_sync >= self.fsync_every:
                    with obs_trace.span("wal_fsync"):
                        os.fsync(self._handle.fileno())
                    self._since_sync = 0

    def close(self) -> None:
        """Flush, fsync and close (idempotent)."""
        with self._lock:
            if self._handle.closed:
                return
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
