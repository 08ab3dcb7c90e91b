"""Durability layer: snapshots, statement WAL, warm-restart recovery.

The paper's cracker index is *earned* from the query stream — its value
is the accumulated physical reorganisation.  This package makes that
investment survive restarts: a :class:`PersistentStore` pairs immutable
snapshot generations (catalog + BAT payloads + full cracker state) with
an append-only, CRC-framed statement WAL, so ``Database(persist_dir=...)``
recovers to *snapshot + WAL tail* and the first post-restore query
navigates the same piece boundaries the store had before it went down.
"""

from repro.persist.snapshot import (
    FORMAT_VERSION,
    capture_snapshot,
    load_snapshot,
    pack_cracker,
    read_manifest,
    snapshot_bytes,
    unpack_cracker,
    write_image,
)
from repro.persist.store import PersistentStore
from repro.persist.wal import StatementWAL, frame_record, scan_wal

__all__ = [
    "FORMAT_VERSION",
    "PersistentStore",
    "StatementWAL",
    "capture_snapshot",
    "frame_record",
    "load_snapshot",
    "pack_cracker",
    "read_manifest",
    "scan_wal",
    "snapshot_bytes",
    "unpack_cracker",
    "write_image",
]
