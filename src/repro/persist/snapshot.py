"""Snapshot format: one ``payload.bin`` + a versioned JSON manifest.

One snapshot directory is a self-contained, immutable image of a
:class:`~repro.sql.session.Database`:

* ``payload.bin`` — every array of the image, raw and back to back:
  each column BAT's tail (for varchar, the int64 heap offsets), optional
  head and varchar heap ``atoms`` (bytes and atom lengths, in offset
  order); each relation's tombstones; and each cracked column's
  reorganised value/oid storage, index boundaries (``idx_exact_values``
  in the column's dtype, ``idx_ranks``, ``idx_positions``) and pending
  buffers;
* ``manifest.json`` — format version, generation, cumulative statement
  count, the catalog, each cracker's scalar metadata, and per array a
  reference ``[offset, dtype, length, crc32]`` into the payload, which
  loading checks.

Formats 1 and 2 named one ``.npy``/``.npz`` file per array or group
where format 3 has a reference; they still load, unchecked.  Format 1
held boundary values as float64 (the column's dtype keeps those it holds
exactly); older stores have no ``atoms`` and decoded varchar tails.

Writing is split in two so a checkpoint can leave the statement that
triggers it: :func:`capture_snapshot` takes private copies of all of it
(no I/O), and :func:`write_image` writes those copies, on any thread.

The cracker payloads are what make a restart *warm*: restoring them
skips the cracking burn-in entirely — the first post-restore query
navigates the same piece boundaries the exported store had earned from
its query stream.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.core.cracked_column import CrackedColumn
from repro.errors import PersistError, StorageError
from repro.storage.bat import BAT
from repro.storage.table import Column, Relation, Schema

#: Manifest format version; bump on incompatible layout changes.
FORMAT_VERSION = 3

#: Formats :func:`read_manifest` accepts.
READABLE_FORMATS = (1, 2, FORMAT_VERSION)

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.bin"


def _fsync_directory(directory: Path) -> None:
    """Make a directory's entries durable (best effort off posix)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-posix platforms
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------- #
# Cracker codec: export_state dict <-> (named arrays, manifest meta)
# ---------------------------------------------------------------------- #


#: A cracker's storage and pending-buffer arrays, under their
#: ``export_state`` names (pre-DML snapshots lack the last three, which
#: ``from_state`` defaults to empty), and its index arrays.
_CRACKER_ARRAYS = (
    "values", "oids", "pending_values", "pending_oids",
    "pending_delete_oids", "pending_update_oids", "pending_update_values",
)
_INDEX_ARRAYS = {"exact_values": "idx_exact_values", "ranks": "idx_ranks",
                 "positions": "idx_positions"}


def pack_cracker(column: CrackedColumn) -> tuple[dict, dict]:
    """(named arrays, manifest meta) for one cracked column."""
    state = column.export_state()
    index = state["index"]
    arrays = {key: state[key] for key in _CRACKER_ARRAYS}
    arrays.update({name: index[key] for key, name in _INDEX_ARRAYS.items()})
    meta = {
        "kind": "single",
        "next_oid": int(state["next_oid"]),
        "index": {"column_size": int(index["column_size"])},
    }
    return arrays, meta


def unpack_cracker(meta: dict, arrays, version: int) -> CrackedColumn:
    """Rebuild a cracked column from :func:`pack_cracker` output, written
    in manifest format ``version``.

    Older manifests also name a kernel, a crack-in-three toggle and a
    ``crack_threshold``; nothing reads them (the cut-off is the opener's).
    """
    kind = meta.get("kind")
    if kind != "single":
        raise PersistError(f"unknown cracker kind {kind!r} in snapshot manifest")
    index = {key: arrays[name] for key, name in _INDEX_ARRAYS.items()}
    index["column_size"] = int(meta["index"]["column_size"])
    if version == 1:
        # Format 1 held every boundary value as a float64 (exact: the
        # index admitted no other) plus an is-int flag.  The column's
        # dtype decides: a boundary an int column cannot hold (5.5,
        # +inf) is dropped, which merges the two pieces beside it.
        values = index["exact_values"].astype(np.float64)
        dtype = arrays["values"].dtype
        keep = np.ones(len(values), dtype=bool)
        if dtype.kind != "f":
            keep = (np.floor(values) == values) & (values >= -(2.0**63)) & (values < 2.0**63)
        index.update(
            exact_values=values[keep].astype(dtype),
            ranks=index["ranks"][keep],
            positions=index["positions"][keep],
        )
    state = {key: arrays[key] for key in _CRACKER_ARRAYS if key in arrays}
    state.update(next_oid=int(meta["next_oid"]), index=index)
    return CrackedColumn.from_state(state)


# ---------------------------------------------------------------------- #
# Snapshot write
# ---------------------------------------------------------------------- #


def capture_snapshot(database) -> dict:
    """Private copies of everything a snapshot holds; no file I/O.

    Taken under the database's statement lock, by the statement that
    triggered the checkpoint (or by :meth:`Database.checkpoint`), so no
    other statement runs between the copies and the WAL switch.  The
    image stays valid while the database keeps running, so
    :func:`write_image` may run on another thread.
    """
    tables = []
    for name in database.catalog.table_names():
        relation = database.catalog.table(name)
        tables.append(
            {
                "name": name,
                "rows": len(relation),
                "columns": [[c.name, c.col_type] for c in relation.schema],
                "bats": [
                    (column.name, relation.bats[column.name].export_state())
                    for column in relation.schema
                ],
                "deleted": (
                    relation.deleted_positions()
                    if relation.deleted_count
                    else None
                ),
            }
        )
    crackers = []
    provider = database._cracker
    if provider is not None:
        for (table, attr), column in sorted(provider.columns().items()):
            arrays, meta = pack_cracker(column)
            crackers.append((table, attr, arrays, meta))
    return {"tables": tables, "crackers": crackers}


def _write_manifest(directory: Path, manifest: dict) -> None:
    """Write ``manifest.json`` (fsynced): the last file of a snapshot."""
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())


def write_image(
    image: dict, directory: Path | str, generation: int, statements_logged: int
) -> dict:
    """Write a :func:`capture_snapshot` image into ``directory``.

    Every array goes into ``payload.bin`` straight from its own buffer,
    and the file is fsynced once; the manifest, holding each array's
    reference, is written last, so a directory with a readable manifest
    is complete by construction.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / PAYLOAD_NAME, "wb") as payload:

        def put(array: np.ndarray) -> list:
            """Append one array; its reference."""
            raw, offset = array.view(np.uint8), payload.tell()
            payload.write(raw)
            return [offset, array.dtype.str, array.size, zlib.crc32(raw)]

        tables = []
        for table in image["tables"]:
            bats = []
            for column_name, state in table["bats"]:
                entry = {
                    "column": column_name,
                    "file": put(state["tail"]),
                    "head": None if state["head"] is None else put(state["head"]),
                    "seq_base": state["seq_base"],
                    "sorted": state["sorted"],
                }
                if "atoms" in state:
                    data, lengths = state["atoms"]
                    entry["atoms"] = {"bytes": put(data), "lengths": put(lengths)}
                bats.append(entry)
            deleted = table["deleted"]
            tables.append(
                {**table, "bats": bats, "deleted": None if deleted is None else put(deleted)}
            )
        crackers = [
            {"table": table, "attr": attr, "meta": meta,
             "file": {name: put(array) for name, array in arrays.items()}}
            for table, attr, arrays, meta in image["crackers"]
        ]
        payload.flush()
        os.fsync(payload.fileno())

    manifest = {
        "format": FORMAT_VERSION,
        "generation": int(generation),
        "statements_logged": int(statements_logged),
        "tables": tables,
        "crackers": crackers,
    }
    _write_manifest(directory, manifest)
    # The files are durable; their directory entries must be too, or a
    # machine crash after the CURRENT flip could leave the current
    # generation pointing at names that never reached disk.
    _fsync_directory(directory)
    return manifest


def snapshot_bytes(directory: Path | str) -> int:
    """Total payload bytes of a snapshot directory."""
    directory = Path(directory)
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


# ---------------------------------------------------------------------- #
# Snapshot load
# ---------------------------------------------------------------------- #


def read_manifest(directory: Path | str) -> dict:
    """Parse and version-check a snapshot manifest."""
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise PersistError(f"snapshot {directory} has no {MANIFEST_NAME}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise PersistError(f"snapshot {directory}: {MANIFEST_NAME} is corrupt: {exc}") from None
    version = manifest.get("format")
    if version not in READABLE_FORMATS:
        raise PersistError(
            f"snapshot format {version!r} unsupported (expected one of {READABLE_FORMATS})"
        )
    return manifest


def _load(directory: Path, ref, what: str):
    """The array a manifest reference names, or a dict for a group: format
    3's ``[offset, dtype, length, crc32]`` (or a dict of them), or the
    ``.npy``/``.npz`` file of formats 1-2.  A :class:`PersistError` names
    ``what`` if it is unreadable or damaged."""
    if isinstance(ref, dict):
        return {name: _load(directory, part, f"{what} {name}") for name, part in ref.items()}
    try:
        if isinstance(ref, str):
            loaded = np.load(directory / ref, allow_pickle=False)
            if isinstance(loaded, np.ndarray):
                return loaded
            with loaded:
                return {name: loaded[name] for name in loaded.files}
        offset, dtype, length, crc = ref
        array = np.empty(length, dtype=dtype)
        raw = array.view(np.uint8)
        with open(directory / PAYLOAD_NAME, "rb") as payload:
            payload.seek(offset)
            complete = payload.readinto(raw) == raw.size
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise PersistError(f"snapshot {directory}: cannot read {what}: {exc}") from exc
    if not complete or zlib.crc32(raw) != crc:
        raise PersistError(f"snapshot {directory}: {what} fails its length or CRC check")
    return array


def load_snapshot(database, directory: Path | str) -> dict:
    """Load a snapshot into ``database`` (fresh tables, warm crackers).

    Tables must not collide with existing ones — recovery targets a
    fresh database.  Cracker payloads are restored only when the
    database has cracking enabled; the data is complete either way, a
    cracking-disabled restore merely forfeits the warm indexes.

    A cracker entry of kind ``"sharded"`` (written by the removed
    shard-parallel path) takes the same forfeit: it is dropped from the
    returned manifest's ``crackers`` and counted in its
    ``crackers_dropped``, and the column re-cracks from the live rows on
    first touch.  Any other unknown kind raises.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    restorable = [
        entry
        for entry in manifest["crackers"]
        if entry["meta"].get("kind") != "sharded"
    ]
    manifest["crackers_dropped"] = len(manifest["crackers"]) - len(restorable)
    manifest["crackers"] = restorable

    for entry in manifest["tables"]:
        name = entry["name"]
        if database.catalog.has_table(name):
            raise PersistError(
                f"cannot load snapshot: table {name!r} already exists"
            )
        schema = Schema([Column(c, t) for c, t in entry["columns"]])
        relation = Relation(name, schema)
        lengths = set()
        for bat_entry in entry["bats"]:
            column_name = bat_entry["column"]
            qualified = f"{name}.{column_name}"
            head = bat_entry["head"]
            state = {
                "name": qualified,
                "tail_type": schema.column(column_name).col_type,
                "tail": _load(directory, bat_entry["file"], f"{qualified} tail"),
                "head": None if head is None else _load(directory, head, f"{qualified} head"),
                "seq_base": bat_entry["seq_base"],
                "sorted": bat_entry["sorted"],
            }
            # Older snapshots carry no atoms: their varchar tail is the
            # decoded unicode array, which from_state still reads.
            if bat_entry.get("atoms") is not None:
                atoms = _load(directory, bat_entry["atoms"], f"{qualified} atoms")
                state["atoms"] = (atoms["bytes"], atoms["lengths"])
            try:
                bat = BAT.from_state(state)
            except StorageError as exc:
                raise PersistError(f"snapshot {directory}: {exc}") from exc
            relation.bats[column_name] = bat
            lengths.add(len(bat))
        if len(lengths) > 1:
            raise PersistError(
                f"snapshot table {name!r} has misaligned columns: {lengths}"
            )
        if lengths and lengths != {entry["rows"]}:
            raise PersistError(
                f"snapshot table {name!r} announces {entry['rows']} rows, "
                f"payloads hold {lengths.pop()}"
            )
        # Pre-DML snapshots carry no tombstone payload.
        deleted = entry.get("deleted")
        if deleted is not None:
            relation.set_deleted_positions(
                _load(directory, deleted, f"{name} tombstones")
            )
        database.catalog.create_table(relation)

    provider = database._cracker
    if provider is not None:
        for entry in manifest["crackers"]:
            arrays = _load(directory, entry["file"], f"cracker {entry['table']}.{entry['attr']}")
            column = unpack_cracker(entry["meta"], arrays, manifest["format"])
            provider.attach_column(entry["table"], entry["attr"], column)
    return manifest
