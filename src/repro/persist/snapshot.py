"""Snapshot format: per-BAT ``.npy`` payloads + a versioned JSON manifest.

One snapshot directory is a self-contained, immutable image of a
:class:`~repro.sql.session.Database`:

* ``manifest.json`` — format version, generation, cumulative statement
  count, the catalog (tables, schemas), and the scalar metadata of every
  cracked column;
* ``bat-<i>.npy`` (+ optional ``bat-<i>.head.npy``) — one payload per
  column BAT: its raw tail, which for varchar is the int64 heap offsets;
* ``bat-<i>.atoms.npz`` — a varchar BAT's heap: its bytes and each
  atom's length, in offset order.  Loading re-puts the atoms, which
  hands each its saved offset, and checks every tail offset against
  them.  Older snapshots have no atoms file and a tail of decoded
  unicode atoms, one per row; they still load;
* ``cracker-<j>.npz`` — the full cracker state of one column: the
  physically reorganised value/oid storage, the cracker index's
  boundary arrays (``idx_exact_values`` in the column's own dtype,
  ``idx_ranks``, ``idx_positions``), and the pending-update buffers.
  Format 1 held the boundary values as float64 plus an is-int flag
  vector; it still loads, keeping the boundaries the column's dtype
  holds exactly.

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
from pathlib import Path

import numpy as np

from repro.core.cracked_column import CrackedColumn
from repro.errors import PersistError, StorageError
from repro.storage.bat import BAT
from repro.storage.table import Column, Relation, Schema

#: Manifest format version; bump on incompatible layout changes.
FORMAT_VERSION = 2

#: Formats :func:`read_manifest` accepts.
READABLE_FORMATS = (1, FORMAT_VERSION)

MANIFEST_NAME = "manifest.json"


def _save_array(path: Path, array: np.ndarray) -> None:
    """np.save with an explicit flush + fsync (snapshots must be durable)."""
    with open(path, "wb") as handle:
        np.save(handle, array, allow_pickle=False)
        handle.flush()
        os.fsync(handle.fileno())


def _save_archive(path: Path, arrays: dict) -> None:
    """np.savez with an explicit flush + fsync."""
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())


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
# Cracker codec: export_state dict <-> (npz arrays, manifest meta)
# ---------------------------------------------------------------------- #


#: A cracker archive's storage and pending-buffer arrays, under their
#: ``export_state`` names (pre-DML archives lack the last three, which
#: ``from_state`` defaults to empty), and its index arrays.
_CRACKER_ARRAYS = (
    "values", "oids", "pending_values", "pending_oids",
    "pending_delete_oids", "pending_update_oids", "pending_update_values",
)
_INDEX_ARRAYS = {"exact_values": "idx_exact_values", "ranks": "idx_ranks",
                 "positions": "idx_positions"}


def pack_cracker(column: CrackedColumn) -> tuple[dict, dict]:
    """(npz arrays, manifest meta) for one cracked column."""
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
    names = getattr(arrays, "files", arrays)
    state = {key: arrays[key] for key in _CRACKER_ARRAYS if key in names}
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

    Every payload file is fsynced; the manifest is written last, so a
    directory with a readable manifest is complete by construction.  A
    varchar BAT is saved as its raw heap offsets (``bat-<i>.npy``) plus
    the heap's atoms in offset order (``bat-<i>.atoms.npz``).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    tables = []
    bat_counter = 0
    for table in image["tables"]:
        bats = []
        for column_name, state in table["bats"]:
            payload = f"bat-{bat_counter}.npy"
            _save_array(directory / payload, state["tail"])
            entry = {
                "column": column_name,
                "file": payload,
                "head": None,
                "seq_base": state["seq_base"],
                "sorted": state["sorted"],
            }
            if state["head"] is not None:
                entry["head"] = f"bat-{bat_counter}.head.npy"
                _save_array(directory / entry["head"], state["head"])
            if "atoms" in state:
                entry["atoms"] = f"bat-{bat_counter}.atoms.npz"
                data, lengths = state["atoms"]
                _save_archive(
                    directory / entry["atoms"], {"bytes": data, "lengths": lengths}
                )
            bats.append(entry)
            bat_counter += 1
        deleted_file = None
        if table["deleted"] is not None:
            deleted_file = f"del-{len(tables)}.npy"
            _save_array(directory / deleted_file, table["deleted"])
        tables.append(
            {
                "name": table["name"],
                "rows": table["rows"],
                "columns": table["columns"],
                "bats": bats,
                "deleted": deleted_file,
            }
        )

    crackers = []
    for j, (table, attr, arrays, meta) in enumerate(image["crackers"]):
        payload = f"cracker-{j}.npz"
        _save_archive(directory / payload, arrays)
        crackers.append({"table": table, "attr": attr, "file": payload, "meta": meta})

    manifest = {
        "format": FORMAT_VERSION,
        "generation": int(generation),
        "statements_logged": int(statements_logged),
        "tables": tables,
        "crackers": crackers,
    }
    _write_manifest(directory, manifest)
    # The payload *files* are durable; their directory entries must be
    # too, or a machine crash after the CURRENT flip could leave the
    # current generation pointing at names that never reached disk.
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
    manifest = json.loads(path.read_text(encoding="utf-8"))
    version = manifest.get("format")
    if version not in READABLE_FORMATS:
        raise PersistError(
            f"snapshot format {version!r} unsupported (expected one of {READABLE_FORMATS})"
        )
    return manifest


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
            tail = np.load(directory / bat_entry["file"], allow_pickle=False)
            head = None
            if bat_entry["head"] is not None:
                head = np.load(directory / bat_entry["head"], allow_pickle=False)
            column_name = bat_entry["column"]
            state = {
                "name": f"{name}.{column_name}",
                "tail_type": schema.column(column_name).col_type,
                "tail": tail,
                "head": head,
                "seq_base": bat_entry["seq_base"],
                "sorted": bat_entry["sorted"],
            }
            # Older snapshots carry no atoms: their varchar tail is the
            # decoded unicode array, which from_state still reads.
            if bat_entry.get("atoms") is not None:
                with np.load(directory / bat_entry["atoms"]) as atoms:
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
        deleted_file = entry.get("deleted")
        if deleted_file is not None:
            relation.set_deleted_positions(
                np.load(directory / deleted_file, allow_pickle=False)
            )
        database.catalog.create_table(relation)

    provider = database._cracker
    if provider is not None:
        for entry in manifest["crackers"]:
            with np.load(directory / entry["file"], allow_pickle=False) as arrays:
                column = unpack_cracker(entry["meta"], arrays, manifest["format"])
            provider.attach_column(entry["table"], entry["attr"], column)
    return manifest
