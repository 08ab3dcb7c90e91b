"""Snapshot format: per-BAT ``.npy`` payloads + a versioned JSON manifest.

One snapshot directory is a self-contained, immutable image of a
:class:`~repro.sql.session.Database`:

* ``manifest.json`` — format version, generation, cumulative statement
  count, the catalog (tables, schemas), and the scalar metadata of every
  cracked column;
* ``bat-<i>.npy`` (+ optional ``bat-<i>.head.npy``) — one payload per
  column BAT: raw numeric tails, decoded unicode atoms for varchar;
* ``cracker-<j>.npz`` — the full cracker state of one column: the
  physically reorganised value/oid storage, the cracker-index
  structure-of-arrays (boundary values, kind ranks, positions, exact
  values), and the pending-update buffers.

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
from repro.errors import PersistError
from repro.storage.bat import BAT
from repro.storage.table import Column, Relation, Schema

#: Manifest format version; bump on incompatible layout changes.
FORMAT_VERSION = 1

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


def _pack_index(state: dict, arrays: dict) -> dict:
    arrays["idx_values"] = state["values"]
    arrays["idx_ranks"] = state["ranks"]
    arrays["idx_positions"] = state["positions"]
    arrays["idx_exact_values"] = state["exact_values"]
    arrays["idx_exact_is_int"] = state["exact_is_int"]
    return {"column_size": int(state["column_size"])}


def _unpack_index(meta: dict, arrays) -> dict:
    return {
        "column_size": int(meta["column_size"]),
        "values": arrays["idx_values"],
        "ranks": arrays["idx_ranks"],
        "positions": arrays["idx_positions"],
        "exact_values": arrays["idx_exact_values"],
        "exact_is_int": arrays["idx_exact_is_int"],
    }


def pack_cracker(column: CrackedColumn) -> tuple[dict, dict]:
    """(npz arrays, manifest meta) for one cracked column."""
    state = column.export_state()
    arrays = {
        "values": state["values"],
        "oids": state["oids"],
        "pending_values": state["pending_values"],
        "pending_oids": state["pending_oids"],
        "pending_delete_oids": state["pending_delete_oids"],
        "pending_update_oids": state["pending_update_oids"],
        "pending_update_values": state["pending_update_values"],
    }
    meta = {
        "kind": "single",
        "next_oid": int(state["next_oid"]),
        "index": _pack_index(state["index"], arrays),
    }
    return arrays, meta


def unpack_cracker(meta: dict, arrays) -> CrackedColumn:
    """Rebuild a cracked column from :func:`pack_cracker` output.

    Older manifests also name a kernel, a crack-in-three toggle and a
    ``crack_threshold``; nothing reads them (the cut-off is the opener's).
    """
    kind = meta.get("kind")
    if kind != "single":
        raise PersistError(f"unknown cracker kind {kind!r} in snapshot manifest")
    state = {
        "values": arrays["values"],
        "oids": arrays["oids"],
        "pending_values": arrays["pending_values"],
        "pending_oids": arrays["pending_oids"],
        "next_oid": int(meta["next_oid"]),
        "index": _unpack_index(meta["index"], arrays),
    }
    # Pre-DML archives have no delete/update buffers; from_state defaults
    # the missing keys to empty.
    for key in (
        "pending_delete_oids",
        "pending_update_oids",
        "pending_update_values",
    ):
        if key in getattr(arrays, "files", arrays):
            state[key] = arrays[key]
    return CrackedColumn.from_state(state)


# ---------------------------------------------------------------------- #
# Snapshot write
# ---------------------------------------------------------------------- #


def write_snapshot(
    database, directory: Path | str, generation: int, statements_logged: int
) -> dict:
    """Write a complete snapshot of ``database`` into ``directory``.

    The export is taken under the database's own locks (catalog lock,
    per-relation write locks, per-cracker write locks), so a concurrent
    reader never yields a half-updated image; the caller is responsible
    for excluding the execute→WAL-append window (see
    :class:`~repro.persist.store.PersistentStore`).  Every payload file
    is fsynced; the manifest is written last, so a directory with a
    readable manifest is complete by construction.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    tables = []
    bat_counter = 0
    with database._catalog_lock:
        names = database.catalog.table_names()
    for name in names:
        relation = database.catalog.table(name)
        with relation.write_lock:
            bats = []
            for column in relation.schema:
                bat = relation.bats[column.name]
                state = bat.export_state()
                payload = f"bat-{bat_counter}.npy"
                _save_array(directory / payload, state["tail"])
                head_file = None
                if state["head"] is not None:
                    head_file = f"bat-{bat_counter}.head.npy"
                    _save_array(directory / head_file, state["head"])
                bats.append(
                    {
                        "column": column.name,
                        "file": payload,
                        "head": head_file,
                        "seq_base": state["seq_base"],
                        "sorted": state["sorted"],
                    }
                )
                bat_counter += 1
            deleted_file = None
            if relation.deleted_count:
                deleted_file = f"del-{len(tables)}.npy"
                _save_array(directory / deleted_file, relation.deleted_positions())
            tables.append(
                {
                    "name": name,
                    "rows": len(relation),
                    "columns": [[c.name, c.col_type] for c in relation.schema],
                    "bats": bats,
                    "deleted": deleted_file,
                }
            )

    crackers = []
    provider = database._cracker
    if provider is not None:
        for j, (key, column) in enumerate(sorted(provider.columns().items())):
            table, attr = key
            with provider.lock_for(table, attr).write_locked():
                arrays, meta = pack_cracker(column)
            payload = f"cracker-{j}.npz"
            _save_archive(directory / payload, arrays)
            crackers.append(
                {"table": table, "attr": attr, "file": payload, "meta": meta}
            )

    manifest = {
        "format": FORMAT_VERSION,
        "generation": int(generation),
        "statements_logged": int(statements_logged),
        "tables": tables,
        "crackers": crackers,
    }
    manifest_path = directory / MANIFEST_NAME
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
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
    if version != FORMAT_VERSION:
        raise PersistError(
            f"snapshot format {version!r} unsupported (expected {FORMAT_VERSION})"
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
            bat = BAT.from_state(
                {
                    "name": f"{name}.{column_name}",
                    "tail_type": schema.column(column_name).col_type,
                    "tail": tail,
                    "head": head,
                    "seq_base": bat_entry["seq_base"],
                    "sorted": bat_entry["sorted"],
                }
            )
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
                column = unpack_cracker(entry["meta"], arrays)
            provider.attach_column(entry["table"], entry["attr"], column)
    return manifest
