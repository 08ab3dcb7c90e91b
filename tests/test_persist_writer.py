"""The checkpoint writer: crash images of its window, faults, varchar payloads.

An auto-checkpoint captures on the statement that triggers it and a
writer thread writes the generation.  Every step of that window is a
crash point: a copy of the store taken there must reopen equal to an
engine-free numpy model at its acknowledged statement prefix.  A write
that fails leaves ``CURRENT`` where it was; the next explicit checkpoint
raises it.  A generation is one payload file, written with three fsyncs,
and a payload that is torn or has a flipped bit refuses to open, as does
an unreadable file of an older format.  Varchar BATs are saved as raw
heap offsets beside the heap's atoms, and a store holding the older
decoded payload still opens.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracle import MIXED_TAGS, TableModel, mixed_dml_stream
from repro.__main__ import main
from repro.errors import PersistError, StorageError
from repro.persist import snapshot as snapshot_module
from repro.persist.store import PersistentStore
from repro.sql import Database
from repro.storage.bat import BAT
from repro.storage.heap import AtomHeap
from repro.storage.table import Column, Relation, Schema

CHECKPOINT_EVERY = 12


def open_store(directory, **kwargs) -> Database:
    return Database(
        cracking=True, persist_dir=directory, **kwargs
    )


def model_at(stream, prefix: int) -> TableModel:
    """The model after the first ``prefix`` logged statements."""
    model = TableModel()
    for _, op in [pair for pair in stream if pair[1][0] != "count"][:prefix]:
        model.apply(op)
    return model


def stored_rows(db: Database) -> list[tuple]:
    return sorted(db.execute("SELECT r.k, r.a, r.tag FROM r").rows)


def wait_for_writer(db: Database, deadline_s: float = 30.0) -> dict:
    started = time.monotonic()
    while db.persistence_stats()["checkpoint_in_flight"]:
        assert time.monotonic() - started < deadline_s, "the writer never finished"
        time.sleep(0.005)
    return db.persistence_stats()


# ---------------------------------------------------------------------- #
# Crash images of the writer window
# ---------------------------------------------------------------------- #

#: Each writer step, named by what has happened when the image is taken.
STEPS = (
    "after_capture", "after_payloads", "after_manifest", "after_flip", "after_sweep"
)


def test_every_writer_step_reopens_at_its_acked_prefix(tmp_path, monkeypatch):
    store = tmp_path / "store"
    stream = mixed_dml_stream(np.random.default_rng(3), 160)
    acked = [0]  # logged statements whose execute returned
    images: list = []

    def take(step: str, generation: int) -> None:
        low = acked[0]
        target = tmp_path / f"image-{len(images)}"
        shutil.copytree(store, target)
        # A statement in flight may have reached the WAL unacknowledged.
        images.append((step, generation, target, low, acked[0] + 1))

    write, write_current, sweep = (
        PersistentStore._write, PersistentStore._write_current, PersistentStore._sweep
    )
    write_manifest = snapshot_module._write_manifest

    def copying_write(self, job):
        take("after_capture", job["generation"])
        return write(self, job)

    def copying_manifest(directory, manifest):
        take("after_payloads", manifest["generation"])
        write_manifest(directory, manifest)

    def copying_current(self, generation):
        take("after_manifest", generation)
        write_current(self, generation)

    def copying_sweep(self, keep):
        take("after_flip", keep)
        sweep(self, keep)
        take("after_sweep", keep)

    monkeypatch.setattr(PersistentStore, "_write", copying_write)
    monkeypatch.setattr(snapshot_module, "_write_manifest", copying_manifest)
    monkeypatch.setattr(PersistentStore, "_write_current", copying_current)
    monkeypatch.setattr(PersistentStore, "_sweep", copying_sweep)

    db = open_store(store, checkpoint_statements=CHECKPOINT_EVERY, wal_fsync_every=0)
    for sql, op in stream:
        db.execute(sql)
        acked[0] += op[0] != "count"
    db.close()
    monkeypatch.undo()

    assert {step for step, *_ in images} == set(STEPS)
    assert len({generation for _, generation, *_ in images}) >= 3
    for step, generation, target, low, high in images:
        with open_store(target) as reopened:
            stats = reopened.persistence_stats()
            prefix = stats["durable_statements"]
            assert low <= prefix <= high, (step, generation)
            flipped = step in ("after_flip", "after_sweep")
            assert stats["recovery_generation"] == generation - (not flipped), step
            assert stored_rows(reopened) == model_at(stream, prefix).rows(), step
            reopened.check_invariants()

    with open_store(store) as final:
        assert final.persistence_stats()["durable_statements"] == acked[0]
        assert stored_rows(final) == model_at(stream, acked[0]).rows()


def test_close_joins_the_writer(tmp_path):
    stream = mixed_dml_stream(np.random.default_rng(5), 40)
    db = open_store(tmp_path, checkpoint_statements=CHECKPOINT_EVERY)
    for sql, _ in stream:
        db.execute(sql)
    generation = db.persistence_stats()["generation"]
    assert generation >= 1
    db.close()
    stats = db.persistence_stats()
    assert not stats["checkpoint_in_flight"]
    assert stats["durable_generation"] == generation
    assert (tmp_path / "CURRENT").read_text().strip() == str(generation)


# ---------------------------------------------------------------------- #
# A write that fails
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_a_failed_write_keeps_current_and_the_next_checkpoint_raises_it(
    tmp_path, monkeypatch, failing
):
    store = tmp_path / "store"
    stream = mixed_dml_stream(np.random.default_rng(7), 120)
    logged = [pair for pair in stream if pair[1][0] != "count"]
    db = open_store(store, checkpoint_statements=CHECKPOINT_EVERY)
    executed = iter(stream)
    acked = 0
    for sql, op in executed:  # up to the first auto-checkpoint
        db.execute(sql)
        acked += op[0] != "count"
        if acked == CHECKPOINT_EVERY:
            break
    assert wait_for_writer(db)["durable_generation"] == 1

    real = getattr(os, failing)

    def fail_on_the_writer(*args, **kwargs):
        if threading.current_thread().name == "checkpoint-writer":
            raise OSError(errno.EIO, f"injected {failing} failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(os, failing, fail_on_the_writer)
    for sql, op in executed:  # up to the second, whose write fails
        db.execute(sql)
        acked += op[0] != "count"
        if acked == 2 * CHECKPOINT_EVERY:
            break
    stats = wait_for_writer(db)
    monkeypatch.undo()
    assert (stats["generation"], stats["durable_generation"]) == (2, 1)
    assert stats["checkpoint_failures"] == 1
    assert (store / "CURRENT").read_text().strip() == "1"
    for sql, op in executed:  # a few more, into wal-2
        db.execute(sql)
        acked += op[0] != "count"
        if acked == 2 * CHECKPOINT_EVERY + 5:
            break

    # Nothing is lost: the crash image replays snapshot 1, wal-1, wal-2.
    image = tmp_path / "image"
    shutil.copytree(store, image)
    with open_store(image) as reopened:
        stats = reopened.persistence_stats()
        assert stats["recovery_generation"] == 1
        assert stats["durable_statements"] == acked
        assert stored_rows(reopened) == model_at(stream, acked).rows()

    with pytest.raises(PersistError, match=f"injected {failing} failure"):
        db.checkpoint()
    assert db.persistence_stats()["checkpoint_failures"] == 1
    for sql, _ in executed:
        db.execute(sql)
    report = db.checkpoint()  # the error was raised once; this one writes
    assert report["generation"] == db.persistence_stats()["durable_generation"]
    db.close()
    with open_store(store) as reopened:
        assert reopened.persistence_stats()["durable_statements"] == len(logged)
        assert stored_rows(reopened) == model_at(stream, len(logged)).rows()


def test_a_torn_wal_that_another_follows_refuses_to_open(tmp_path, monkeypatch):
    db = open_store(tmp_path)
    db.execute("CREATE TABLE r (k integer, a integer, tag varchar)")
    db.execute("INSERT INTO r VALUES (1, 2, 'x')")
    monkeypatch.setattr(PersistentStore, "_write", lambda self, job: None)
    db.checkpoint()  # captured: appends move to wal-1, CURRENT stays 0
    monkeypatch.undo()
    db.execute("INSERT INTO r VALUES (3, 4, 'y')")
    db.close()
    with open_store(tmp_path) as reopened:  # the chain wal-0, wal-1 replays
        assert reopened.execute("SELECT count(*) FROM r").scalar() == 2
    with open(tmp_path / "wal-000000.log", "ab") as handle:
        handle.write(b"\x07\x00")
    with pytest.raises(PersistError, match="torn"):
        open_store(tmp_path)


# ---------------------------------------------------------------------- #
# One payload file per generation, every array checksummed
# ---------------------------------------------------------------------- #


def checkpointed_store(directory) -> dict:
    """A store whose snapshot 1 holds int and varchar BATs, tombstones and
    a cracker; returns its manifest."""
    with open_store(directory) as db:
        for sql, _ in mixed_dml_stream(np.random.default_rng(17), 80):
            db.execute(sql)
        db.checkpoint()
    manifest = json.loads((directory / "snapshot-000001" / "manifest.json").read_text())
    assert manifest["tables"][0]["deleted"] is not None and manifest["crackers"]
    return manifest


def test_a_generation_is_one_payload_file_and_three_fsyncs(tmp_path, monkeypatch):
    checkpointed_store(tmp_path / "store")
    with open_store(tmp_path / "store") as db:
        image = snapshot_module.capture_snapshot(db)
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
    snapshot_module.write_image(image, tmp_path / "image", 2, 0)
    monkeypatch.undo()
    assert len(fsyncs) == 3  # payload, manifest, directory
    for directory in (tmp_path / "image", tmp_path / "store" / "snapshot-000001"):
        assert sorted(p.name for p in directory.iterdir()) == ["manifest.json", "payload.bin"]


def flip_bit(path, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0x10]))


#: Each damage: (what it does to a checkpointed store, the error it gets).
DAMAGES = {
    "truncated payload": (
        lambda snap, manifest: os.truncate(
            snap / "payload.bin", (snap / "payload.bin").stat().st_size // 2
        ),
        "fails its length or CRC check",
    ),
    "BAT tail": (
        lambda snap, manifest: flip_bit(
            snap / "payload.bin", manifest["tables"][0]["bats"][0]["file"][0] + 1
        ),
        "r.k tail fails",
    ),
    "varchar heap": (
        lambda snap, manifest: flip_bit(
            snap / "payload.bin", manifest["tables"][0]["bats"][2]["atoms"]["bytes"][0]
        ),
        "r.tag atoms bytes fails",
    ),
    "cracker array": (
        lambda snap, manifest: flip_bit(
            snap / "payload.bin", manifest["crackers"][0]["file"]["values"][0] + 2
        ),
        "cracker r.a values fails",
    ),
    "manifest": (
        lambda snap, manifest: flip_bit(snap / "manifest.json", 0),
        "manifest.json is corrupt",
    ),
    "manifest value": (
        lambda snap, manifest: edit_manifest(snap, statements_logged=7),
        "manifest.json fails its CRC check",
    ),
}


def edit_manifest(snap, **values) -> None:
    """Set ``values`` in a snapshot's manifest, which stays valid JSON."""
    path = snap / "manifest.json"
    manifest = json.loads(path.read_text())
    assert all(manifest[key] != value for key, value in values.items())
    path.write_text(json.dumps({**manifest, **values}, indent=2))


@pytest.mark.parametrize("damage", list(DAMAGES))
def test_a_damaged_payload_refuses_to_open(tmp_path, capsys, damage):
    store = tmp_path / "store"
    manifest = checkpointed_store(store)
    apply, message = DAMAGES[damage]
    apply(store / "snapshot-000001", manifest)

    with pytest.raises(PersistError, match=message):
        open_store(store)
    assert main(["restore", str(store), "-e", "SELECT count(*) FROM r"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err
    assert out == ""


@pytest.mark.parametrize("damage", ["truncated bat-0.npy", "damaged cracker-0.npz"])
def test_a_damaged_file_of_an_older_format_is_a_persist_error(tmp_path, damage):
    """Formats 1 and 2 have no checksum, but a payload numpy cannot read
    is still a typed error rather than numpy's or zipfile's own."""
    store = fixture_copy(tmp_path)
    snap = store / "snapshot-000001"
    if damage == "truncated bat-0.npy":
        os.truncate(snap / "bat-0.npy", (snap / "bat-0.npy").stat().st_size // 2)
        message = "cannot read r.k tail"
    else:
        flip_bit(snap / "cracker-0.npz", (snap / "cracker-0.npz").stat().st_size // 3)
        message = "cannot read cracker r."
    with pytest.raises(PersistError, match=message):
        Database(cracking=True, persist_dir=store)


def test_manifests_of_older_formats_open_without_a_crc(tmp_path):
    """Formats 1-3 carry no manifest CRC: the format-1 fixture opens, and
    so does a format-4 manifest rewritten as format 3 without its CRC."""
    with Database(cracking=True, persist_dir=fixture_copy(tmp_path)) as db:
        assert fixture_answers(db) == json.loads(FIXTURE.with_suffix(".json").read_text())
    store = tmp_path / "fresh"
    checkpointed_store(store)
    with open_store(store) as db:
        expected = stored_rows(db)
    path = store / "snapshot-000001" / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest.pop("crc32") is not None and manifest["format"] == 4
    path.write_text(json.dumps({**manifest, "format": 3}))
    with open_store(store) as db:
        assert stored_rows(db) == expected
    manifest["statements_logged"] += 7  # format 4 is checked
    path.write_text(json.dumps(manifest))
    with pytest.raises(PersistError, match="manifest.json fails its CRC check"):
        open_store(store)


def test_opening_a_store_holds_one_copy_of_each_array(tmp_path):
    """The loader hands each array to its BAT or cracked column, which
    keep it: the open's peak stays near what the open keeps."""
    rows = 1_000_000
    rng = np.random.default_rng(3)
    with open_store(tmp_path) as db:
        db.catalog.create_table(Relation.from_columns(
            "r", Schema([Column("k", "int"), Column("a", "int")]),
            {"k": np.arange(rows), "a": rng.integers(0, rows, rows)},
        ))
        for low in range(0, rows, rows // 8):
            db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + 999}")
        db.checkpoint()
    tracemalloc.start()
    try:
        db = open_store(tmp_path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    try:
        assert db.piece_count("r", "a") > 1  # the cracker came back warm
        assert kept >= 4 * rows * 8  # two BATs, a cracker's values and oids
        assert peak <= 1.25 * kept, (peak / 2**20, kept / 2**20)
    finally:
        db.close()


# ---------------------------------------------------------------------- #
# Varchar payloads: raw offsets beside the heap's atoms
# ---------------------------------------------------------------------- #


FIXTURE = Path(__file__).parent / "data" / "store_47a14e5"


def fixture_copy(tmp_path) -> Path:
    """A private copy of the committed format-1 store (recovery rewrites it)."""
    store = tmp_path / "store"
    shutil.copytree(FIXTURE, store)
    return store


def fixture_answers(db: Database) -> dict:
    return {
        sql: [list(row) for row in db.execute(sql).rows]
        for sql in json.loads(FIXTURE.with_suffix(".json").read_text())
    }


def rewrite_varchar_to_legacy(store_dir) -> int:
    """Give every varchar BAT of snapshot 1 the payload stores had before
    the heap's atoms were saved: decoded atoms, one per row, and no
    ``atoms`` entry.  Returns how many."""
    directory = store_dir / "snapshot-000001"
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    rewritten = 0
    for table in manifest["tables"]:
        for entry in table["bats"]:
            atoms_file = entry.pop("atoms", None)
            if atoms_file is None:
                continue
            with np.load(directory / atoms_file) as atoms:
                heap = AtomHeap.from_atoms(atoms["bytes"], atoms["lengths"])
            decoded = heap.atoms[heap.codes(np.load(directory / entry["file"]))]
            np.save(directory / entry["file"], decoded.astype(str))
            (directory / atoms_file).unlink()
            rewritten += 1
    path.write_text(json.dumps(manifest))
    return rewritten


def test_store_with_legacy_varchar_payload_reopens_unchanged(tmp_path):
    store = fixture_copy(tmp_path)
    expected = json.loads(FIXTURE.with_suffix(".json").read_text())
    assert rewrite_varchar_to_legacy(store) == 2

    reopened = Database(cracking=True, persist_dir=store, crack_threshold=0)
    assert fixture_answers(reopened) == expected
    reopened.checkpoint()  # the next checkpoint writes the new form
    reopened.close()
    manifest = json.loads((store / "snapshot-000002" / "manifest.json").read_text())
    (tag_entry,) = [e for e in manifest["tables"][0]["bats"] if e["column"] == "tag"]
    assert tag_entry["file"][1] == np.dtype(np.int64).str
    assert set(tag_entry["atoms"]) == {"bytes", "lengths"}
    with Database(cracking=True, persist_dir=store, crack_threshold=0) as again:
        assert fixture_answers(again) == expected


def test_varchar_state_keeps_heap_offsets():
    atoms = list(MIXED_TAGS) + ["t0", "", "héllo ☃"]
    bat = BAT.from_values("t", atoms, tail_type="str")
    state = bat.export_state()
    assert state["tail"].dtype == np.int64
    clone = BAT.from_state(state)
    assert np.array_equal(clone.tail_array(), bat.tail_array())
    assert clone.tail_values() == atoms
    state["tail"][0] = 1  # inside "t0": no atom starts there
    with pytest.raises(StorageError, match="addresses no atom"):
        BAT.from_state(state)


def test_metrics_expose_the_writer_gauges(tmp_path):
    with open_store(tmp_path, checkpoint_statements=CHECKPOINT_EVERY) as db:
        for sql, _ in mixed_dml_stream(np.random.default_rng(13), 30):
            db.execute(sql)
        wait_for_writer(db)
        text = db.metrics.render()
    for name in ("repro_durable_generation", "repro_checkpoint_in_flight",
                 "repro_checkpoint_failures"):
        assert f"\n{name} " in text or text.startswith(f"{name} "), name
