"""The checkpoint writer: crash images of its window, faults, varchar payloads.

An auto-checkpoint captures on the statement that triggers it and a
writer thread writes the generation.  Every step of that window is a
crash point: a copy of the store taken there must reopen equal to an
engine-free numpy model at its acknowledged statement prefix.  A write
that fails leaves ``CURRENT`` where it was; the next explicit checkpoint
raises it.  Varchar BATs are saved as raw heap offsets beside the heap's
atoms, and a store holding the older decoded payload still opens.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import threading
import time

import numpy as np
import pytest

from oracle import MIXED_TAGS, TableModel, mixed_dml_stream
from repro.errors import PersistError, StorageError
from repro.persist import snapshot as snapshot_module
from repro.persist.store import PersistentStore
from repro.sql import Database
from repro.storage.bat import BAT
from repro.storage.heap import AtomHeap

CHECKPOINT_EVERY = 12


def open_store(directory, **kwargs) -> Database:
    return Database(
        cracking=True, mode="vector", persist_dir=directory, **kwargs
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
# Varchar payloads: raw offsets beside the heap's atoms
# ---------------------------------------------------------------------- #


def rewrite_varchar_to_legacy(store_dir) -> int:
    """Give every varchar BAT of snapshot 1 the older payload: decoded
    atoms, one per row, and no ``atoms`` entry.  Returns how many."""
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
                heap, _ = AtomHeap.from_atoms(atoms["bytes"], atoms["lengths"])
            decoded = heap.get_many(np.load(directory / entry["file"]))
            np.save(
                directory / entry["file"],
                np.asarray(decoded, dtype="<U1" if not decoded else None),
            )
            (directory / atoms_file).unlink()
            rewritten += 1
    path.write_text(json.dumps(manifest))
    return rewritten


def test_store_with_legacy_varchar_payload_reopens_unchanged(tmp_path):
    stream = mixed_dml_stream(np.random.default_rng(11), 60)
    db = open_store(tmp_path)
    for sql, _ in stream:
        db.execute(sql)
    db.checkpoint()
    expected = stored_rows(db)
    counts = [db.execute(sql).scalar() for sql, op in stream if op[0] == "count"]
    db.close()
    assert rewrite_varchar_to_legacy(tmp_path) == 1

    reopened = open_store(tmp_path)
    assert stored_rows(reopened) == expected
    assert [
        reopened.execute(sql).scalar() for sql, op in stream if op[0] == "count"
    ] == counts
    assert reopened.execute("SELECT count(*) FROM r WHERE tag = ''").scalar() == sum(
        tag == "" for _, _, tag in expected
    )
    reopened.checkpoint()  # the next checkpoint writes the new form
    reopened.close()
    manifest = json.loads((tmp_path / "snapshot-000002" / "manifest.json").read_text())
    (tag_entry,) = [e for e in manifest["tables"][0]["bats"] if e["column"] == "tag"]
    assert tag_entry["atoms"] == f"{tag_entry['file'][:-4]}.atoms.npz"
    assert np.load(tmp_path / "snapshot-000002" / tag_entry["file"]).dtype == np.int64
    with open_store(tmp_path) as again:
        assert stored_rows(again) == expected


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
