"""Checkpoint racing concurrent execution: the execute+WAL barrier.

The durable store's contract (PR 4) is that a checkpoint can never
snapshot an executed-but-unlogged statement — replay would double-apply
it after recovery.  This suite stresses exactly that window: writer
threads stream INSERTs, a checkpointer thread forces snapshot
generations as fast as it can, reader threads stay live throughout, and
the store directory is copied mid-race.  Every copy must recover to an
exact logged prefix — in particular with **no duplicated rows** (the
double-apply signature) and no recovery error.
"""

import shutil
import threading
import time

import pytest

from repro.errors import PersistError
from repro.sql import Database

WRITERS = 3
INSERTS_PER_WRITER = 50
MAX_COPIES = 5


@pytest.fixture
def store(tmp_path):
    return tmp_path / "store"


def _recovered_keys(directory) -> list[int]:
    with Database(cracking=True, persist_dir=directory) as db:
        if not db.catalog.has_table("r"):
            return []
        return [row[0] for row in db.execute("SELECT r.k FROM r").rows]


class TestCheckpointExecuteRace:
    def test_checkpoint_never_captures_unlogged_statements(self, store, tmp_path):
        db = Database(
            cracking=True,
            persist_dir=store,
            wal_fsync_every=0,  # flush-only: keeps the stress CPU-bound
        )
        db.execute("CREATE TABLE r (k integer, a integer)")
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 100 AND 500")

        stop = threading.Event()
        failures: list[BaseException] = []
        copies: list = []

        def writer(tid: int) -> None:
            try:
                for i in range(INSERTS_PER_WRITER):
                    key = tid * 1_000_000 + i
                    db.execute(f"INSERT INTO r VALUES ({key}, {i % 997})")
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def reader() -> None:
            # Paced, not spinning: the column RW lock is not fair, and a
            # reader that re-acquires the instant it releases can starve
            # writers indefinitely (real clients pace themselves through
            # socket round-trips).
            try:
                while not stop.is_set():
                    result = db.execute(
                        "SELECT count(*) FROM r WHERE a BETWEEN 100 AND 500"
                    )
                    assert result.scalar() >= 0
                    time.sleep(0.001)
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def checkpointer() -> None:
            try:
                while not stop.is_set():
                    db.checkpoint()
                    time.sleep(0.02)
            except PersistError:  # store closed as the race winds down
                pass
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def copier() -> None:
            # Mid-race copies emulate "a crash right now": each must
            # recover to an exact prefix of the logged statements.
            index = 0
            while not stop.is_set() and len(copies) < MAX_COPIES:
                target = tmp_path / f"copy-{index}"
                index += 1
                try:
                    shutil.copytree(store, target)
                except (OSError, shutil.Error):
                    shutil.rmtree(target, ignore_errors=True)
                    continue  # a sweep deleted files mid-copy; try again
                copies.append(target)
                time.sleep(0.02)

        threads = [
            threading.Thread(target=writer, args=(tid,)) for tid in range(WRITERS)
        ]
        threads += [
            threading.Thread(target=reader),
            threading.Thread(target=checkpointer),
            threading.Thread(target=copier),
        ]
        for thread in threads:
            thread.start()
        for thread in threads[:WRITERS]:
            thread.join(timeout=120)
        stop.set()
        for thread in threads[WRITERS:]:
            thread.join(timeout=30)
        assert not failures, failures

        total = WRITERS * INSERTS_PER_WRITER
        assert db.execute("SELECT count(*) FROM r").scalar() == total
        db.check_invariants()
        db.close()

        # The final store recovers everything exactly once.
        keys = _recovered_keys(store)
        assert len(keys) == total
        assert len(set(keys)) == total

        # Every mid-race copy is a consistent prefix: recovery succeeds
        # and no key appears twice (a duplicate would mean a checkpoint
        # captured an executed-but-unlogged INSERT that replay re-ran).
        assert copies, "the copier thread never captured a mid-race store"
        for target in copies:
            copy_keys = _recovered_keys(target)
            assert len(copy_keys) == len(set(copy_keys)), target
            assert len(copy_keys) <= total

    def test_concurrent_checkpoints_serialize(self, store):
        db = Database(cracking=True, persist_dir=store)
        db.execute("CREATE TABLE r (k integer)")
        results: list = []

        def checkpoint() -> None:
            try:
                results.append(db.checkpoint()["generation"])
            except BaseException as exc:  # pragma: no cover - failure path
                results.append(exc)

        threads = [threading.Thread(target=checkpoint) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert all(isinstance(g, int) for g in results), results
        assert sorted(results) == [1, 2, 3, 4]
        db.close()
