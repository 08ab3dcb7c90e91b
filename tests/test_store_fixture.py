"""A store written by an older build still opens and answers identically.

``tests/data/store_47a14e5/`` was written by ``tests/data/write_store_fixture.py``
at commit 47a14e5: snapshot generation 1 (BATs, a varchar heap, a
tombstone list and two cracked columns with pending updates) plus a
four-statement WAL tail.  Deleting a branch of the BAT, heap, catalog or
cracker codecs that such a store needs shows up here as an error or a
changed answer.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.sql import Database

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("cracking", [True, False])
def test_parent_written_store_opens_and_answers(tmp_path, cracking):
    store = tmp_path / "store"
    shutil.copytree(DATA / "store_47a14e5", store)
    answers = json.loads((DATA / "store_47a14e5.json").read_text())
    db = Database(cracking=cracking, persist_dir=store, crack_threshold=0)
    try:
        stats = db.persistence_stats()
        assert stats["recovery_snapshot_loaded"]
        assert stats["recovery_wal_statements_replayed"] == 4
        assert stats["recovery_crackers_dropped"] == 0
        if cracking:
            # The cracked columns come back warm, before any query.
            assert db.piece_count("r", "a") > 1
            assert db.piece_count("r", "b") > 1
        for sql, rows in answers.items():
            assert [list(row) for row in db.execute(sql).rows] == rows, sql
    finally:
        db.close()
