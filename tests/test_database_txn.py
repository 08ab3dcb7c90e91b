"""Database.execute_transaction atomicity + the context-manager satellite."""

import numpy as np
import pytest

from repro.errors import (
    CatalogError,
    PersistError,
    ReproError,
    SQLAnalysisError,
    SQLSyntaxError,
)
from repro.sql import Database


def _loaded(**kwargs) -> Database:
    db = Database(cracking=True, **kwargs)
    db.execute("CREATE TABLE r (k integer, a integer)")
    rows = ", ".join(f"({i}, {(i * 37) % 101})" for i in range(101))
    db.execute(f"INSERT INTO r VALUES {rows}")
    db.execute("SELECT count(*) FROM r WHERE a BETWEEN 20 AND 60")  # crack
    return db


class TestCommit:
    def test_all_statements_apply_in_order(self):
        db = _loaded()
        results = db.execute_transaction([
            "INSERT INTO r VALUES (900, 7)",
            "CREATE TABLE audit (k integer)",
            "INSERT INTO audit VALUES (1), (2)",
            "SELECT count(*) FROM r",
        ])
        assert [r.affected for r in results[:3]] == [1, 0, 2]
        assert results[3].scalar() == 102
        assert db.execute("SELECT count(*) FROM audit").scalar() == 2

    def test_empty_batch_is_a_noop(self):
        db = _loaded()
        assert db.execute_transaction([]) == []

    def test_update_and_delete_apply(self):
        db = _loaded()
        results = db.execute_transaction([
            "UPDATE r SET a = 500 WHERE a < 10",
            "DELETE FROM r WHERE a BETWEEN 90 AND 100",
            "SELECT count(*) FROM r WHERE a = 500",
        ])
        assert results[0].affected > 0
        assert results[1].affected > 0
        assert results[2].scalar() == results[0].affected
        assert (
            db.execute("SELECT count(*) FROM r").scalar()
            == 101 - results[1].affected
        )
        db.check_invariants()

    def test_select_into_commits(self):
        db = _loaded()
        db.execute_transaction([
            "SELECT * INTO r_low FROM r WHERE a BETWEEN 0 AND 50",
        ])
        low = db.execute("SELECT count(*) FROM r_low").scalar()
        assert low == db.execute(
            "SELECT count(*) FROM r WHERE a BETWEEN 0 AND 50"
        ).scalar()


class TestAbort:
    def test_syntax_error_aborts_before_any_state_change(self):
        db = _loaded()
        before = db.catalog.table("r").column("a").tail_array().copy()
        with pytest.raises(SQLSyntaxError):
            db.execute_transaction([
                "INSERT INTO r VALUES (900, 7)",
                "THIS IS NOT SQL",
            ])
        after = db.catalog.table("r").column("a").tail_array()
        assert after.tobytes() == before.tobytes()
        assert db.execute("SELECT count(*) FROM r").scalar() == 101

    def test_midway_failure_restores_preimage_and_drops_created_tables(self):
        db = _loaded()
        before = {
            name: db.catalog.table("r").column(name).tail_array().copy()
            for name in ("k", "a")
        }
        with pytest.raises(CatalogError):
            db.execute_transaction([
                "INSERT INTO r VALUES (900, 7), (901, 55)",
                "CREATE TABLE audit (k integer)",
                "INSERT INTO audit VALUES (1)",
                "INSERT INTO missing VALUES (1)",
            ])
        assert db.execute("SELECT count(*) FROM r").scalar() == 101
        assert not db.catalog.has_table("audit")
        for name, image in before.items():
            live = db.catalog.table("r").column(name).tail_array()
            assert live.tobytes() == image.tobytes()

    def test_abort_after_query_merged_pending_inserts(self):
        # The hard case: the batch INSERTs, then a SELECT inside the
        # batch merges those rows into the cracker's pieces, then the
        # batch fails.  Both the base BATs *and* the cracker must come
        # back consistent (the cracker is dropped and lazily rebuilt).
        db = _loaded()
        with pytest.raises(CatalogError):
            db.execute_transaction([
                "INSERT INTO r VALUES (900, 7), (901, 55), (902, 99)",
                "SELECT k FROM r WHERE a BETWEEN 0 AND 100",  # merge
                "INSERT INTO missing VALUES (1)",
            ])
        db.check_invariants()
        assert db.execute("SELECT count(*) FROM r").scalar() == 101
        assert db.execute(
            "SELECT count(*) FROM r WHERE a BETWEEN 0 AND 100"
        ).scalar() == 101
        # Cracking still works after the rebuild: a is a permutation of
        # 0..100, so 41 values lie in [20, 60].
        assert db.execute(
            "SELECT count(*) FROM r WHERE a BETWEEN 20 AND 60"
        ).scalar() == 41
        assert len(db.execute("SELECT k FROM r WHERE a BETWEEN 20 AND 60").rows) == 41

    def test_abort_restores_updates_and_deletes(self):
        # The satellite: pre-image rollback must cover UPDATE (in-place
        # BAT writes) and DELETE (tombstones) alongside inserts.
        db = _loaded()
        before = {
            name: db.catalog.table("r").column(name).tail_array().copy()
            for name in ("k", "a")
        }
        with pytest.raises(CatalogError):
            db.execute_transaction([
                "UPDATE r SET a = 999 WHERE a < 30",
                "DELETE FROM r WHERE a BETWEEN 50 AND 70",
                "INSERT INTO missing VALUES (1)",
            ])
        db.check_invariants()
        assert db.execute("SELECT count(*) FROM r").scalar() == 101
        assert db.execute("SELECT count(*) FROM r WHERE a = 999").scalar() == 0
        for name, image in before.items():
            live = db.catalog.table("r").column(name).tail_array()
            assert live.tobytes() == image.tobytes()
        # Oracle equality after abort: the aborted batch left no trace, so
        # a row store that never saw it answers identically.
        oracle = Database(cracking=False)
        oracle.execute("CREATE TABLE r (k integer, a integer)")
        rows = ", ".join(f"({i}, {(i * 37) % 101})" for i in range(101))
        oracle.execute(f"INSERT INTO r VALUES {rows}")
        for q in (
            "SELECT count(*), sum(r.a) FROM r WHERE a BETWEEN 0 AND 100",
            "SELECT count(*) FROM r WHERE a < 30",
        ):
            assert db.execute(q).rows == oracle.execute(q).rows, q

    def test_abort_after_query_merged_pending_dml(self):
        # The hard case for the drop-and-rebuild: DELETE and UPDATE are
        # buffered on the cracker, a row-reading SELECT inside the batch
        # merges them into the pieces, and THEN the batch fails.  Base BATs, tombstones and the cracker must
        # all come back to the pre-transaction state.
        db = _loaded()
        with pytest.raises(CatalogError):
            db.execute_transaction([
                "DELETE FROM r WHERE a BETWEEN 40 AND 60",
                "UPDATE r SET a = 7 WHERE a > 90",
                "SELECT k FROM r WHERE a BETWEEN 0 AND 100",  # merge
                "INSERT INTO missing VALUES (1)",
            ])
        db.check_invariants()
        assert db.catalog.table("r").deleted_count == 0
        assert db.execute("SELECT count(*) FROM r").scalar() == 101
        assert db.execute(
            "SELECT count(*) FROM r WHERE a BETWEEN 40 AND 60"
        ).scalar() == 21
        assert len(db.execute("SELECT k FROM r WHERE a BETWEEN 40 AND 60").rows) == 21

    def test_select_into_replacement_is_restored(self):
        db = _loaded()
        db.execute("SELECT * INTO target FROM r WHERE a BETWEEN 0 AND 50")
        before = db.execute("SELECT count(*) FROM target").scalar()
        with pytest.raises(CatalogError):
            db.execute_transaction([
                "SELECT * INTO target FROM r WHERE a BETWEEN 0 AND 10",
                "INSERT INTO missing VALUES (1)",
            ])
        assert db.execute("SELECT count(*) FROM target").scalar() == before
        # A SELECT the plan cache knows is analysed against the schema
        # the batch made before it, not the one it was cached under.
        cached = "SELECT count(*) FROM target WHERE a BETWEEN 0 AND 50"
        for _ in range(2):
            assert db.execute(cached).scalar() == before
        with pytest.raises(SQLAnalysisError, match="unknown column 'a'"):
            db.execute_transaction(["SELECT k INTO target FROM r", cached])
        assert db.execute(cached).scalar() == before

class TestDurability:
    def test_aborted_batch_never_reaches_the_wal(self, tmp_path):
        store = tmp_path / "store"
        with Database(cracking=True, persist_dir=store) as db:
            db.execute("CREATE TABLE r (k integer)")
            db.execute("INSERT INTO r VALUES (1)")
            with pytest.raises(CatalogError):
                db.execute_transaction([
                    "INSERT INTO r VALUES (2)",
                    "INSERT INTO missing VALUES (1)",
                ])
            assert db.persistence_stats()["durable_statements"] == 2
        with Database(cracking=True, persist_dir=store) as recovered:
            assert recovered.execute("SELECT count(*) FROM r").scalar() == 1

    def test_committed_batch_replays_in_order(self, tmp_path):
        store = tmp_path / "store"
        with Database(cracking=True, persist_dir=store) as db:
            db.execute_transaction([
                "CREATE TABLE r (k integer, a integer)",
                "INSERT INTO r VALUES (1, 10), (2, 20)",
                "INSERT INTO r VALUES (3, 30)",
            ])
        with Database(cracking=True, persist_dir=store) as recovered:
            stats = recovered.persistence_stats()
            assert stats["recovery_wal_statements_replayed"] == 3
            assert recovered.execute("SELECT count(*) FROM r").scalar() == 3

    def test_committed_dml_replays(self, tmp_path):
        store = tmp_path / "store"
        with Database(cracking=True, persist_dir=store) as db:
            db.execute_transaction([
                "CREATE TABLE r (k integer, a integer)",
                "INSERT INTO r VALUES (1, 10), (2, 20), (3, 30)",
                "UPDATE r SET a = 99 WHERE k = 2",
                "DELETE FROM r WHERE a = 10",
            ])
        with Database(cracking=True, persist_dir=store) as recovered:
            assert recovered.execute("SELECT count(*) FROM r").scalar() == 2
            rows = recovered.execute("SELECT k, a FROM r").rows
            assert sorted(rows) == [(2, 99), (3, 30)]
            recovered.check_invariants()

    def test_closed_store_refuses_transactions(self, tmp_path):
        db = Database(cracking=True, persist_dir=tmp_path / "store")
        db.execute("CREATE TABLE r (k integer)")
        db.close()
        with pytest.raises(PersistError):
            db.execute_transaction(["INSERT INTO r VALUES (1)"])


class TestContextManager:
    """The `with Database(...)` satellite."""

    def test_with_block_closes_persistent_store(self, tmp_path):
        store = tmp_path / "store"
        with Database(cracking=True, persist_dir=store) as db:
            db.execute("CREATE TABLE r (k integer)")
            assert db.persistent
        assert db._persist.closed

    def test_close_is_idempotent(self, tmp_path):
        db = Database(persist_dir=tmp_path / "store")
        db.close()
        db.close()
        with Database() as ephemeral:
            pass
        ephemeral.close()  # non-persistent close is equally safe

    def test_exception_still_closes(self, tmp_path):
        with pytest.raises(RuntimeError):
            with Database(persist_dir=tmp_path / "store") as db:
                raise RuntimeError("boom")
        assert db._persist.closed
