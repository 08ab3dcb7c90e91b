"""End-to-end tests for the SQL Database session and planner."""

import numpy as np
import pytest

from repro.errors import CatalogError, SQLAnalysisError, SQLSyntaxError
from repro.sql import Database


def _loaded(rng, **kwargs):
    database = Database(cracking=True, **kwargs)
    database.execute("CREATE TABLE r (k integer, a integer)")
    database.execute("CREATE TABLE s (k integer, b integer)")
    r_rows = ", ".join(
        f"({i + 1}, {int(v) + 1})" for i, v in enumerate(rng.permutation(500))
    )
    database.execute(f"INSERT INTO r VALUES {r_rows}")
    s_rows = ", ".join(
        f"({i + 1}, {int(v) + 1})" for i, v in enumerate(rng.permutation(500))
    )
    database.execute(f"INSERT INTO s VALUES {s_rows}")
    return database


@pytest.fixture
def db(rng):
    return _loaded(rng)


@pytest.fixture
def unbounded_db(rng):
    """For tests asserting piece layouts of tables smaller than the cut-off."""
    return _loaded(rng, crack_threshold=0)


class TestDDLAndDML:
    def test_create_table_registers(self, db):
        db.execute("CREATE TABLE t (x integer)")
        assert db.catalog.has_table("t")

    def test_duplicate_create_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE r (x integer)")

    def test_insert_values_affected_count(self, db):
        result = db.execute("INSERT INTO r VALUES (501, 501), (502, 502)")
        assert result.affected == 2

    def test_insert_select_creates_target(self, db):
        db.execute("INSERT INTO newr SELECT * FROM r WHERE a <= 10")
        assert db.execute("SELECT count(*) FROM newr").scalar() == 10

    def test_execute_script(self, db):
        count = db.execute_script(
            "CREATE TABLE t (x integer); INSERT INTO t VALUES (1); "
        )
        assert count == 2
        assert db.execute("SELECT count(*) FROM t").scalar() == 1


class TestUpdateDelete:
    def test_update_affected_and_visible(self, db):
        result = db.execute("UPDATE r SET a = 1000 WHERE a BETWEEN 1 AND 10")
        assert result.affected == 10
        assert db.execute("SELECT count(*) FROM r WHERE a = 1000").scalar() == 10
        assert db.execute("SELECT count(*) FROM r WHERE a BETWEEN 1 AND 10").scalar() == 0
        db.check_invariants()

    def test_update_sees_prior_updates(self, db):
        # The second UPDATE's WHERE must observe the first one's writes.
        db.execute("UPDATE r SET a = 2000 WHERE a = 1")
        assert db.execute("UPDATE r SET a = 3000 WHERE a = 2000").affected == 1
        assert db.execute("SELECT count(*) FROM r WHERE a = 3000").scalar() == 1

    def test_delete_affected_and_invisible(self, db):
        before = db.execute("SELECT count(*) FROM r").scalar()
        result = db.execute("DELETE FROM r WHERE a BETWEEN 1 AND 25")
        assert result.affected == 25
        assert db.execute("SELECT count(*) FROM r").scalar() == before - 25
        assert db.execute("SELECT * FROM r WHERE a BETWEEN 1 AND 25").row_count == 0
        db.check_invariants()

    def test_delete_then_insert_keeps_rows_distinct(self, db):
        db.execute("DELETE FROM r WHERE a = 5")
        db.execute("INSERT INTO r VALUES (901, 5)")
        rows = db.execute("SELECT k, a FROM r WHERE a = 5").rows
        assert rows == [(901, 5)]
        db.check_invariants()

    def test_delete_all_rows(self, db):
        assert db.execute("DELETE FROM r").affected == 500
        assert db.execute("SELECT count(*) FROM r").scalar() == 0
        db.check_invariants()

    def test_update_string_column(self):
        db = Database(cracking=True)
        db.execute("CREATE TABLE t (x integer, tag varchar)")
        db.execute("INSERT INTO t VALUES (1, 'old'), (2, 'old'), (3, 'keep')")
        assert db.execute("UPDATE t SET tag = 'new' WHERE x < 3").affected == 2
        assert sorted(db.execute("SELECT tag FROM t").rows) == [
            ("keep",), ("new",), ("new",),
        ]

    def test_update_float_coercion(self):
        db = Database(cracking=True)
        db.execute("CREATE TABLE t (w float)")
        db.execute("INSERT INTO t VALUES (1.5)")
        db.execute("UPDATE t SET w = 2")  # int literal into a float column
        assert db.execute("SELECT w FROM t").scalar() == 2.0

    def test_dml_errors(self, db):
        with pytest.raises(SQLAnalysisError):
            db.execute("DELETE FROM missing")
        with pytest.raises(SQLAnalysisError):
            db.execute("UPDATE r SET nosuch = 1")
        with pytest.raises(SQLAnalysisError):
            db.execute("UPDATE r SET a = 'text'")  # str into int column
        with pytest.raises(SQLAnalysisError):
            # DML WHERE is single-table: no column-to-column comparisons.
            db.execute("DELETE FROM r WHERE k = a AND k = k")


class TestSelects:
    def test_range_count(self, db):
        assert db.execute("SELECT count(*) FROM r WHERE a BETWEEN 1 AND 100").scalar() == 100

    def test_select_star_rows(self, db):
        result = db.execute("SELECT * FROM r WHERE a = 42")
        assert result.row_count == 1
        assert result.rows[0][1] == 42

    def test_projection(self, db):
        result = db.execute("SELECT a FROM r WHERE a < 5")
        assert sorted(row[0] for row in result.rows) == [1, 2, 3, 4]
        assert result.columns == ["r.a"]

    def test_join_count(self, db):
        result = db.execute(
            "SELECT count(*) FROM r, s WHERE r.k = s.k AND r.a <= 50"
        )
        assert result.scalar() == 50  # k is a key in both tables

    def test_join_rows_correct(self, db):
        result = db.execute(
            "SELECT r.k, s.b FROM r, s WHERE r.k = s.k AND r.a = 1"
        )
        assert result.row_count == 1
        k, b = result.rows[0]
        truth = db.execute(f"SELECT b FROM s WHERE k = {k}")
        assert truth.rows[0][0] == b

    def test_group_by(self, db):
        db.execute("CREATE TABLE g (grp integer, v integer)")
        db.execute("INSERT INTO g VALUES (1, 10), (1, 20), (2, 5)")
        result = db.execute("SELECT grp, sum(v) FROM g GROUP BY grp")
        assert dict(result.rows) == {1: 30, 2: 5}

    def test_not_equal_residual(self, db):
        result = db.execute("SELECT count(*) FROM r WHERE a <> 1 AND a <= 10")
        assert result.scalar() == 9

    def test_limit(self, db):
        result = db.execute("SELECT * FROM r LIMIT 7")
        assert result.row_count == 7

    def test_select_into_materialises(self, db):
        result = db.execute("SELECT * INTO piece FROM r WHERE a <= 20")
        assert result.affected == 20
        assert db.execute("SELECT count(*) FROM piece").scalar() == 20

    @pytest.mark.parametrize("mode", ["tuple", "vector"])
    @pytest.mark.parametrize("cracking", [False, True], ids=["scan", "crack"])
    def test_select_into_empty_answer_keeps_source_types(self, mode, cracking):
        db = Database(cracking=cracking, mode=mode)
        db.execute("CREATE TABLE r (a integer, tag varchar, w float)")
        db.execute("INSERT INTO r VALUES (1, 'x', 0.5), (2, 'y', 1.5)")
        db.execute("SELECT * INTO e FROM r WHERE a BETWEEN 500 AND 900")
        assert [c.col_type for c in db.catalog.table("e").schema] == [
            "int", "str", "float",
        ]
        db.execute("SELECT tag, max(w), count(*) INTO g FROM r WHERE a > 9 GROUP BY tag")
        assert [c.col_type for c in db.catalog.table("g").schema] == [
            "str", "float", "int",
        ]

    @pytest.mark.parametrize("mode, records", [("tuple", 20), ("vector", 1)])
    def test_select_into_wal_records(self, db, mode, records):
        # The vector executor appends the target in bulk: one WAL record.
        before = db.tracker.wal.records
        db.execute("SELECT * INTO piece FROM r WHERE a <= 20", mode=mode)
        assert db.tracker.wal.records - before == records

    def test_contradictory_range_empty(self, db):
        assert db.execute("SELECT count(*) FROM r WHERE a > 10 AND a < 5").scalar() == 0

    def test_scalar_on_multirow_raises(self, db):
        result = db.execute("SELECT * FROM r WHERE a <= 3")
        with pytest.raises(SQLAnalysisError):
            result.scalar()


class TestCrackingIntegration:
    def test_queries_crack_columns(self, unbounded_db):
        db = unbounded_db
        assert db.piece_count("r", "a") == 1
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 100 AND 200")
        assert db.piece_count("r", "a") == 3

    def test_cracked_and_uncracked_agree(self, rng):
        values = (rng.permutation(400) + 1).tolist()
        rows = ", ".join(f"({i}, {v})" for i, v in enumerate(values))
        plain = Database(cracking=False)
        cracked = Database(cracking=True)
        for database in (plain, cracked):
            database.execute("CREATE TABLE t (k integer, a integer)")
            database.execute(f"INSERT INTO t VALUES {rows}")
        for low, high in [(10, 50), (100, 300), (40, 45), (390, 400)]:
            sql = f"SELECT count(*) FROM t WHERE a BETWEEN {low} AND {high}"
            assert plain.execute(sql).scalar() == cracked.execute(sql).scalar()

    def test_insert_merges_into_crackers(self, unbounded_db):
        db = unbounded_db
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 1 AND 50")
        assert db.piece_count("r", "a") > 1
        db.execute("INSERT INTO r VALUES (1000, 25)")
        # The cracker index survives the insert (merge-on-query updates).
        assert db.piece_count("r", "a") > 1
        assert db.execute(
            "SELECT count(*) FROM r WHERE a BETWEEN 1 AND 50"
        ).scalar() == 51

    def test_many_inserts_stay_consistent(self, db):
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 100 AND 200")
        for value in (150, 120, 180, 450, 1):
            db.execute(f"INSERT INTO r VALUES (900, {value})")
        assert db.execute(
            "SELECT count(*) FROM r WHERE a BETWEEN 100 AND 200"
        ).scalar() == 101 + 3

    def test_advice_attached_to_results(self, db):
        result = db.execute("SELECT count(*) FROM r WHERE a < 10")
        assert [a.op for a in result.advice] == ["Ξ"]

    def test_explain_mentions_crackers(self, db):
        text = db.explain("SELECT r.a FROM r, s WHERE r.k = s.k AND r.a < 5")
        assert "Ξ" in text and "^" in text and "Ψ" in text

    def test_explain_non_select_raises(self, db):
        with pytest.raises(SQLAnalysisError):
            db.explain("CREATE TABLE z (x integer)")


class TestErrors:
    def test_syntax_error_propagates(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("SELEC * FROM r")

    def test_cross_product_rejected(self, db):
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            db.execute("SELECT count(*) FROM r, s")


class TestQueryResultFaces:
    """One result class, two lazily derived faces (rows / arrays)."""

    @pytest.fixture
    def vec(self):
        db = Database(cracking=True, mode="vector")
        db.execute("CREATE TABLE r (k integer, a integer, w float, tag varchar)")
        db.execute(
            "INSERT INTO r VALUES (1, 10, 0.5, 'x'), (2, 20, 1.5, ''), (3, 30, 2.5, 'x')"
        )
        return db

    def test_vector_result_is_columnar_until_rows_are_read(self, vec):
        result = vec.execute("SELECT k, w, tag FROM r WHERE a BETWEEN 15 AND 35")
        assert result._rows is None  # nothing built tuples yet
        assert result.row_count == 2
        assert list(result.arrays) == result.columns == ["r.k", "r.w", "r.tag"]
        assert result.arrays["r.k"].dtype.kind == "i"
        assert result.arrays["r.tag"].dtype == object
        rows = result.rows
        assert sorted(rows) == [(2, 1.5, ""), (3, 2.5, "x")]
        assert {type(v) for row in rows for v in row} == {int, float, str}
        assert result.rows is rows  # cached

    def test_row_native_results_have_arrays_too(self, vec):
        count = vec.execute("SELECT count(*) FROM r WHERE a BETWEEN 15 AND 35")
        assert count.scalar() == 2 and count._arrays is None  # 1x1 pays no array
        assert count.arrays["count(*)"].tolist() == [2]
        dml = vec.execute("UPDATE r SET a = 11 WHERE k = 1")
        assert dml.affected == 1 and dml.rows == [] and dml.arrays == {}
        tuple_mode = vec.execute("SELECT k, tag FROM r WHERE a >= 20", mode="tuple")
        assert tuple_mode._arrays is None
        assert sorted(tuple_mode.arrays["r.tag"].tolist()) == ["", "x"]
        assert tuple_mode.arrays["r.k"].dtype.kind == "i"
        empty = vec.execute("SELECT k, tag FROM r WHERE a > 1000")
        assert empty.rows == [] and empty.row_count == 0
        assert [len(array) for array in empty.arrays.values()] == [0, 0]

    def test_rows_style_construction_still_works(self):
        from repro.sql import QueryResult

        result = QueryResult(["k", "n"], [(1, None), (2, 5)], affected=3)
        assert result.rows == [(1, None), (2, 5)] and result.affected == 3
        assert result.arrays["k"].tolist() == [1, 2]
        assert result.arrays["n"].dtype == object  # NULLs keep it off int64
        assert QueryResult(columns=[], rows=[]).row_count == 0
        with pytest.raises(SQLAnalysisError):
            result.scalar()
