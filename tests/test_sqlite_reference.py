"""Every engine configuration against stdlib ``sqlite3``.

:class:`oracle.SqliteReference` shares no code with the engine, so a bug
in the lexer, parser, analyzer, plan cache or an aggregate shows up here
even when every configuration shares it.  Answers may differ only as
:data:`oracle.DIALECT` lists, and each row of that table has a test
below that fails if the difference disappears or changes.
"""

import sqlite3

import numpy as np
import pytest

from oracle import (
    DIALECT,
    ENGINE_CONFIGS,
    SqliteReference,
    assert_matches_sqlite,
    load_standard,
    make_databases,
    random_mixed_dml,
    standard_query_suite,
)
from repro.errors import ReproError, SQLAnalysisError
from repro.sql import Database, QueryResult

#: Seeds of the main differential, per configuration.
SEEDS = range(50)


def _loaded(config: dict, seed: int) -> tuple[Database, SqliteReference]:
    db, reference = Database(**config), SqliteReference()
    load_standard(db, seed)
    load_standard(reference, seed)
    return db, reference


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_configs_match_sqlite(name):
    """The standard suite and a read-write stream, 50 seeds."""
    for seed in SEEDS:
        db, reference = _loaded(ENGINE_CONFIGS[name], seed)
        rng = np.random.default_rng(seed + 1000)
        statements = standard_query_suite(rng) + random_mixed_dml(rng, 80)
        assert_matches_sqlite({name: db}, reference, statements, (seed,))
        db.check_invariants()


# ---------------------------------------------------------------------- #
# The dialect table: each row, shown
# ---------------------------------------------------------------------- #


def _cracked_pair() -> tuple[Database, SqliteReference]:
    """An unbounded cracker whose answers come in crack order."""
    db, reference = _loaded(ENGINE_CONFIGS["cracked"], seed=7)
    db.execute("SELECT count(*) FROM r WHERE a BETWEEN 300 AND 650")
    return db, reference


def test_dialect_table_lists_four_differences():
    assert sorted(DIALECT) == ["empty_sum", "float_digits", "limit_ties", "unordered"]


def test_dialect_unordered():
    db, reference = _cracked_pair()
    for sql in (
        "SELECT r.k, r.a FROM r WHERE a BETWEEN 200 AND 400",
        "SELECT r.k FROM r WHERE a BETWEEN 300 AND 700 LIMIT 5",
    ):
        result = db.execute(sql)
        expected = reference.execute(sql).fetchall()
        assert result.rows != expected, sql  # crack order, not rowid order
        reference.answer(sql).check(result)  # the same rows, as a multiset


def test_dialect_limit_ties():
    db, reference = _cracked_pair()
    sql = "SELECT r.k, r.tag FROM r WHERE a >= 100 ORDER BY tag LIMIT 30"
    result = db.execute(sql)
    expected = reference.execute(sql).fetchall()
    assert result.rows != expected
    assert [row[1] for row in result.rows] == [row[1] for row in expected]
    reference.answer(sql).check(result)


def test_dialect_float_digits():
    db, reference = _cracked_pair()
    sql = "SELECT avg(r.w), sum(r.w) FROM r WHERE a BETWEEN 100 AND 900"
    (got,) = db.execute(sql).rows
    (expected,) = reference.execute(sql).fetchall()
    assert got != expected
    assert got == pytest.approx(expected, rel=1e-9)
    reference.answer(sql).check(db.execute(sql))


def test_dialect_empty_sum():
    db, reference = _cracked_pair()
    sql = "SELECT sum(r.a), sum(r.w), count(*), avg(r.w), min(r.a) FROM r WHERE a < 0"
    assert db.execute(sql).rows == [(0, 0, 0, None, None)]
    assert reference.execute(sql).fetchall() == [(None, None, 0, None, None)]
    reference.answer(sql).check(db.execute(sql))


def test_a_difference_outside_the_table_is_caught():
    """The comparison is not vacuous: a wrong value, a lost row or a
    wrong count each fails it."""
    _, reference = _cracked_pair()
    sql = "SELECT r.k, r.a FROM r WHERE a BETWEEN 200 AND 220 ORDER BY a"
    right = reference.execute(sql).fetchall()
    answer = reference.answer(sql)
    answer.check(QueryResult(["r.k", "r.a"], rows=right))
    wrong_value = [right[0][:1] + (right[0][1] + 1,)] + right[1:]
    for rows in (wrong_value, right[1:], right[::-1]):
        with pytest.raises(AssertionError):
            answer.check(QueryResult(["r.k", "r.a"], rows=rows))
    count = reference.answer("UPDATE r SET a = 1 WHERE k < 10")
    with pytest.raises(AssertionError):
        count.check(QueryResult([], rows=[], affected=9))


# ---------------------------------------------------------------------- #
# The non-SELECT paths
# ---------------------------------------------------------------------- #

#: sqlite's declared type of a ``CREATE TABLE ... AS SELECT`` column.
_SQLITE_TYPES = {"INT": "int", "REAL": "float", "TEXT": "str"}


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_insert_select_and_select_into(name):
    for seed in (1, 2, 3):
        db, reference = _loaded(ENGINE_CONFIGS[name], seed)
        both = {name: db}
        rng = np.random.default_rng(seed + 3000)
        assert_matches_sqlite(both, reference, random_mixed_dml(rng, 30), (seed,))
        # INSERT ... SELECT creates a missing target from the source
        # schema; sqlite needs it made first.
        reference.execute("CREATE TABLE fresh AS SELECT * FROM r WHERE 0")
        assert_matches_sqlite(both, reference, [
            "CREATE TABLE narrow (k integer, a integer, w float, tag varchar)",
            "INSERT INTO narrow SELECT * FROM r WHERE a BETWEEN 250 AND 750",
            "INSERT INTO narrow SELECT * FROM r WHERE a > 900 AND tag <> 't1'",
            "INSERT INTO fresh SELECT * FROM r WHERE a < 100",
            "SELECT * FROM narrow",
            "SELECT * FROM fresh",
        ], (seed,))
        for sql, target in (
            ("SELECT r.k, r.w, r.tag INTO picked FROM r WHERE a BETWEEN 100 AND 300",
             "picked"),
            ("SELECT * INTO vacant FROM r WHERE a BETWEEN 500 AND 100", "vacant"),
        ):
            result = db.execute(sql)
            reference.execute(sql)
            assert result.affected == reference.execute(
                f"SELECT count(*) FROM {target}"
            ).fetchone()[0], sql
            types = [
                _SQLITE_TYPES[row[2]]
                for row in reference.execute(f"PRAGMA table_info({target})")
            ]
            assert [c.col_type for c in db.catalog.table(target).schema] == types
            assert_matches_sqlite(both, reference, [f"SELECT * FROM {target}"])


def _inserted_from_select(name: str, statements: list[str]):
    """``statements`` (CREATE TABLEs and INSERT … SELECTs) on a loaded
    configuration and on sqlite; the pair, for further checks."""
    db, reference = _loaded(ENGINE_CONFIGS[name], seed=5)
    assert_matches_sqlite({name: db}, reference, statements)
    return db, reference


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_insert_select_stores_an_int_answer_in_a_float_column(name):
    db, reference = _inserted_from_select(name, [
        "CREATE TABLE fl (k integer, x float)",
        "INSERT INTO fl SELECT r.k, r.a FROM r WHERE a < 400",
        "INSERT INTO fl SELECT s.k, s.g FROM s WHERE g > 6",
    ])
    assert_matches_sqlite({name: db}, reference, [
        "SELECT * FROM fl", "SELECT count(*), sum(fl.x) FROM fl WHERE x > 200",
    ])
    assert {type(row[1]) for row in db.execute("SELECT * FROM fl").rows} == {float}
    db.check_invariants()


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_insert_select_refuses_a_fractional_float_in_an_int_column(name):
    """sqlite keeps 2.5 in an INTEGER column; the engine refuses the
    whole statement (the ``stored_value`` rule) and stores nothing, but
    stores an integral float as its int, as sqlite does."""
    db, reference = _inserted_from_select(name, [
        "CREATE TABLE whole (k integer, a integer)",
        "CREATE TABLE fl (k integer, x float)",
        "INSERT INTO fl SELECT r.k, r.a FROM r WHERE a < 300",
    ])
    for sql, message in (
        ("INSERT INTO whole SELECT r.k, r.w FROM r WHERE w > 1", "is integer; got"),
        ("INSERT INTO whole SELECT r.k, r.tag FROM r", "is numeric; got"),
    ):
        with pytest.raises(SQLAnalysisError, match=f"column 'a' {message}"):
            db.execute(sql)
    assert_matches_sqlite({name: db}, reference, [
        "SELECT * FROM whole",
        "INSERT INTO whole SELECT * FROM fl",
        "SELECT * FROM whole",
    ])
    assert {type(row[1]) for row in db.execute("SELECT * FROM whole").rows} == {int}
    db.check_invariants()


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_insert_select_stores_a_varchar_column(name):
    db, reference = _inserted_from_select(name, [
        "CREATE TABLE labels (k integer, tag varchar)",
        "INSERT INTO labels SELECT r.k, r.tag FROM r WHERE tag <> 't1'",
        "INSERT INTO labels SELECT s.g, t.label FROM s, t WHERE s.g = t.g AND s.k < 200",
    ])
    with pytest.raises(SQLAnalysisError, match="column 'tag' is text; got"):
        db.execute("INSERT INTO labels SELECT r.k, r.a FROM r")
    assert_matches_sqlite({name: db}, reference, [
        "SELECT * FROM labels",
        "SELECT count(*) FROM labels WHERE tag = 'g3'",
        "SELECT labels.tag, count(*) FROM labels GROUP BY labels.tag",
    ])
    db.check_invariants()


#: ``(SQL with literals, the same with ? markers, parameter tuples)``.
PREPARED = [
    (
        "SELECT count(*), sum(r.a) FROM r WHERE a BETWEEN 0 AND 10",
        "SELECT count(*), sum(r.a) FROM r WHERE a BETWEEN ? AND ?",
        [(0, 10), (100, 400), (250, 900), (700, 50)],
    ),
    (
        "SELECT r.k, r.a FROM r WHERE a >= 500 AND tag <> 't1'",
        "SELECT r.k, r.a FROM r WHERE a >= ? AND tag <> ?",
        [(500, "t1"), (900, "t0"), (0, "t5")],
    ),
    (
        "SELECT s.g, count(*), avg(r.w) FROM r, s WHERE r.k = s.k AND r.a < 300 "
        "GROUP BY s.g ORDER BY g DESC",
        "SELECT s.g, count(*), avg(r.w) FROM r, s WHERE r.k = s.k AND r.a < ? "
        "GROUP BY s.g ORDER BY g DESC",
        [(300,), (50,), (1000,)],
    ),
]


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_prepared_statements_bind_like_sqlite(name):
    for seed in (4, 5, 6):
        db, reference = _loaded(ENGINE_CONFIGS[name], seed)
        prepared = [(db.prepare(sql), qmark, params) for sql, qmark, params in PREPARED]
        rng = np.random.default_rng(seed + 4000)
        for _ in range(2):
            for stmt, qmark, params in prepared:
                reference.answer(qmark, params[0]).check(stmt.execute(), (seed,))
                for values in params:
                    reference.answer(qmark, values).check(
                        stmt.execute(values), (seed, values)
                    )
            # Mutations in between: a memoised analysis must not go stale.
            assert_matches_sqlite({name: db}, reference, random_mixed_dml(rng, 20))


def _sqlite_batch(reference: SqliteReference, batch: list[str]) -> list | None:
    """``batch`` in one sqlite transaction: COMMIT if every statement
    runs, else ROLLBACK; the per-statement answers, or None."""
    reference.execute("BEGIN")
    try:
        answers = [reference.answer(sql) for sql in batch]
    except sqlite3.Error:
        reference.execute("ROLLBACK")
        return None
    reference.execute("COMMIT")
    return answers


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_transactions_commit_and_abort_like_sqlite(name):
    committed = [
        "INSERT INTO r VALUES (7000000, 42, 1.25, 't1'), (7000001, 43, 2.5, 't2')",
        "UPDATE r SET a = 5 WHERE k < 10",
        "DELETE FROM r WHERE a > 990",
        "SELECT r.k, r.a INTO low FROM r WHERE a < 50",
        "INSERT INTO s VALUES (7000000, 3)",
    ]
    aborted = [
        "UPDATE r SET a = 1 WHERE a < 500",
        "DELETE FROM r WHERE a BETWEEN 600 AND 700",
        "SELECT r.k INTO gone FROM r WHERE a < 20",
        "INSERT INTO missing VALUES (1)",
    ]
    probes = [
        "SELECT * FROM r",
        "SELECT * FROM s",
        "SELECT * FROM low",
        "SELECT count(*), sum(r.a) FROM r WHERE a BETWEEN 0 AND 600",
    ]
    for seed in (7, 8, 9):
        db, reference = _loaded(ENGINE_CONFIGS[name], seed)
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 200 AND 700")  # crack
        results = db.execute_transaction(committed)
        answers = _sqlite_batch(reference, committed)
        for answer, result in zip(answers, results):
            answer.check(result, (seed,))
        with pytest.raises(ReproError):
            db.execute_transaction(aborted)
        assert _sqlite_batch(reference, aborted) is None
        assert not db.catalog.has_table("gone")
        assert_matches_sqlite({name: db}, reference, probes, (seed,))
        db.check_invariants()


# ---------------------------------------------------------------------- #
# Join orders past the optimizer's budget
# ---------------------------------------------------------------------- #


def test_a_star_past_the_budget_answers_in_any_from_order():
    """A 16-way star has 2**15 connected hub sets, past the planner's
    budget, so it joins in the fallback order.  With the hub listed last
    that order must still be connected."""
    databases = make_databases()
    reference = SqliteReference()
    rows = ", ".join(f"({i}, {i % 7})" for i in range(200))
    for target in (*databases.values(), reference):
        target.execute("CREATE TABLE r (k integer, a integer)")
        target.execute(f"INSERT INTO r VALUES {rows}")
    leaves = [f"r{i}" for i in range(1, 16)]
    joins = " AND ".join(f"r0.k = {leaf}.k" for leaf in leaves)
    hub_last = ", ".join(f"r {leaf}" for leaf in leaves) + ", r r0"
    hub_first = "r r0, " + ", ".join(f"r {leaf}" for leaf in leaves)
    statements = [
        f"SELECT count(*) FROM {hub_last} WHERE {joins}",
        f"SELECT count(*) FROM {hub_first} WHERE {joins}",
        f"SELECT r0.a, count(*) FROM {hub_last} WHERE {joins} AND r3.a < 3 "
        "GROUP BY r0.a",
    ]
    assert_matches_sqlite(databases, reference, statements)
    assert databases["default"].execute(statements[0]).scalar() == 200
