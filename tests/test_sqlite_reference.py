"""Every engine configuration against stdlib ``sqlite3``.

:class:`oracle.SqliteReference` shares no code with the engine, so a bug
in the lexer, parser, analyzer, plan cache or an aggregate shows up here
even when every configuration shares it.  Answers may differ only as
:data:`oracle.DIALECT` lists, and each row of that table has a test
below that fails if the difference disappears or changes.
"""

import re
import sqlite3
from math import nan as NAN

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
from repro.client import Client
from repro.errors import ReproError, SQLAnalysisError
from repro.server import ServerThread
from repro.sql import Database, QueryResult
from repro.storage.table import Column, Relation, Schema

#: Seeds of the main differential, per configuration.
SEEDS = range(50)

#: A numeric literal of a template (the prepared parameters, in order).
_LITERAL = re.compile(r"\b\d+(?:\.\d+)?\b")


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


#: Prepared range templates and NaN parameter tuples: either bound of a
#: BETWEEN, and each side of a one-sided bound, on a float and an int column.
_NAN_BOUNDS = (
    ("SELECT count(*) FROM r WHERE w BETWEEN 2.5 AND 7.5", ((NAN, 7.5), (2.5, NAN))),
    ("SELECT count(*) FROM r WHERE a BETWEEN 100 AND 700", ((NAN, 700), (100, NAN))),
    ("SELECT count(*) FROM r WHERE w < 5.5", ((NAN,),)),
    ("SELECT r.k, r.w FROM r WHERE w >= 5.5", ((NAN,),)),
    ("SELECT r.k FROM r WHERE a > 300", ((NAN,),)),
)


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_a_nan_bound_qualifies_no_row(name):
    """No value compares true with NaN, so a NaN parameter answers
    nothing, as sqlite does, on a column already cracked or sorted."""
    db, reference = _loaded(ENGINE_CONFIGS[name], seed=3)
    db.execute("SELECT count(*) FROM r WHERE w BETWEEN 1.5 AND 8.5")
    db.execute("SELECT count(*) FROM r WHERE a BETWEEN 200 AND 800")
    for template, cases in _NAN_BOUNDS:
        prepared = db.prepare(template)
        for params in cases:
            result = prepared.execute(params)
            template_sql = _LITERAL.sub("?", template)
            reference.answer(template_sql, params).check(result, (name, params))
            assert result.rows in ([], [(0,)]), (template, params)
    db.check_invariants()


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_a_nan_leaves_a_not_equal_filter(name):
    """``<>`` qualifies no row where either side is NaN (sqlite's NULL):
    neither a stored NaN nor a NaN parameter, in a SELECT or a DELETE."""
    values = [1.0, NAN, 3.0, NAN, 5.0, 3.0]
    for sql in ("SELECT count(*) FROM n WHERE a <> 3", "DELETE FROM n WHERE a <> 3"):
        db, reference = Database(**ENGINE_CONFIGS[name]), SqliteReference()
        schema = Schema([Column("k", "int"), Column("a", "float")])
        db.catalog.create_table(
            Relation.from_columns("n", schema, {"k": range(6), "a": values})
        )
        reference.execute("CREATE TABLE n (k integer, a float)")
        for row in enumerate(values):
            reference.execute("INSERT INTO n VALUES (?, ?)", row)
        reference.answer(sql).check(db.execute(sql), (name,))
        assert_matches_sqlite({name: db}, reference, ["SELECT count(*), sum(n.k) FROM n"])
    db, reference = _loaded(ENGINE_CONFIGS[name], seed=3)
    template = "SELECT count(*) FROM r WHERE w <> 5.0"
    result = db.prepare(template).execute((NAN,))
    reference.answer(_LITERAL.sub("?", template), (NAN,)).check(result, (name,))
    assert result.rows == [(0,)]


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_nan_join_keys_match_nothing(name):
    """NaN is sqlite's NULL, and NULL equals nothing, itself included."""
    values = [1.0, 2.0, NAN, NAN]
    db, reference = Database(**ENGINE_CONFIGS[name]), SqliteReference()
    db.catalog.create_table(Relation.from_columns(
        "n", Schema([Column("k", "int"), Column("a", "float")]),
        {"k": range(4), "a": values},
    ))
    reference.execute("CREATE TABLE n (k integer, a float)")
    for row in enumerate(values):
        reference.execute("INSERT INTO n VALUES (?, ?)", row)
    statements = [
        "SELECT count(*) FROM n x, n y WHERE x.a = y.a",
        "SELECT count(*) FROM n x, n y WHERE x.a = y.a AND x.k < 3",
        "SELECT x.k, y.k FROM n x, n y WHERE x.a = y.a",
    ]
    assert_matches_sqlite({name: db}, reference, statements)
    assert db.execute(statements[0]).rows == [(2,)]


#: ``r(k, a)`` with rows ``(i % 5, i % 3)``: joins with an edge that no
#: join step uses (a parallel edge, a cycle), and sqlite's counts.
_EXTRA_EDGES = [
    ("SELECT count(*) FROM r x, r y WHERE x.k = y.k AND x.a = y.a", 60),
    ("SELECT count(*) FROM r x, r y, r z WHERE x.k = y.k AND y.a = z.a AND z.k = x.a",
     360),
]


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_a_join_edge_off_the_join_tree_filters(name):
    db = Database(**ENGINE_CONFIGS[name])
    db.execute("CREATE TABLE r (k integer, a integer)")
    db.execute("INSERT INTO r VALUES " + ", ".join(f"({i % 5}, {i % 3})" for i in range(30)))
    for sql, count in _EXTRA_EDGES:
        assert db.execute(sql).rows == [(count,)], sql


#: The integer columns of the standard tables and their literal domains.
_JOIN_COLUMNS = {"r": ("k", "a"), "s": ("k", "g"), "t": ("g",)}
_DOMAINS = {"k": 120, "a": 1000, "g": 9}


def _random_join(rng) -> str:
    """A ``count(*)`` over 1–4 of ``r``/``s``/``t`` joined by a random
    spanning tree of integer equi-join edges, with 0–2 extra edges and
    0–2 range, point or ``<>`` predicates, in shuffled order."""
    n = int(rng.integers(1, 5))
    tables = [str(rng.choice(list(_JOIN_COLUMNS))) for _ in range(n)]

    def column(i: int) -> tuple[str, str]:
        attr = str(rng.choice(_JOIN_COLUMNS[tables[i]]))
        return f"x{i}.{attr}", attr

    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    if n > 1:
        edges += [
            tuple(int(i) for i in rng.choice(n, 2, replace=False))
            for _ in range(int(rng.integers(0, 3)))
        ]
    conditions = [f"{column(i)[0]} = {column(j)[0]}" for i, j in edges]
    for _ in range(int(rng.integers(0, 3))):
        name, attr = column(int(rng.integers(0, n)))
        value = int(rng.integers(0, _DOMAINS[attr]))
        conditions.append(str(rng.choice([
            f"{name} < {value}", f"{name} >= {value}", f"{name} = {value}",
            f"{name} <> {value}", f"{name} BETWEEN {value} AND {value + _DOMAINS[attr] // 4}",
        ])))
    where = " AND ".join(conditions[i] for i in rng.permutation(len(conditions)))
    relations = ", ".join(f"{table} x{i}" for i, table in enumerate(tables))
    return f"SELECT count(*) FROM {relations}" + (f" WHERE {where}" if where else "")


def test_random_joins_count_like_sqlite():
    """Random joins, extra edges and filters, on every configuration."""
    for seed in range(8):
        databases, reference = make_databases(), SqliteReference()
        for target in (*databases.values(), reference):
            load_standard(target, seed, n_rows=120)
        rng = np.random.default_rng(seed + 5000)
        statements = [_random_join(rng) for _ in range(100)]
        assert_matches_sqlite(databases, reference, statements, (seed,))


def _balanced(conjuncts: list[str]) -> str:
    """The conjunction of ``conjuncts`` as a balanced tree of parentheses
    (sqlite refuses an expression tree deeper than 1 000)."""
    if len(conjuncts) == 1:
        return conjuncts[0]
    half = len(conjuncts) // 2
    return f"({_balanced(conjuncts[:half])} AND {_balanced(conjuncts[half:])})"


def test_five_thousand_conjuncts_answer_like_sqlite():
    """One filter holds them all, on every configuration and served."""
    conjuncts = ["a < 900"] + [f"k <> {2 * i}" for i in range(2500)]
    conjuncts += [f"a <> {i}" for i in range(0, 5000, 2)]
    head = "SELECT count(*), sum(r.a) FROM r WHERE "
    sql = head + " AND ".join(conjuncts)
    for name, config in ENGINE_CONFIGS.items():
        db, reference = _loaded(config, seed=4)
        answer = reference.answer(head + _balanced(conjuncts))
        answer.check(db.execute(sql), (name,))
    thread = ServerThread(db)
    try:
        with Client(*thread.start()) as client:
            answer.check(client.execute(sql))  # a RemoteError fails the test
    finally:
        thread.stop()


# ---------------------------------------------------------------------- #
# The dialect table: each row, shown
# ---------------------------------------------------------------------- #


def _cracked_pair() -> tuple[Database, SqliteReference]:
    """An unbounded cracker whose answers come in crack order."""
    db, reference = _loaded(ENGINE_CONFIGS["cracked"], seed=7)
    db.execute("SELECT count(*) FROM r WHERE a BETWEEN 300 AND 650")
    return db, reference


def test_dialect_table_lists_four_differences():
    assert sorted(DIALECT) == ["float_digits", "limit_ties", "mistyped", "unordered"]


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
    """Not a difference: ``sum`` over no rows is NULL, as in sqlite,
    embedded on every configuration and served."""
    statements = [
        "SELECT sum(r.a), sum(r.w), count(*), avg(r.w), min(r.a), max(r.w) FROM r WHERE a < 0",
        "SELECT sum(a) FROM r WHERE a > 5000",
        "SELECT sum(r.a), count(*) FROM r, s WHERE r.k = s.k AND r.a < 0",
    ]
    for name, config in ENGINE_CONFIGS.items():
        db, reference = _loaded(config, seed=7)
        for sql in statements:
            expected = reference.execute(sql).fetchall()
            assert db.execute(sql).rows == expected, (name, sql)
    assert expected == [(None, 0)]
    thread = ServerThread(db)
    try:
        with Client(*thread.start()) as client:
            for sql in statements:
                assert client.execute(sql).rows == reference.execute(sql).fetchall(), sql
    finally:
        thread.stop()


def test_dialect_mistyped():
    db, reference = _cracked_pair()
    for sql in (
        "SELECT count(*) FROM r WHERE a < 'x'",
        "SELECT count(*) FROM r WHERE tag BETWEEN 1 AND 5",
        "SELECT sum(r.tag), avg(r.tag) FROM r",
    ):
        assert reference.execute(sql).fetchall(), sql  # sqlite answers
        with pytest.raises(SQLAnalysisError):
            db.execute(sql)
    sql = "UPDATE r SET k = 1e19 WHERE k < 5"
    reference.execute(sql)
    assert set(reference.execute("SELECT typeof(k) FROM r WHERE k > 1e18").fetchall()) == {
        ("real",)
    }
    with pytest.raises(SQLAnalysisError, match="outside int64"):
        db.execute(sql)


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
