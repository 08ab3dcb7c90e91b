"""Every range bound is compared in its column's type, as sqlite compares it.

:func:`repro.core.bounds.typed_bound` folds a literal into its column's
type once: in the analyzer's fold, and at a cracked column's own entry
points.  The differential below runs the bound list that once broke the
cracker index's float64 keys (integers past 2**53, past int64, floats on
an int column, ±inf, NaN) against sqlite on every configuration, at 2 000
rows (one sorted piece under the shipped cut-off) and at 20 000 (past
2 × T, where pivots and query bounds reach the index), with literals in
the text, through ``Database.prepare`` and through a served ``Prepared``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from oracle import ENGINE_CONFIGS, SqliteReference
from repro.client import Client
from repro.core.bounds import EMPTY, typed_bound
from repro.core.crack import KIND_LE, KIND_LT
from repro.core.cracked_column import CrackedColumn
from repro.errors import RemoteError, SQLAnalysisError
from repro.persist.snapshot import unpack_cracker
from repro.server import ServerThread
from repro.sql import Database
from repro.sql.plan_cache import template_key
from repro.storage.table import Column, Relation, Schema

I64_MIN, I64_MAX = -(2**63), 2**63 - 1
INF, NAN = math.inf, math.nan

#: The bound list: 2**53 ± 1, ±(2**63 − 1), −2**63, −2**63 − 1, ±2**64,
#: 5.5 and 5, ±inf, NaN, 1e300 (and 2**53 as a float).
BOUNDS = [
    2**53 - 1, 2**53 + 1, I64_MAX, -I64_MAX, I64_MIN, I64_MIN - 1, 2**64, -(2**64),
    5.5, 5, INF, -INF, NAN, 1e300, 9007199254740992.0,
]

#: Stored values at the edges those bounds probe.
INT_EDGES = [
    I64_MIN, I64_MIN + 1, -(2**53) - 1, -(2**53), -6, -5, 0, 4, 5, 6,
    *range(2**53 - 3, 2**53 + 4), I64_MAX - 1, I64_MAX,
]
FLOAT_EDGES = [
    -INF, -1e300, -(2.0**64), -(2.0**63), -(2.0**53), -5.5, 0.0, 5.0, 5.5, 6.0,
    2.0**53, 2.0**53 + 2, 2.0**63, 2.0**64, 1e300, INF, NAN,
]

OPS = ("<", "<=", ">", ">=", "=", "<>")


def _literal(value) -> str | None:
    """``value`` as SQL text both dialects read alike; None for NaN."""
    if value != value:
        return None
    if value in (INF, -INF):
        return "1e999" if value > 0 else "-1e999"
    return repr(value)


def _columns(n_rows: int) -> dict:
    rng = np.random.default_rng(n_rows)
    fill = n_rows - len(INT_EDGES)
    a = np.concatenate([
        INT_EDGES,
        rng.integers(-1000, 1000, fill // 2),
        rng.integers(I64_MIN, I64_MAX, fill - fill // 2, endpoint=True),
    ]).astype(np.int64)
    fill = n_rows - len(FLOAT_EDGES)
    x = np.concatenate([
        FLOAT_EDGES,
        np.round(rng.uniform(-1000, 1000, fill // 2), 1),
        rng.integers(I64_MIN, I64_MAX, fill - fill // 2).astype(np.float64),
    ])
    return {
        "k": np.arange(n_rows), "a": rng.permutation(a), "x": rng.permutation(x),
        "z": np.zeros(n_rows, dtype=np.int64),
    }


def _statements(col: str, value, index: int) -> list[tuple]:
    """``(SQL or None for NaN, the same with markers, parameters)`` per shape."""
    text = _literal(value)
    cases = []
    for op in OPS:
        for head in ("SELECT count(*)", "SELECT count(*), sum(r.k)"):
            marked = f"{head} FROM r WHERE {col} {op} ?"
            sql = None if text is None else marked.replace("?", text)
            cases.append((sql, marked, (value,)))
    other = BOUNDS[(index + 1) % len(BOUNDS)]
    if text is not None and _literal(other) is not None:
        marked = f"SELECT count(*) FROM r WHERE {col} BETWEEN ? AND ?"
        sql = f"SELECT count(*) FROM r WHERE {col} BETWEEN {text} AND {_literal(other)}"
        cases.append((sql, marked, (value, other)))
    return cases


@lru_cache(maxsize=None)
def _expected(n_rows: int) -> tuple:
    """sqlite's answers over the bound list: ``(sql, marked, params,
    answer)``, and the UPDATEs' ``(sql, answer)``."""
    columns = _columns(n_rows)
    reference = SqliteReference()
    reference.execute("CREATE TABLE r (k integer, a integer, x float, z integer)")
    reference.connection.executemany(
        "INSERT INTO r VALUES (?, ?, ?, ?)",
        zip(*(columns[name].tolist() for name in ("k", "a", "x", "z"))),
    )
    cases = []
    for index, value in enumerate(BOUNDS):
        for col in ("a", "x"):
            for sql, marked, params in _statements(col, value, index):
                answer = (
                    reference.answer(marked, params) if sql is None
                    else reference.answer(sql)
                )
                cases.append((sql, marked, params, answer))
    updates = [
        (f"UPDATE r SET z = 1 WHERE {col} {op} {_literal(value)}",)
        for value in BOUNDS if value == value
        for col in ("a", "x") for op in OPS
    ]
    updates = [(sql, reference.answer(sql)) for (sql,) in updates]
    return tuple(cases), tuple(updates)


def _loaded(config: dict, n_rows: int) -> Database:
    db = Database(**config)
    schema = Schema([Column("k", "int"), Column("a", "int"), Column("x", "float"),
                     Column("z", "int")])
    db.catalog.create_table(Relation.from_columns("r", schema, _columns(n_rows)))
    return db


@pytest.mark.parametrize("n_rows", [2_000, 20_000])
@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_bounds_answer_like_sqlite(name, n_rows):
    cases, updates = _expected(n_rows)
    db = _loaded(ENGINE_CONFIGS[name], n_rows)
    prepared = {}
    for sql, marked, params, answer in cases:
        if sql is not None:
            answer.check(db.execute(sql), (name, n_rows))
        if marked not in prepared:
            prepared[marked] = db.prepare(marked.replace("?", "0"))
        answer.check(prepared[marked].execute(params), (name, n_rows, params))
    thread = ServerThread(db)
    try:
        with Client(*thread.start()) as client:
            served = {}
            for _, marked, params, answer in cases:
                if marked not in served:
                    served[marked] = client.prepare(marked.replace("?", "0"))
                answer.check(served[marked].execute(params), ("served", name, n_rows, params))
    finally:
        thread.stop()
    for sql, answer in updates:
        answer.check(db.execute(sql), (name, n_rows))
    if name != "scan" and n_rows > 2 * db._cracker.crack_threshold:
        assert db.piece_count("r", "a") > 1 and db.piece_count("r", "x") > 1
    for column in db.cracked_columns().values():
        assert column.index.keys()[0].dtype == column.values.dtype
    db.check_invariants()


def _around_two_to_the_53(config: dict) -> Database:
    """``t(a integer, x float)`` over 2**53 − 3 … 2**53 + 3."""
    values = list(range(2**53 - 3, 2**53 + 4))
    rows = ", ".join(f"({v}, {float(v)!r})" for v in values)
    db = Database(**config)
    db.execute("CREATE TABLE t (a integer, x float)")
    db.execute(f"INSERT INTO t VALUES {rows}")
    return db


#: Over 2**53 − 3 … 2**53 + 3 (x holds their nearest floats), sqlite's counts.
AROUND_2_53 = [
    ("SELECT count(*) FROM t WHERE a > 9007199254740992.0", 3),
    ("SELECT count(*) FROM t WHERE a >= 9007199254740992.5", 4),  # the REAL 2**53
    ("SELECT count(*) FROM t WHERE a <= 9007199254740993", 5),
    ("SELECT count(*) FROM t WHERE a = 9007199254740993", 1),
    ("SELECT count(*) FROM t WHERE x > 9007199254740993", 2),
    ("SELECT count(*) FROM t WHERE x < 9007199254740993", 5),
    ("SELECT count(*) FROM t WHERE x = 9007199254740993", 0),
    ("SELECT count(*) FROM t WHERE x <> 9007199254740993", 7),
]


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_values_around_two_to_the_53_count_like_sqlite(name):
    db = _around_two_to_the_53(ENGINE_CONFIGS[name])
    reference = SqliteReference()
    reference.execute("CREATE TABLE t (a integer, x float)")
    for v in range(2**53 - 3, 2**53 + 4):
        reference.execute("INSERT INTO t VALUES (?, ?)", (v, float(v)))
    thread = ServerThread(db)
    try:
        with Client(*thread.start()) as client:
            for sql, count in AROUND_2_53:
                assert reference.execute(sql).fetchone()[0] == count, sql
                assert db.execute(sql).rows == [(count,)], (name, sql)
                assert client.execute(sql).rows == [(count,)], (name, sql)
    finally:
        thread.stop()
    db.check_invariants()


def test_an_int_boundary_above_two_to_the_53_survives_a_checkpoint(tmp_path):
    store = tmp_path / "store"
    db = Database(persist_dir=store, crack_threshold=0)
    db.execute("CREATE TABLE t (k integer, a integer)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, {2**53 - 50 + i})" for i in range(100)
    ))
    assert db.execute("SELECT count(*) FROM t WHERE a > 9007199254740993").scalar() == 48
    db.checkpoint()
    db.close()
    reopened = Database(persist_dir=store, crack_threshold=0)
    try:
        index = reopened.cracked_columns()[("t", "a")].index
        assert [(b.value, b.kind) for b in map(index.boundary_at, range(len(index)))] == [
            (2**53 + 1, KIND_LE)
        ]
        assert index.keys()[0].dtype == np.int64
        assert reopened.execute("SELECT count(*) FROM t WHERE a > 9007199254740993").scalar() == 48
        assert reopened.piece_count("t", "a") == 2
    finally:
        reopened.close()


def test_a_format_1_index_keeps_what_its_column_holds():
    """Format 1 stored boundary values as float64: on an int column a
    5.5 is dropped (its pieces merge) and a 10.0 becomes the int 10."""
    values = np.array([1, 2, 3, 7, 8, 12, 13], dtype=np.int64)
    arrays = {
        "values": values, "oids": np.arange(7), "pending_values": values[:0],
        "pending_oids": np.arange(0), "idx_values": np.array([5.5, 10.0]),
        "idx_ranks": np.array([0, 1], dtype=np.int8),
        "idx_positions": np.array([3, 5]),
        "idx_exact_values": np.array([5.5, 10.0]),
        "idx_exact_is_int": np.array([False, False]),
    }
    meta = {"kind": "single", "next_oid": 7, "index": {"column_size": 7}}
    column = unpack_cracker(meta, arrays, 1)
    index = column.index
    assert [(b.value, b.kind, b.position) for b in map(index.boundary_at, range(len(index)))] == [
        (10, KIND_LE, 5)
    ]
    assert type(index.boundary_at(0).value) is int
    assert column.count_range(3, 10, True, True) == 3


# ---------------------------------------------------------------------- #
# The rule itself
# ---------------------------------------------------------------------- #

#: ``(value, side, inclusive, integer) -> typed_bound``.
RULE = [
    ((5, "high", False, True), (5, False)),
    ((5.5, "high", False, True), (5, True)),
    ((5.0, "high", True, True), (5, True)),
    ((5.5, "low", False, True), (6, True)),
    ((-5.5, "high", True, True), (-6, True)),
    ((5.0, "low", False, True), (5, False)),
    ((INF, "high", False, True), None),
    ((INF, "low", True, True), EMPTY),
    ((-INF, "low", True, True), None),
    ((1e300, "low", True, True), EMPTY),
    ((2.0**63, "high", False, True), None),
    ((2**64, "low", True, True), EMPTY),
    ((I64_MIN - 1, "low", False, True), (I64_MIN, False)),  # sqlite's REAL -2**63
    ((-(2**64), "high", True, True), EMPTY),
    ((NAN, "low", True, True), EMPTY),
    ((NAN, "high", True, False), EMPTY),
    ((5, "low", True, False), (5.0, True)),
    ((2**53 + 1, "high", False, False), (2.0**53, True)),
    ((2**53 + 1, "low", False, False), (2.0**53 + 2, True)),
    ((I64_MAX, "high", False, False), (2.0**63 - 1024, True)),
    ((I64_MAX, "low", False, False), (2.0**63, True)),
    ((10**400, "high", True, False), (INF, True)),
    ((np.int64(7), "low", True, True), (7, True)),
    ((np.float64(7.5), "high", True, True), (7, True)),
]


@pytest.mark.parametrize("args, expected", RULE)
def test_typed_bound(args, expected):
    got = typed_bound(*args)
    assert got == expected and type(got) is type(expected), args
    if isinstance(got, tuple):
        assert type(got[0]) is (int if args[3] else float), args


def test_an_int_literal_on_an_int_column_is_returned_unchanged():
    value = 2**62 + 1
    assert typed_bound(value, "low", True, True)[0] is value


def test_a_cracked_column_folds_its_callers_bounds():
    column = CrackedColumn.from_arrays(np.arange(-5, 6, dtype=np.int64))
    assert column.range_select(-2.5, 2.5).values.tolist() == [-2, -1, 0, 1, 2]
    assert column.count_range(2**64) == 0
    assert column.count_range(None, 2**64) == 11
    assert column.count_range(NAN) == 0
    assert [b.kind for b in map(column.index.boundary_at, range(len(column.index)))] == [
        KIND_LT, KIND_LE,
    ]
    column.check_invariants()


# ---------------------------------------------------------------------- #
# Exponent literals and mistyped operands
# ---------------------------------------------------------------------- #

EXPONENTS = ["1e300", "1e-05", "1.5e1", "-2.5E-3", "1E5", "2.5e+2"]


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_exponent_literals_answer_like_sqlite(name):
    db, reference = Database(**ENGINE_CONFIGS[name]), SqliteReference()
    for target in (db, reference):
        target.execute("CREATE TABLE e (k integer, x float)")
        target.execute("INSERT INTO e VALUES " + ", ".join(
            f"({i}, {text})" for i, text in enumerate(EXPONENTS)
        ))
    statements = ["SELECT * FROM e ORDER BY k", "SELECT count(*) FROM e WHERE k < 1e300"]
    for text in EXPONENTS:
        statements += [
            f"SELECT count(*) FROM e WHERE x < {text}",
            f"SELECT count(*), sum(e.k) FROM e WHERE x >= {text}",
            f"SELECT count(*) FROM e WHERE k <= {text}",
        ]
    for sql in statements:
        reference.answer(sql).check(db.execute(sql), (name,))
    assert db.execute("SELECT count(*) FROM e WHERE k < 1e300").scalar() == len(EXPONENTS)
    key, literals = template_key("SELECT count(*) FROM e WHERE x < -2.5E-3 AND k > 1e300")
    assert key == template_key("SELECT count(*) FROM e WHERE x < 1 AND k > 2")[0]
    assert literals == (-0.0025, 1e300)


#: The mistyped shapes: each an ``SQLAnalysisError`` (wire code ``analysis``).
MISTYPED = [
    "SELECT count(*) FROM r WHERE a < 'x'",
    "SELECT r.k FROM r WHERE a BETWEEN 10 AND ''",
    "SELECT r.k FROM r WHERE a BETWEEN '' AND 500",
    "SELECT count(*) FROM r WHERE tag = 5",
    "SELECT count(*) FROM r WHERE tag <> 5",
    "SELECT count(*) FROM r WHERE a <> 'x'",
    "UPDATE r SET a = 1 WHERE k = ''",
    "UPDATE r SET a = 1 WHERE tag < 3",
    "DELETE FROM r WHERE k = ''",
    "DELETE FROM r WHERE tag BETWEEN 1 AND 2",
    "SELECT sum(*) FROM r",
    "SELECT avg(*) FROM r",
    "SELECT sum(r.tag) FROM r",
    "SELECT r.k, avg(r.tag) FROM r GROUP BY r.k",
]


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_mistyped_operands_are_analysis_errors(name):
    db = Database(**ENGINE_CONFIGS[name])
    db.execute("CREATE TABLE r (k integer, a integer, tag varchar)")
    db.execute("INSERT INTO r VALUES (1, 10, 'x'), (2, 20, 'y')")
    for sql in MISTYPED:
        with pytest.raises(SQLAnalysisError):
            db.execute(sql)
    prepared = db.prepare("SELECT count(*) FROM r WHERE a < 5")
    with pytest.raises(SQLAnalysisError):
        prepared.execute(("x",))
    thread = ServerThread(db)
    try:
        with Client(*thread.start()) as client:
            for sql in MISTYPED:
                with pytest.raises(RemoteError) as caught:
                    client.execute(sql)
                assert caught.value.code == "analysis", sql
            with pytest.raises(RemoteError) as caught:
                client.prepare("SELECT count(*) FROM r WHERE tag = 'x'").execute([5])
            assert caught.value.code == "analysis"
    finally:
        thread.stop()
    assert db.execute("SELECT count(*), sum(r.a) FROM r").rows == [(2, 30)]
    db.check_invariants()
