"""The COUNT(*) pushdown: one decision per resolution, checked against sqlite.

A ``count(*)`` over one table whose every condition is a range on one
numeric column is answered by the cracker directly; every other shape
takes the batch tree.  Each shape below runs against sqlite on every
:data:`~oracle.ENGINE_CONFIGS` entry five ways — a first run, an exact
hit, a template hit, a prepared execution, and inside
``execute_transaction`` after a SELECT … INTO that replaces its table —
and through a served ``Client``.  A traced count keeps its spans, its
EXPLAIN and its advice.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle import ENGINE_CONFIGS, SqliteReference, load_standard, pushdown_query_suite
from repro.client import Client
from repro.server import ServerThread
from repro.sql import Database, statements
from repro.sql.plan_cache import template_key
from repro.storage.table import Column, Relation, Schema
from test_typed_bounds import BOUNDS, _columns, _literal

SEED = 3

#: Shapes the pushdown answers: one numeric column, range conditions only.
PUSHED = [
    "SELECT count(*) FROM r WHERE a > 500",
    "SELECT count(*) FROM r WHERE a >= 500",
    "SELECT count(*) FROM r WHERE a < 300",
    "SELECT count(*) FROM r WHERE a <= 300",
    "SELECT count(*) FROM r WHERE a = 517",
    "SELECT count(*) FROM r WHERE a BETWEEN 200 AND 700",
    "SELECT count(*) FROM r WHERE a > 5 AND a <= 90 AND a >= 7",
    "SELECT count(*) FROM r WHERE r.a BETWEEN 100 AND 900 AND a < 450",
    "SELECT count(*) FROM r WHERE w > 2.5",
    "SELECT count(*) FROM r WHERE w BETWEEN 1 AND 7.25 AND w < 6",
    # one value bounded twice, inclusive and not (236 and 1.813 are stored)
    "SELECT count(*) FROM r WHERE a >= 236 AND a > 236 AND a <= 700",
    "SELECT count(*) FROM r WHERE a > 236 AND a >= 236",
    "SELECT count(*) FROM r WHERE a <= 236 AND a < 236",
    "SELECT count(*) FROM r WHERE a = 236 AND a <= 236",
    "SELECT count(*) FROM r WHERE w < 1.813 AND w <= 1.813",
    # empty and inverted ranges
    "SELECT count(*) FROM r WHERE a BETWEEN 700 AND 300",
    "SELECT count(*) FROM r WHERE a > 900 AND a < 100",
    "SELECT count(*) FROM r WHERE a < 0",
    "SELECT count(*) FROM r WHERE a = 5.5",
    "SELECT count(*) FROM r WHERE a > 600 AND a <= 600",
] + [
    f"SELECT count(*) FROM r WHERE {column} {op} {_literal(value)}"
    for value in BOUNDS if value == value
    for column in ("a", "w")
    for op in ("<", "<=", ">", ">=", "=")
]

#: Shapes that must take the batch tree.
FALLBACK = [
    "SELECT count(*) FROM r WHERE a <> 5",
    "SELECT count(*) FROM r WHERE w BETWEEN 1 AND 7.25 AND w <> 5.5",
    "SELECT count(*) FROM r WHERE a > 100 AND w < 5.0",
    "SELECT count(*) FROM r WHERE tag BETWEEN 't1' AND 't3'",
    "SELECT r.tag, count(*) FROM r WHERE a > 300 GROUP BY r.tag",
    "SELECT count(*) FROM r WHERE a > 300 LIMIT 1",
    "SELECT count(*), sum(r.a) FROM r WHERE a > 300",
    "SELECT count(*) FROM r, s WHERE r.k = s.k AND r.a < 400",
    "SELECT count(*) FROM r",
]

SHAPES = list(dict.fromkeys(PUSHED + FALLBACK + pushdown_query_suite()))

#: Replaces ``r`` by a copy of itself: every analysis of ``r`` goes stale.
REPLACE_R = "SELECT k, a, w, tag INTO r FROM r"


def _reference() -> SqliteReference:
    reference = SqliteReference()
    load_standard(reference, SEED)
    return reference


def _database(config: dict) -> Database:
    db = Database(**config)
    load_standard(db, SEED)
    return db


def _sibling(sql: str) -> str:
    """``sql``'s template with other literals: its first run stores the
    template that ``sql`` then hits."""
    key, literals = template_key(sql)
    for value in literals:
        key = key.replace("?", "'t9'" if isinstance(value, str) else "0", 1)
    return key


@pytest.fixture(scope="module")
def answers():
    reference = _reference()
    return {sql: reference.answer(sql) for sql in SHAPES}


@pytest.fixture
def plans(monkeypatch):
    """The statements ``build_plan`` ran for, in order."""
    seen = []
    build_plan = statements.build_plan

    def counting(query, *args, **kwargs):
        seen.append(query)
        return build_plan(query, *args, **kwargs)

    monkeypatch.setattr(statements, "build_plan", counting)
    return seen


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_every_shape_answers_like_sqlite_five_ways(name, answers, plans):
    config = ENGINE_CONFIGS[name]
    cracking, caching = config.get("cracking", True), config.get("plan_cache", True)
    db, seeded = _database(config), _database(config)
    for sql in SHAPES:
        answer = answers[sql]
        del plans[:]
        answer.check(db.execute(sql), (name, "first run"))
        pushed = cracking and sql in PUSHED
        assert (not plans) == pushed, (name, sql)
        answer.check(db.execute(sql), (name, "exact hit"))
        seeded.execute(_sibling(sql))
        hits = seeded.stats()["plan_cache"]["template_hits"]
        answer.check(seeded.execute(sql), (name, "template hit"))
        if caching and _sibling(sql) != sql:
            assert seeded.stats()["plan_cache"]["template_hits"] == hits + 1, sql
        prepared = db.prepare(sql)
        answer.check(prepared.execute(), (name, "prepared"))
        answer.check(prepared.execute(template_key(sql)[1]), (name, "prepared, bound"))
        del plans[:]
        (_, result) = db.execute_transaction([REPLACE_R, sql])
        answer.check(result, (name, "after SELECT INTO in a batch"))
        assert len(plans) == 1 + (not pushed), (name, sql)  # INTO's, and the count's
        answer.check(db.execute(sql), (name, "after the batch"))
    db.check_invariants()
    seeded.check_invariants()


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_a_count_of_a_table_created_in_the_same_batch(name):
    db = _database(ENGINE_CONFIGS[name])
    count = "SELECT count(*) FROM e WHERE v BETWEEN 2 AND 8"
    assert [result.rows for result in db.execute_transaction([
        "CREATE TABLE e (v integer)",
        count,
        "INSERT INTO e VALUES (1), (5), (8), (9)",
        count,
    ])][1::2] == [[(0,)], [(2,)]]
    assert db.execute(count).rows == [(2,)]


def test_the_shapes_answer_like_sqlite_served(answers):
    db = _database({})
    thread = ServerThread(db)
    try:
        with Client(*thread.start()) as client:
            for _ in range(2):  # first runs, then exact hits
                for sql in SHAPES:
                    answers[sql].check(client.execute(sql), ("served",))
            for sql in PUSHED:
                prepared = client.prepare(sql)
                answers[sql].check(prepared.execute(template_key(sql)[1]), ("served",))
    finally:
        thread.stop()
    db.check_invariants()


COUNT = "SELECT count(*) FROM r WHERE a > 5 AND a <= 90 AND a >= 7"


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_a_pushed_count_keeps_its_advice_explain_and_spans(name):
    db = _database(ENGINE_CONFIGS[name])
    for _ in range(2):  # the exact hit's advice is folded on read, too
        result = db.execute(COUNT)
        assert [(advice.op, advice.params) for advice in result.advice] == [
            ("Ξ", "7 <= r.a <= 90")
        ]
    assert db.explain(COUNT).splitlines() == [
        "tables: r",
        "selections: 7 <= r.a <= 90",
        "joins: (none)",
        "group by: (none)",
        "cracker advice:",
        "  Ξ  7 <= r.a <= 90",
    ]
    spans = [row[0] for row in db.execute("EXPLAIN ANALYZE " + COUNT).rows]
    crack = ["    crack"] if ENGINE_CONFIGS[name].get("cracking", True) else []
    assert spans == [
        "statement", "  lex", "  parse", "  plan_cache", "  analyze", "  plan",
        *crack, "  gather",
    ]


# ---------------------------------------------------------------------- #
# A converged column: every bound lands in a sorted piece or on a boundary
# ---------------------------------------------------------------------- #

#: Rows and cut-off of the converged case: pieces of at most T tuples,
#: each sorted, after the warm-up below.
CONVERGED_ROWS, CONVERGED_T = 2_000, 64


def _converge(db: Database, column: str, values: np.ndarray) -> None:
    """Cut ``column`` at every T/2-th value in order, then land a bound in
    each piece, so each is sorted."""
    ordered = np.sort(values[values == values])
    step = CONVERGED_T // 2
    for offset in (0, step // 2):
        for low in range(offset, len(ordered) - step, step):
            db.execute(
                f"SELECT count(*) FROM r WHERE {column} >= {_literal(ordered[low].item())} "
                f"AND {column} < {_literal(ordered[low + step].item())}"
            )


def _landing_values(column, integer: bool) -> list:
    """Where a converged column's bounds land: a sorted piece's first and
    last value and one inside it, a boundary value and one below and one
    above it, then the bound list."""
    values = column.values.tolist()
    picks = []
    for start, stop in sorted(column._sorted_spans)[::13]:
        if stop - start > 2:
            picks += [values[start], values[(start + stop) // 2], values[stop - 1]]
    step = 1 if integer else 0.5
    picks += [key + delta for key in column.index.keys()[0][::11].tolist()
              for delta in (-step, 0, step)]
    picks = [value for value in picks if value == value and abs(value) < 2**62]
    return picks + [value for value in BOUNDS if value == value]


def _ranges(picks: list) -> list:
    """Pairs of landing values: inside one sorted piece (neighbours in
    ``picks``), across pieces, and one-sided."""
    pairs = [(low, high) for low, high in zip(picks, picks[1:])]
    pairs += [(low, high) for low, high in zip(picks[::3], picks[4::3])]
    pairs += [(value, None) for value in picks[::9]]
    return pairs + [(None, value) for value in picks[4::9]]


def _pending_dml(round_: int) -> list[str]:
    """A few inserts, updates and deletes: the crackers queue them, and a
    count merges nothing."""
    k = 10 * round_
    return [
        f"INSERT INTO r VALUES ({100_000 + k}, {k - 500}, {k / 4 - 7.5}, 0)",
        f"INSERT INTO r VALUES ({100_001 + k}, 5, 5.5, 0)",
        f"UPDATE r SET a = {7 * k - 300}, x = {k / 8} WHERE k BETWEEN {k} AND {k + 2}",
        f"DELETE FROM r WHERE k BETWEEN {k + 5} AND {k + 6}",
    ]


def test_a_converged_column_answers_like_sqlite_and_a_scan():
    columns = _columns(CONVERGED_ROWS)
    schema = Schema([Column(name, "float" if name == "x" else "int") for name in "kaxz"])
    reference = SqliteReference()
    reference.execute("CREATE TABLE r (k integer, a integer, x float, z integer)")
    reference.connection.executemany(
        "INSERT INTO r VALUES (?, ?, ?, ?)", zip(*(columns[name].tolist() for name in "kaxz"))
    )
    db = Database(crack_threshold=CONVERGED_T)
    scan = Database(cracking=False)
    for database in (db, scan):
        database.catalog.create_table(Relation.from_columns("r", schema, columns))
    statements = 0
    for attr, integer in (("a", True), ("x", False)):
        _converge(db, attr, columns[attr])
        column = db.cracked_columns()[("r", attr)]
        assert column._sorted_spans and column.crack_stats.sorts
        assert max(column.index.piece_sizes()) <= CONVERGED_T
        for low, high in _ranges(_landing_values(column, integer)):
            if statements % 16 == 0:
                for sql in _pending_dml(statements // 16):
                    reference.answer(sql).check(db.execute(sql), ("dml",))
                    scan.execute(sql)
                assert column._ins_oids.size and column._del_oids.size
            statements += 1
            for low_op, high_op in ((">=", "<="), (">", "<"), (">=", "<"), (">", "<=")):
                where = " AND ".join(
                    f"{attr} {op} {_literal(value)}"
                    for op, value in ((low_op, low), (high_op, high)) if value is not None
                )
                for head in ("SELECT count(*)", "SELECT r.k"):
                    sql = f"{head} FROM r WHERE {where}"
                    answer = reference.answer(sql)
                    answer.check(db.execute(sql), ("converged",))
                    answer.check(scan.execute(sql), ("scan",))
                    db.check_invariants()
