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

import pytest

from oracle import ENGINE_CONFIGS, SqliteReference, load_standard, pushdown_query_suite
from repro.client import Client
from repro.server import ServerThread
from repro.sql import Database, statements
from repro.sql.plan_cache import template_key
from test_typed_bounds import BOUNDS, _literal

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
