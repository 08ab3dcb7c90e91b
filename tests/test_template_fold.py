"""Template hits fold their literals into a cached resolution.

A SELECT, UPDATE or DELETE that differs from an earlier statement only in
its literals is bound to the earlier statement's template and analysed by
folding its literals into the resolution cached with that template; only
DDL (CREATE, SELECT … INTO, a rolled-back batch, recovery) makes a
resolution stale.  Two kinds of test guard that:

* a differential one: families of statements that share one template key
  run mostly as template hits, interleaved with DDL that changes what
  the key resolves to, on every standard configuration, on
  ``Database(plan_cache=False)`` and on a persistent database that is
  closed and reopened, each answer checked against sqlite;
* structural ones: template hits run no resolve step and build no WHERE
  AST, and DML leaves every analysis current.
"""

from __future__ import annotations

import sqlite3
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import ENGINE_CONFIGS, SqliteReference, assert_matches_sqlite
from repro.errors import SQLAnalysisError
from repro.sql import Database, statements
from repro.sql.ast_nodes import Between, Comparison
from repro.sql.parser import parse

ROWS = 60
TAGS = ("t0", "t1", "t2", "t3")

# ---------------------------------------------------------------------- #
# Literals: ints, halves (some integral, written 3.0), negatives, strings
# ---------------------------------------------------------------------- #

ints = st.integers(-3, 23)
numbers = st.one_of(ints, st.integers(-6, 46).map(lambda x: x / 2))
strings = st.sampled_from(TAGS + ("zz", ""))
limits = st.integers(0, 12)


def sql_literal(value) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


def fractional(value) -> bool:
    return isinstance(value, float) and not value.is_integer()


# ---------------------------------------------------------------------- #
# Statement families: one template key each
# ---------------------------------------------------------------------- #

#: name -> (text with {} per literal, literal strategies, columns of t it
#: needs, the t column its SET writes).  Families on ``r`` always resolve;
#: those on ``t`` resolve only while SELECT … INTO has left t those columns.
FAMILIES = {
    # two same-side bounds on one column
    "same_side": (
        "SELECT count(*) FROM r WHERE a > {} AND a >= {}", (numbers, numbers), (), None,
    ),
    # an opposite-side pair, projected
    "opposite": (
        "SELECT r.k, r.w FROM r WHERE a < {} AND a > {}", (numbers, numbers), (), None,
    ),
    # = beside a range on the same column
    "point_range": (
        "SELECT count(*), sum(r.a) FROM r WHERE a = {} AND a <= {}",
        (numbers, numbers), (), None,
    ),
    # a <> residual, a string and a number under one key, and LIMIT
    "residual_limit": (
        "SELECT r.k, r.tag FROM r WHERE tag <> {} AND w >= {} ORDER BY r.k LIMIT {}",
        (strings, numbers, limits), (), None,
    ),
    "group_by": (
        "SELECT r.tag, count(*) FROM r WHERE a BETWEEN {} AND {} AND tag <> {} "
        "GROUP BY r.tag",
        (numbers, numbers, strings), (), None,
    ),
    "update_float": (
        "UPDATE r SET w = {} WHERE a > {} AND a <= {}", (numbers, numbers, numbers),
        (), None,
    ),
    # SET on an int column: a fractional literal is refused on every hit
    "update_int": (
        "UPDATE r SET a = {} WHERE k BETWEEN {} AND {} AND tag <> {}",
        (numbers, ints, ints, strings), (), "r.a",
    ),
    "delete": (
        "DELETE FROM r WHERE k BETWEEN {} AND {} AND a > {}", (ints, ints, numbers),
        (), None,
    ),
    "insert": (
        "INSERT INTO r VALUES ({}, {}, {}, {})",
        (st.integers(0, 80), ints, numbers, strings), (), None,
    ),
    "t_count": (
        "SELECT count(*) FROM t WHERE w > {} AND a <= {}", (numbers, numbers),
        ("w", "a"), None,
    ),
    "t_project": ("SELECT t.k, t.a FROM t WHERE a >= {}", (numbers,), ("k", "a"), None),
    "t_update": ("UPDATE t SET w = {} WHERE k < {}", (numbers, ints), ("w", "k"), "t.w"),
    "t_delete": (
        "DELETE FROM t WHERE k > {} AND w < {}", (ints, numbers), ("k", "w"), None,
    ),
}

#: SELECT … INTO t, each changing what the ``t`` families resolve to:
#: name -> (engine statement, sqlite statements, t's schema after it).
INTO = {
    # narrows t, reading t itself
    "narrow": (
        "SELECT k, a INTO t FROM t",
        "CREATE TABLE t2 AS SELECT k, a FROM t; DROP TABLE t; "
        "ALTER TABLE t2 RENAME TO t",
        {"k": "int", "a": "int"},
    ),
    # all three columns back, in another order
    "reorder": (
        "SELECT w, a, k INTO t FROM r",
        "DROP TABLE t; CREATE TABLE t AS SELECT w, a, k FROM r",
        {"w": "float", "a": "int", "k": "int"},
    ),
    # w becomes an int column, a goes
    "retype": (
        "SELECT k, w INTO t FROM u",
        "DROP TABLE t; CREATE TABLE t AS SELECT k, w FROM u",
        {"k": "int", "w": "int"},
    ),
}

#: A batch that creates x, runs x's templates, then fails: rolled back.
ABORTED = [
    "CREATE TABLE x (w float, k integer)",
    "INSERT INTO x VALUES (1.5, 1)",
    "SELECT count(*) FROM x WHERE w > 0.5",
    "UPDATE x SET w = 2.5 WHERE k > 0",
    "INSERT INTO x VALUES (1)",  # one value for two columns
]

family_steps = st.sampled_from(sorted(FAMILIES)).flatmap(
    lambda name: st.tuples(st.just(name), st.tuples(*FAMILIES[name][1]))
)
steps = st.one_of(
    family_steps,  # most steps: template hits after a family's first
    family_steps,
    family_steps,
    family_steps,
    st.tuples(st.just("into"), st.sampled_from(sorted(INTO))),
    st.tuples(st.just("prepared"), st.tuples(numbers, numbers)),
    st.sampled_from([("aborted", ()), ("after_abort", ()), ("reopen", ())]),
)


class Fleet:
    """Every configuration, sqlite, and t's schema as it stands."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.dbs = {name: Database(**kwargs) for name, kwargs in ENGINE_CONFIGS.items()}
        self.dbs["uncached"] = Database(plan_cache=False)
        self.dbs["durable"] = Database(persist_dir=directory)
        self.reference = SqliteReference()
        self.prepared: dict = {}
        self.t_schema: dict = {}
        rng = np.random.default_rng(7)
        rows = ", ".join(
            f"({k}, {int(rng.integers(0, 21))}, {int(rng.integers(0, 21)) / 2}, "
            f"'{TAGS[int(rng.integers(0, 4))]}')"
            for k in range(ROWS)
        )
        self.run_all([
            "CREATE TABLE r (k integer, a integer, w float, tag varchar)",
            f"INSERT INTO r VALUES {rows}",
            "CREATE TABLE u (k integer, w integer)",
            "INSERT INTO u VALUES " + ", ".join(f"({k}, {k % 7})" for k in range(0, 40, 2)),
        ])
        self.into("reorder", first=True)

    def run_all(self, statements_) -> None:
        assert_matches_sqlite(self.dbs, self.reference, statements_)

    def refused(self, sql: str) -> None:
        """Every configuration refuses ``sql`` with SQLAnalysisError."""
        for name, db in self.dbs.items():
            with pytest.raises(SQLAnalysisError):
                db.execute(sql)

    def into(self, name: str, first: bool = False) -> None:
        sql, reference_sql, schema = INTO[name]
        if name == "narrow" and not {"k", "a"} <= self.t_schema.keys():
            return
        self.t_schema = schema
        if first:
            reference_sql = reference_sql.split("; ", 1)[1]
        for db in self.dbs.values():
            db.execute(sql)
        self.reference.connection.executescript(reference_sql)

    def family(self, name: str, literals: tuple) -> None:
        text, _, needs, set_column = FAMILIES[name]
        sql = text.format(*map(sql_literal, literals))
        if any(column not in self.t_schema for column in needs):
            with pytest.raises(sqlite3.OperationalError):
                self.reference.execute(sql)
            self.refused(sql)
            return
        set_type = {"r.a": "int", "t.w": self.t_schema.get("w")}.get(set_column)
        if set_type == "int" and fractional(literals[0]):
            self.refused(sql)  # sqlite would store it
            return
        self.run_all([sql])

    def prepared_count(self, literals: tuple) -> None:
        text = "SELECT count(*) FROM r WHERE a >= {} AND w < {}"
        answer = self.reference.answer(text.format(*map(sql_literal, literals)))
        for name, db in self.dbs.items():
            if name not in self.prepared:
                self.prepared[name] = db.prepare(text.format(0, 5))
            answer.check(self.prepared[name].execute(literals), (name, "prepared"))

    def aborted(self) -> None:
        """Every configuration rolls :data:`ABORTED` back; sqlite never
        sees it."""
        for db in self.dbs.values():
            with pytest.raises(SQLAnalysisError):
                db.execute_transaction(ABORTED)

    def after_abort(self) -> None:
        """x's templates, after the batch that created x rolled back."""
        for sql in ("SELECT count(*) FROM x WHERE w > 1.5", "UPDATE x SET w = 3.5 WHERE k > 1"):
            with pytest.raises(sqlite3.OperationalError):
                self.reference.execute(sql)
            self.refused(sql)

    def reopen(self) -> None:
        self.dbs["durable"].close()
        self.dbs["durable"] = Database(persist_dir=self.directory)
        self.prepared.pop("durable", None)

    def close(self) -> None:
        for db in self.dbs.values():
            db.close()


@settings(
    max_examples=50, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(steps, min_size=15, max_size=40))
def test_template_hits_answer_like_sqlite_across_ddl(program):
    with tempfile.TemporaryDirectory() as directory:
        fleet = Fleet(directory)
        try:
            for kind, args in program:
                if kind in FAMILIES:
                    fleet.family(kind, args)
                elif kind == "into":
                    fleet.into(args)
                elif kind == "prepared":
                    fleet.prepared_count(args)
                else:
                    getattr(fleet, kind)()
            for name, db in fleet.dbs.items():
                db.check_invariants()
        finally:
            fleet.close()


def test_a_set_refused_on_a_template_hit_after_a_retype():
    """UPDATE t SET w = 3.9 runs while t.w is float, then SELECT … INTO
    makes w an int column: the next hit of the same template refuses."""
    with tempfile.TemporaryDirectory() as directory:
        fleet = Fleet(directory)
        try:
            fleet.family("t_update", (2.5, 10))
            fleet.family("t_update", (3.9, 20))
            fleet.into("retype")
            fleet.refused("UPDATE t SET w = 3.9 WHERE k < 30")
            fleet.family("t_update", (4.0, 30))
            fleet.family("t_count", (1, 2))  # a is gone
            fleet.into("reorder")
            fleet.family("t_update", (3.9, 30))
            fleet.family("t_count", (1, 20))
            template_hits = fleet.dbs["default"].stats()["plan_cache"]["dml_template_hits"]
            assert template_hits >= 4
        finally:
            fleet.close()


# ---------------------------------------------------------------------- #
# Structural guards
# ---------------------------------------------------------------------- #


def warmed(rows: int = 2000) -> tuple[Database, SqliteReference]:
    db, reference = Database(), SqliteReference()
    rng = np.random.default_rng(3)
    values = ", ".join(
        f"({k}, {int(rng.integers(0, 1000))}, {k / 4}, '{TAGS[k % 4]}')"
        for k in range(rows)
    )
    for sql in (
        "CREATE TABLE r (k integer, a integer, w float, tag varchar)",
        f"INSERT INTO r VALUES {values}",
    ):
        db.execute(sql)
        reference.execute(sql)
    return db, reference


HIT_TEMPLATES = (
    "SELECT count(*) FROM r WHERE a BETWEEN {} AND {}",
    "SELECT r.k, r.w FROM r WHERE a > {} AND a <= {} AND tag <> 't1' LIMIT 5",
    "UPDATE r SET w = {} WHERE k BETWEEN {} AND {}",
    "DELETE FROM r WHERE k = {} AND a > {}",
)


def test_template_hits_run_no_resolve_step_and_build_no_where(monkeypatch):
    db, _ = warmed()
    for number, template in enumerate(HIT_TEMPLATES):
        db.execute(template.format(*range(number, number + template.count("{}"))))
    counts = {"resolve": 0, "ast": 0}

    def counting(original, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("resolve_query", "resolve_dml"):
        monkeypatch.setattr(statements, name, counting(getattr(statements, name), "resolve"))
    for node in (Between, Comparison):
        monkeypatch.setattr(node, "__init__", counting(node.__init__, "ast"))
    before = db.stats()["plan_cache"]
    rng = np.random.default_rng(5)
    for index in range(1000):
        template = HIT_TEMPLATES[index % len(HIT_TEMPLATES)]
        low = int(rng.integers(0, 1500))
        literals = (low, low + int(rng.integers(0, 400)), int(rng.integers(0, 1000)))
        db.execute(template.format(*literals[: template.count("{}")]))
    after = db.stats()["plan_cache"]
    assert counts == {"resolve": 0, "ast": 0}
    assert (after["template_hits"] - before["template_hits"]) + (
        after["dml_template_hits"] - before["dml_template_hits"]
    ) == 1000
    assert after["invalidations"] == before["invalidations"]
    # Reading ``where`` builds it, from the statement's own literals.
    sql = "SELECT count(*) FROM r WHERE a BETWEEN 7 AND 9"
    stmt = db.compile(sql)
    assert counts["ast"] == 0
    monkeypatch.undo()
    assert stmt.template is not None and stmt.where == parse(sql).where


def test_dml_leaves_analyses_current():
    db, reference = warmed()
    query = "SELECT count(*) FROM r WHERE a BETWEEN 100 AND 600"
    for _ in range(2):
        db.execute(query)
    invalidations = db.stats()["plan_cache"]["invalidations"]
    for dml in (
        "INSERT INTO r VALUES (5000, 300, 1.5, 't0'), (5001, 900, 2.5, 't1')",
        "UPDATE r SET a = 350 WHERE k BETWEEN 10 AND 400",
        "DELETE FROM r WHERE k BETWEEN 500 AND 900",
        "UPDATE r SET a = 50 WHERE a BETWEEN 200 AND 300",
        "DELETE FROM r WHERE a > 550",
    ):
        assert_matches_sqlite({"default": db}, reference, [dml])
        hits = db.stats()["plan_cache"]["hits"]
        assert_matches_sqlite({"default": db}, reference, [query])
        assert db.stats()["plan_cache"]["hits"] == hits + 1  # still an exact hit
    assert db.stats()["plan_cache"]["invalidations"] == invalidations


def test_threads_share_a_resolution_that_ddl_keeps_replacing():
    """Readers fold into one template's resolution while its table's
    epoch is bumped under them, so they race to resolve it again."""
    db, _ = warmed()
    values = db.catalog.table("r").column("a").tail_array().copy()
    db.execute("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 1")
    errors: list = []

    def reader(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for _ in range(300):
                low = int(rng.integers(0, 1000))
                high = low + int(rng.integers(0, 300))
                got = db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {high}")
                assert got.scalar() == int(((values >= low) & (values <= high)).sum())
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
        for thread in readers:
            thread.start()
        while any(thread.is_alive() for thread in readers):
            db._plan_cache.invalidate_table("r")
            time.sleep(0.0005)
        for thread in readers:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert db.stats()["plan_cache"]["invalidations"] > 2  # the bumps ran
