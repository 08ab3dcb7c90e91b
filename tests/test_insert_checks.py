"""A malformed INSERT changes nothing.

Every value of every row is checked against the table's schema before
the first BAT append, so a row of the wrong width or a value of the
wrong type is an ``analysis`` error that leaves every column as it was,
embedded, inside a transaction and served alike.  Two of the statements
are template hits of a well-formed INSERT (``'x'`` and ``5`` key alike),
so the check cannot live in the parser alone.  An UPDATE that would
store a number past the int64 range in an integer column, or past the
float64 range in a float one, is refused by the same rule and code.
"""

from __future__ import annotations

import pytest

from repro.client import Client
from repro.errors import BATAlignmentError, RemoteError, SQLAnalysisError
from repro.server import ServerThread
from repro.server.protocol import error_for_exception
from repro.sql import Database

MALFORMED = [
    "INSERT INTO r VALUES (1)",
    "INSERT INTO r VALUES (1, 'x', 'y')",
    "INSERT INTO r VALUES (1, 2, 3)",
    "INSERT INTO r SELECT * FROM s",
    "INSERT INTO r VALUES (3, 30, 'c'), (4)",
    "INSERT INTO w VALUES (1, 2, 3, 4, 5)",
    # a template hit of loaded()'s INSERT: a fractional float in an
    # integer column is refused, never truncated
    "INSERT INTO r VALUES (3, 2.7, 'c')",
    "INSERT INTO r VALUES (4, -2.5, 'd')",
]

#: UPDATEs whose value an integer column cannot hold.
PAST_INT64 = [
    "UPDATE r SET k = 1e19",
    "UPDATE r SET a = 99999999999999999999",
    "UPDATE r SET k = -1e19 WHERE a > 0",
]

ROWS = [(1, 10, "a"), (2, 20, "b")]


def loaded() -> Database:
    db = Database(cracking=True)
    db.execute("CREATE TABLE r (k integer, a integer, tag varchar)")
    db.execute("CREATE TABLE s (k integer)")
    db.execute("CREATE TABLE w (k integer, a integer, b integer, c integer)")
    for k, a, tag in ROWS:  # the second stores nothing new: a template hit
        db.execute(f"INSERT INTO r VALUES ({k}, {a}, '{tag}')")
    db.execute("INSERT INTO s VALUES (7)")
    db.execute("INSERT INTO w VALUES (1, 2, 3, 4)")
    # Crackers on r, so a torn insert would reach them too.
    assert db.execute("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 99").scalar() == 2
    return db


def lengths(db: Database) -> dict:
    return {
        name: [len(bat) for bat in db.catalog.table(name).bats.values()]
        for name in ("r", "s", "w")
    }


def assert_unchanged(db: Database, before: dict, answer) -> None:
    assert lengths(db) == before
    db.check_invariants()
    assert answer("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 99") == [(2,)]
    assert sorted(answer("SELECT r.k, r.a, r.tag FROM r")) == ROWS
    assert answer("SELECT count(*) FROM w") == [(1,)]


@pytest.mark.parametrize("sql", MALFORMED + PAST_INT64)
def test_embedded(sql):
    db = loaded()
    before = lengths(db)
    with pytest.raises(SQLAnalysisError) as info:
        db.execute(sql)
    assert error_for_exception(info.value)["code"] == "analysis"
    assert_unchanged(db, before, lambda text: db.execute(text).rows)


@pytest.mark.parametrize("sql", MALFORMED)
def test_in_a_transaction(sql):
    db = loaded()
    before = lengths(db)
    with pytest.raises(SQLAnalysisError):
        db.execute_transaction(["INSERT INTO r VALUES (5, 50, 'e')", sql])
    assert_unchanged(db, before, lambda text: db.execute(text).rows)


def test_served():
    db = loaded()
    before = lengths(db)
    thread = ServerThread(db)
    host, port = thread.start()
    try:
        with Client(host, port) as client:
            for sql in MALFORMED + PAST_INT64:
                with pytest.raises(RemoteError) as info:
                    client.execute(sql)
                assert info.value.code == "analysis", sql
                assert_unchanged(db, before, lambda text: client.execute(text).rows)
            client.begin()
            client.execute(MALFORMED[1])
            with pytest.raises(RemoteError) as info:
                client.commit()
            assert info.value.code == "analysis"
            assert_unchanged(db, before, lambda text: client.execute(text).rows)
    finally:
        thread.stop()


def test_a_float_column_refuses_an_int_past_float64():
    db = Database()
    db.execute("CREATE TABLE f (k integer, x float)")
    db.execute("INSERT INTO f VALUES (1, 2.5)")
    for sql in (f"UPDATE f SET x = {10**400}", f"INSERT INTO f VALUES (2, {10**400})"):
        with pytest.raises(SQLAnalysisError, match="column 'x' is float"):
            db.execute(sql)
    assert db.execute("SELECT * FROM f").rows == [(1, 2.5)]
    db.check_invariants()


def _wal(directory) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.glob("wal-*"))}


def test_an_integer_column_stores_only_integral_floats(tmp_path):
    """INSERT … VALUES, INSERT … SELECT and UPDATE share one rule: an
    integral float is stored as its int, any other float is refused and
    changes neither the table nor the WAL."""
    store = tmp_path / "store"
    db = Database(persist_dir=store)
    db.execute("CREATE TABLE t (k integer, a integer)")
    db.execute("CREATE TABLE f (k integer, a float)")
    db.execute("INSERT INTO t VALUES (1, 2)")
    db.execute("INSERT INTO t VALUES (2, 3.0)")  # a template hit
    db.execute("INSERT INTO f VALUES (7, 2.5)")
    assert db.stats()["plan_cache"]["dml_template_hits"] >= 1
    stored = db.execute("SELECT t.k, t.a FROM t").rows
    assert stored == [(1, 2), (2, 3)] and type(stored[1][1]) is int
    wal = _wal(store)
    refused = [
        "INSERT INTO t VALUES (1, 2.7)",
        "INSERT INTO t VALUES (4, -2.5)",
        "INSERT INTO t SELECT * FROM f",
        "UPDATE t SET a = 3.9 WHERE k = 1",
    ]
    for sql in refused:
        with pytest.raises(SQLAnalysisError, match="column 'a' is integer; got"):
            db.execute(sql)
        assert db.execute("SELECT t.k, t.a FROM t").rows == stored, sql
        assert _wal(store) == wal, sql
    db.execute("UPDATE f SET a = 4.0 WHERE k = 7")
    db.execute("INSERT INTO t SELECT * FROM f")
    db.execute("UPDATE t SET a = 5.0 WHERE k = 1")
    expected = [(1, 5), (2, 3), (7, 4)]
    assert sorted(db.execute("SELECT t.k, t.a FROM t").rows) == expected
    db.check_invariants()
    db.close()
    reopened = Database(persist_dir=store)
    assert sorted(reopened.execute("SELECT t.k, t.a FROM t").rows) == expected
    reopened.close()


def test_check_invariants_catches_a_torn_relation():
    db = loaded()
    db.catalog.table("r").bats["k"].append_many([9])
    with pytest.raises(BATAlignmentError, match="unequal length"):
        db.check_invariants()
