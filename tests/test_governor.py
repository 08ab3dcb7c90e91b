"""A statement stopped at its deadline leaves no trace.

Each test runs one statement under a deadline that passes at a chosen
boundary (:mod:`repro.governor`): a hook wrapped around the step just
before it moves the deadline into the past once that step returns.  The
statement must raise :class:`StatementTimeoutError`, every table and
cracker must pass ``check_invariants()``, the next statements must
answer what sqlite answers without the stopped one, and a persistent
store reopened afterwards must replay none of it.
"""

import threading

import pytest

from oracle import SqliteReference, assert_matches_sqlite, load_standard
from repro import governor
from repro.errors import StatementTimeoutError
from repro.sql import Database, statements
from repro.volcano import vectorized

SEED = 5

#: Statements whose answers show any trace a stopped statement left.
PROBES = [
    "SELECT count(*), sum(a), min(a), max(a), sum(w) FROM r",
    "SELECT count(*), sum(k), sum(g) FROM s",
    "SELECT k, a, tag FROM r WHERE a BETWEEN 250 AND 320 ORDER BY k",
    "SELECT g, count(*) FROM s WHERE k < 300 GROUP BY g ORDER BY g",
]

#: Statements the standard load logs to the WAL (3 CREATE, 3 INSERT).
LOADED = 6


def _expiring(fn, after: int = 1):
    """``fn``, which passes the calling thread's deadline once it has
    returned ``after`` times."""
    calls = 0

    def wrapper(*args, **kwargs):
        nonlocal calls
        result = fn(*args, **kwargs)
        calls += 1
        if calls == after:
            governor._DEADLINE.set((float("-inf"), 0.0))
        return result

    return wrapper


@pytest.fixture
def store(tmp_path):
    """A persistent cracking database and its sqlite twin, loaded alike."""
    database = Database(crack_threshold=0, persist_dir=tmp_path)
    reference = SqliteReference()
    load_standard(database, seed=SEED)
    load_standard(reference, seed=SEED)
    yield database, reference, tmp_path
    database.close()


def _stop(database, sql, owner=None, name=None, after=1):
    """Run ``sql`` under a deadline that passes once ``owner.name`` has
    returned ``after`` times (at once without a hook); it must stop.
    Returns the traceback entry of the boundary that stopped it."""
    with pytest.MonkeyPatch.context() as patch:
        if owner is not None:
            patch.setattr(owner, name, _expiring(getattr(owner, name), after))
        with governor.deadline(0 if owner is None else 3600):
            with pytest.raises(StatementTimeoutError, match="had no effect") as info:
                if isinstance(sql, list):
                    database.execute_transaction(sql)
                else:
                    database.execute(sql)
    return info.traceback[-2]  # the caller of governor.check()


def _no_trace(database, reference, path) -> Database:
    """Check the stopped statement left nothing behind, in memory and on
    disk; returns the reopened database."""
    database.check_invariants()
    assert_matches_sqlite({"stopped": database}, reference, PROBES)
    assert not database.catalog.has_table("fresh")
    database.close()
    reopened = Database(crack_threshold=0, persist_dir=path)
    stats = reopened.persistence_stats()
    assert stats["recovery_wal_statements_replayed"] == LOADED
    assert_matches_sqlite({"reopened": reopened}, reference, PROBES)
    return reopened


# (id, statement, hook: the owner and name of the step the deadline
# passes after, or None for a deadline passed before the statement,
# and the function whose boundary stops it)
BOUNDARIES = [
    ("run_start_insert", "INSERT INTO r VALUES (9001, 3, 0.5, 't2')", None, "_run"),
    ("run_start_create", "CREATE TABLE fresh (k integer)", None, "_run"),
    ("count_before_its_crack", "SELECT count(*) FROM r WHERE a < 300",
     (statements.SelectStmt, "analyze"), "_cracked_count_plan"),
    ("join_before_build_sort",
     "SELECT count(*), sum(s.g) FROM r, s WHERE r.k = s.k AND r.a < 700",
     (vectorized, "concat_batches"), "batches"),
    ("update_after_matching", "UPDATE r SET a = 7 WHERE a < 300",
     (statements, "_match_positions"), "run"),
    ("delete_after_matching", "DELETE FROM r WHERE k < 200 AND a > 100",
     (statements, "_match_positions"), "run"),
    ("insert_select_after_its_select", "INSERT INTO fresh SELECT * FROM r WHERE a < 300",
     (statements.SelectStmt, "run"), "run"),
    ("insert_select_before_create", "INSERT INTO fresh SELECT * FROM r WHERE a < 300",
     (statements, "_stored_columns"), "run"),
    ("select_into_before_create", "SELECT k, a INTO fresh FROM r WHERE a < 300",
     (vectorized.VecMaterialize, "run"), "_materialise"),
]


@pytest.mark.parametrize(
    "sql, hook, stopped_in", [case[1:] for case in BOUNDARIES],
    ids=[case[0] for case in BOUNDARIES],
)
def test_a_stopped_statement_leaves_no_trace(store, sql, hook, stopped_in):
    database, reference, path = store
    where = _stop(database, sql, *(hook or ()))
    assert where.name == stopped_in
    # A join stops before it sorts its build side.
    assert "order" not in where.frame.f_locals
    reopened = _no_trace(database, reference, path)
    try:
        # Run for real, it applies once: the stop applied none of it.
        if "fresh" not in sql:
            assert_matches_sqlite({"reopened": reopened}, reference, [sql, *PROBES])
        reopened.check_invariants()
    finally:
        reopened.close()


def test_a_select_stops_between_two_cracks(store):
    database, reference, _ = store
    sql = "SELECT count(*) FROM r x, r y WHERE x.k = y.k AND x.a < 300 AND y.a > 600"
    assert _stop(database, sql, database._cracker, "range_select").name == "build_plan"
    # x's range cracked r.a; y's never ran.
    twin = Database(crack_threshold=0)
    load_standard(twin, seed=SEED)
    twin.execute("SELECT count(*) FROM r WHERE a < 300")
    assert database.piece_count("r", "a") == twin.piece_count("r", "a") > 1
    database.check_invariants()
    assert_matches_sqlite({"stopped": database}, reference, [sql, *PROBES])


def test_a_join_stops_before_its_next_probe(store, monkeypatch):
    database, reference, path = store
    monkeypatch.setattr(vectorized, "BATCH_ROWS", 64)  # several probes
    where = _stop(database, "SELECT count(*), sum(r.a) FROM r, s WHERE r.k = s.k",
                  vectorized, "join_probe")
    assert where.name == "batches" and "order" in where.frame.f_locals
    _no_trace(database, reference, path).close()


def test_a_stopped_commit_batch_rolls_back(store):
    database, reference, path = store
    batch = [
        "INSERT INTO r VALUES (9000, 5, 1.5, 't1')",
        "UPDATE r SET a = 5 WHERE k < 100",
        "DELETE FROM s WHERE g = 3",
    ]
    assert _stop(database, batch, database, "_run", after=2).name == "_run"
    reopened = _no_trace(database, reference, path)
    try:
        reopened.execute_transaction(batch)
        for sql in batch:
            reference.execute(sql)
        assert_matches_sqlite({"reopened": reopened}, reference, PROBES)
    finally:
        reopened.close()


def test_the_deadline_binds_to_the_calling_thread():
    database = Database()
    load_standard(database, seed=SEED)
    answers = []
    other = threading.Thread(
        target=lambda: answers.append(database.execute("SELECT count(*) FROM r").scalar())
    )
    with governor.deadline(0):
        other.start()
        other.join()
        with pytest.raises(StatementTimeoutError):
            database.execute("SELECT count(*) FROM r")
    assert answers == [600]
    assert database.execute("SELECT count(*) FROM r").scalar() == 600
