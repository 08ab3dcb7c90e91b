"""Key-range DML against sqlite: the matcher's binary-searched window.

A numeric BAT knows whether its tail ascends (``BAT._sorted``), and
UPDATE/DELETE look for their rows only inside the storage window of a
predicate on such a column (``BAT.window``), masking the window's
tombstones.  The stream below keeps ``r.k`` ascending, then breaks and
mends the order, and every statement's answer — in memory and through
WAL replay, which runs the same matcher — must be sqlite's.  The flag
is derived from the data: never read from a snapshot, put back by a
rollback, and checked by ``Database.check_invariants``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import ENGINE_CONFIGS, SqliteReference, assert_matches_sqlite
from repro.errors import SQLAnalysisError, StorageError
from repro.persist import snapshot as snapshot_module
from repro.sql import Database

ROWS = 120
TAGS = ("t0", "t1", "t2")
CREATE = "CREATE TABLE r (k integer, a integer, b float, tag varchar)"


def _values(keys, rng_a, rng_b, tags) -> str:
    return ", ".join(
        f"({k}, {a}, {b}, '{tag}')" for k, a, b, tag in zip(keys, rng_a, rng_b, tags)
    )


def load(databases: dict, reference: SqliteReference) -> None:
    """``r`` with ``k`` = 0, 2, 4, ... (gaps leave room for other keys)."""
    rng = np.random.default_rng(0)
    rows = _values(
        range(0, 2 * ROWS, 2),
        rng.integers(0, 50, ROWS).tolist(),
        np.round(rng.uniform(0, 10, ROWS), 2).tolist(),
        [TAGS[i] for i in rng.integers(0, len(TAGS), ROWS)],
    )
    for statement in (CREATE, f"INSERT INTO r VALUES {rows}"):
        assert_matches_sqlite(databases, reference, [statement])


# ---------------------------------------------------------------------- #
# The stream
# ---------------------------------------------------------------------- #

KEY = st.integers(min_value=-5, max_value=2 * ROWS + 5)
#: ``k`` predicates of every shape; a float literal falls between keys.
KEY_PREDICATE = st.one_of(
    st.builds(lambda low, width: f"k BETWEEN {low} AND {low + width}",
              KEY, st.integers(min_value=-3, max_value=12)),
    st.builds(lambda op, key: f"k {op} {key}",
              st.sampled_from([">", ">=", "<", "<=", "="]), KEY),
    st.builds(lambda op, key: f"k {op} {key + 0.5}",
              st.sampled_from([">", ">=", "<", "<="]), KEY),
)
#: What may ride along: a second predicate on the unsorted ``a``, a
#: ``<>`` residual, or nothing.
EXTRA = st.one_of(
    st.just(""),
    st.builds(lambda op, value: f" AND a {op} {value}",
              st.sampled_from(["<", ">=", "="]), st.integers(0, 50)),
    st.builds(lambda tag: f" AND tag <> '{tag}'", st.sampled_from(TAGS)),
    st.builds(lambda value: f" AND a <> {value}", st.integers(0, 50)),
)
UPDATE = st.tuples(st.just("update"), KEY_PREDICATE, EXTRA, st.integers(0, 50))
DELETE = st.tuples(st.just("delete"), KEY_PREDICATE, EXTRA)


def insert(breaks: bool):
    """Keys past the largest keep the order; a smaller key breaks it."""
    return st.tuples(st.just("insert"), st.integers(1, 3), st.just(breaks), KEY)


def set_k(breaks: bool):
    """SET k over a key range: to its low end keeps the order, to a key
    past the largest breaks it."""
    return st.tuples(st.just("set_k"), KEY, st.integers(0, 6), st.just(breaks))


#: Statements that keep ``k`` ascending, so every ``k`` predicate windows.
KEEPING = st.one_of(UPDATE, DELETE, insert(False), set_k(False))
#: Then the order breaks, and the same statements scan the whole table.
BREAKING = st.one_of(insert(True), set_k(True), UPDATE, DELETE)


def render(op: tuple, largest: int) -> tuple[str, int]:
    """The SQL of one op, and the largest key once it has run."""
    verb = op[0]
    if verb == "update":
        _, where, extra, value = op
        return f"UPDATE r SET a = {value} WHERE {where}{extra}", largest
    if verb == "delete":
        _, where, extra = op
        return f"DELETE FROM r WHERE {where}{extra}", largest
    if verb == "insert":
        _, count, breaks, key = op
        keys = [key] * count if breaks else list(range(largest + 1, largest + 1 + count))
        rows = _values(keys, [7] * count, [1.5] * count, ["t1"] * count)
        return f"INSERT INTO r VALUES {rows}", max(largest, *keys)
    _, low, width, breaks = op
    value = largest + 50 if breaks else low
    return (
        f"UPDATE r SET k = {value} WHERE k BETWEEN {low} AND {low + width}",
        max(largest, value),
    )


def open_all(directory: Path) -> dict[str, Database]:
    """Every standard configuration in memory, and again over a store."""
    databases = {name: Database(**config) for name, config in ENGINE_CONFIGS.items()}
    for name, config in ENGINE_CONFIGS.items():
        databases[f"{name}+wal"] = Database(**config, persist_dir=directory / name)
    return databases


def reopen_stores(databases: dict, directory: Path) -> None:
    """Close each store and open it again: recovery replays the WAL."""
    for name, config in ENGINE_CONFIGS.items():
        databases[f"{name}+wal"].close()
        databases[f"{name}+wal"] = Database(**config, persist_dir=directory / name)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    kept=st.lists(KEEPING, min_size=4, max_size=24),
    broken=st.lists(BREAKING, min_size=1, max_size=6),
)
def test_windowed_dml_matches_sqlite(kept, broken):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        databases, reference = open_all(directory), SqliteReference()
        try:
            load(databases, reference)
            largest = 2 * ROWS - 2
            for index, op in enumerate(kept + broken):
                if index == len(kept) // 2:
                    reopen_stores(databases, directory)
                sql, largest = render(op, largest)
                assert_matches_sqlite(
                    databases, reference, [sql, "SELECT * FROM r"], (op,)
                )
            for db in databases.values():
                db.check_invariants()
        finally:
            for db in databases.values():
                db.close()


def test_the_stream_windows_and_breaks_the_order():
    """The stream reaches both paths: a windowed key and a broken one."""
    db = Database()
    db.execute(CREATE)
    db.execute("INSERT INTO r VALUES (0, 1, 1.0, 't0'), (2, 1, 1.0, 't0')")
    key = db.catalog.table("r").column("k")
    assert key.window(1, None, True, True) == (1, 2)
    db.execute(render(("insert", 2, False, 0), 2)[0])
    assert key.window(3, 4, True, True) == (2, 4)
    db.execute(render(("set_k", 0, 2, False), 4)[0])  # k = 0, 0, 3, 4
    assert key.window(0, 0, True, True) == (0, 2)
    db.execute(render(("insert", 1, True, 1), 4)[0])
    assert key.window(0, 0, True, True) is None


# ---------------------------------------------------------------------- #
# The flag is derived, restored and checked
# ---------------------------------------------------------------------- #


def shuffled_statements() -> tuple[str, str]:
    """CREATE and INSERT of ``r`` with its keys shuffled."""
    rng = np.random.default_rng(1)
    keys = rng.permutation(ROWS).tolist()
    rows = _values(keys, rng.integers(0, 50, ROWS).tolist(), [1.0] * ROWS, ["t0"] * ROWS)
    return CREATE, f"INSERT INTO r VALUES {rows}"


def test_a_snapshot_claiming_order_over_a_shuffled_tail_is_not_trusted(tmp_path):
    statements = shuffled_statements()
    with Database(persist_dir=tmp_path / "store") as db:
        for sql in statements:
            db.execute(sql)
        db.checkpoint()
    manifests = list((tmp_path / "store").rglob("manifest.json"))
    assert manifests
    for manifest in manifests:
        data = json.loads(manifest.read_text())
        for table in data["tables"]:
            for bat in table["bats"]:
                bat["sorted"] = True
        snapshot_module._write_manifest(manifest.parent, data)  # sealed again
    reference = SqliteReference()
    for sql in statements:
        reference.execute(sql)
    with Database(persist_dir=tmp_path / "store") as db:
        assert db.catalog.table("r").column("k").window(5, 9, True, True) is None
        db.check_invariants()
        assert_matches_sqlite({"reopened": db}, reference, [
            "UPDATE r SET a = 99 WHERE k BETWEEN 20 AND 40",
            "DELETE FROM r WHERE k > 100 AND a <> 3",
            "SELECT * FROM r",
        ])


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_a_rolled_back_smaller_key_leaves_the_window(name):
    db, reference = Database(**ENGINE_CONFIGS[name]), SqliteReference()
    load({name: db}, reference)
    key = db.catalog.table("r").column("k")
    before = key.window(10, 30, True, True)
    assert before == (5, 16)
    with pytest.raises(SQLAnalysisError):
        db.execute_transaction([
            "INSERT INTO r VALUES (1, 1, 1.0, 't0')",
            "UPDATE r SET k = 3 WHERE k = 100",
            "INSERT INTO r VALUES (1, 1)",  # fails at run: the batch rolls back
        ])
    assert key.window(10, 30, True, True) == before
    assert_matches_sqlite({name: db}, reference, [
        "UPDATE r SET a = 1 WHERE k BETWEEN 10 AND 30",
        "DELETE FROM r WHERE k < 7",
        "SELECT * FROM r",
    ])
    db.check_invariants()


def test_check_invariants_rejects_a_flag_its_tail_does_not_have():
    db = Database()
    for sql in shuffled_statements():
        db.execute(sql)
    db.check_invariants()
    db.catalog.table("r").column("a")._sorted = True
    with pytest.raises(StorageError, match="r.a"):
        db.check_invariants()
