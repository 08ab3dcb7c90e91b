"""Key-range DML costs what it touches, not what the table holds.

``r(k, a)`` has an ascending key ``k`` and a cracked ``a``, as in the
ledger's ``mixed_dml``.  50-key ``UPDATE r SET a = ... WHERE k BETWEEN
...`` statements alternate with 10-key ``DELETE ... WHERE k >= ... AND
k < ...`` ones, and each benchmark times one of the two kinds (the other
runs untimed in between): the matcher binary-searches the key window,
so the median should not grow from 50k to 1M rows.  Every ``DRAIN``
rounds an untimed ``max(a)`` over the whole domain merges what the
statements queued in ``a``'s cracker, as ``mixed_dml``'s reads do.

    PYTHONPATH=src python -m pytest benchmarks/bench_dml_window.py --benchmark-only
"""

import itertools

import numpy as np
import pytest

from repro.sql import Database
from repro.storage.table import Column, Relation, Schema

UPDATE_ROWS = 50
DELETE_ROWS = 10
ROUNDS = 300
DRAIN = 25


@pytest.mark.parametrize("rows", [50_000, 200_000, 1_000_000])
@pytest.mark.parametrize("timed", ["update", "delete"])
def test_key_range_dml(benchmark, timed, rows):
    rng = np.random.default_rng(0)
    db = Database()
    db.catalog.create_table(Relation.from_columns(
        "r", Schema([Column("k", "int"), Column("a", "int")]),
        {"k": np.arange(rows), "a": rng.integers(0, rows, rows)},
    ))
    for low in rng.integers(0, rows, 8):  # crack a, so DML feeds its cracker
        db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + rows // 10}")
    lows = iter(rng.integers(0, rows - UPDATE_ROWS, 2 * ROUNDS + 2).tolist())
    deleted = []
    rounds = itertools.count()

    def update():
        low = next(lows)
        db.execute(f"UPDATE r SET a = {low} WHERE k BETWEEN {low} AND "
                   f"{low + UPDATE_ROWS - 1}")

    def delete():
        low = next(lows)
        deleted.append(db.execute(
            f"DELETE FROM r WHERE k >= {low} AND k < {low + DELETE_ROWS}"
        ).affected)

    step, other = (update, delete) if timed == "update" else (delete, update)

    def setup():
        if next(rounds) % DRAIN == 0:
            db.execute("SELECT max(r.a) FROM r WHERE a >= 0")
        other()

    benchmark.pedantic(step, setup=setup, rounds=ROUNDS, iterations=1)
    assert db.execute("SELECT count(*) FROM r").rows[0][0] == rows - sum(deleted)
    db.check_invariants()
