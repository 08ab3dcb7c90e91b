"""What a statement costs by plan-cache level, on a converged column.

``r(k, a)`` holds 200k rows: ``k`` ascending, ``a`` uniform, and a
warm-up has cracked ``a`` to pieces of at most the cut-off and sorted
them, so a range answer is two binary searches.  Four statement kinds
run with literals no earlier statement had, at three levels:

* ``template`` — a template hit: no lexer, parser or resolve step; the
  literals are folded into the resolution cached with the template;
* ``exact`` — SELECTs only (DML never enters the exact level): a
  repeat of a statement that already ran, its analysis cached;
* ``uncached`` — ``Database(plan_cache=False)``: lexed, parsed and
  analysed every time.

Time the cases with pytest-benchmark, or print a p50 table::

    PYTHONPATH=src python -m pytest benchmarks/bench_template_hit.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_template_hit.py
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from repro.core.cracked_column import DEFAULT_CRACK_THRESHOLD
from repro.sql import Database
from repro.storage.table import Column, Relation, Schema

ROWS = 200_000
POOL = 64  # distinct statements cycled by the exact level

#: kind -> statement text for one draw ``x`` of a fresh literal.
KINDS = {
    "count": lambda x: f"SELECT count(*) FROM r WHERE a BETWEEN {x} AND {x + 5000}",
    "projection": lambda x: f"SELECT r.k FROM r WHERE a BETWEEN {x} AND {x + 20}",
    "update": lambda x: f"UPDATE r SET a = {x} WHERE k BETWEEN {x} AND {x + 49}",
    "delete": lambda x: f"DELETE FROM r WHERE k BETWEEN {x} AND {x + 9}",
}
CASES = [
    (kind, level)
    for kind in KINDS
    for level in ("template", "exact", "uncached")
    if level != "exact" or kind in ("count", "projection")
]


def converged(plan_cache: bool) -> Database:
    """The 200k-row table, its ``a`` column cracked and sorted piecewise."""
    rng = np.random.default_rng(0)
    db = Database(plan_cache=plan_cache)
    db.catalog.create_table(Relation.from_columns(
        "r", Schema([Column("k", "int"), Column("a", "int")]),
        {"k": np.arange(ROWS), "a": rng.integers(0, ROWS, ROWS)},
    ))
    step = DEFAULT_CRACK_THRESHOLD // 2
    for offset in (0, step // 2):  # cut every piece, then sort each one
        for low in range(offset, ROWS, step):
            db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + step - 1}")
    return db


def statements(kind: str, level: str, db: Database, seed: int):
    """An endless stream of ``kind`` statements at ``level`` on ``db``."""
    rng = np.random.default_rng(seed)
    draws = itertools.chain.from_iterable(
        rng.integers(0, ROWS - 5000, 1024).tolist() for _ in itertools.count()
    )
    if level != "exact":
        return (KINDS[kind](x) for x in draws)
    pool = [KINDS[kind](next(draws)) for _ in range(POOL)]
    for sql in pool * 2:  # analysed, then promoted to the protected segment
        db.execute(sql)
    return itertools.cycle(pool)


@pytest.fixture(scope="module")
def databases():
    return {True: converged(True), False: converged(False)}


@pytest.mark.parametrize("kind,level", CASES)
def test_statement_by_cache_level(benchmark, databases, kind, level):
    db = databases[level != "uncached"]
    stream = statements(kind, level, db, seed=len(benchmark.name))
    db.execute(next(stream))  # the template, for the template level
    before = db.stats()["plan_cache"]
    benchmark.pedantic(lambda: db.execute(next(stream)), rounds=400, iterations=1)
    after = db.stats()["plan_cache"]
    if level == "exact":
        assert after["hits"] > before["hits"]
    elif level == "template":
        assert after["template_hits"] + after["dml_template_hits"] > (
            before["template_hits"] + before["dml_template_hits"]
        )
    db.check_invariants()


def main(count: int = 2000) -> None:
    """Print p50 µs per statement kind and level."""
    databases = {True: converged(True), False: converged(False)}
    print(f"p50 us per statement, {ROWS} rows, converged ({count} statements each)")
    print(f"{'kind':<12}" + "".join(f"{level:>10}" for level in ("template", "exact", "uncached")))
    for kind in KINDS:
        cells = []
        for level in ("template", "exact", "uncached"):
            if (kind, level) not in CASES:
                cells.append(f"{'-':>10}")
                continue
            db = databases[level != "uncached"]
            stream = statements(kind, level, db, seed=1)
            db.execute(next(stream))
            times = []
            for _ in range(count):
                sql = next(stream)
                started = time.perf_counter_ns()
                db.execute(sql)
                times.append(time.perf_counter_ns() - started)
            cells.append(f"{np.median(times) / 1e3:>10.1f}")
        print(f"{kind:<12}" + "".join(cells))


if __name__ == "__main__":
    main()
