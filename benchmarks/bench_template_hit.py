"""What a statement costs by plan-cache level, on a converged column.

``r(k, a, tag)`` holds 200k rows: ``k`` ascending, ``a`` uniform,
``tag`` one of 16 strings, and a warm-up has cracked ``a`` to pieces of
at most the cut-off and sorted them, so a range answer is two binary
searches.  Five statement kinds — a count, a projection, and the three
DML kinds of the ledger's ``mixed_dml`` (a 50-key UPDATE, a 10-key
DELETE, a 10-row INSERT of integers and strings) — run with literals no
earlier statement had, at three levels:

* ``template`` — a template hit: no lexer, parser or resolve step; the
  literals are folded into the resolution cached with the template;
* ``exact`` — SELECTs only (DML never enters the exact level): a
  repeat of a statement that already ran, its analysis cached;
* ``uncached`` — ``Database(plan_cache=False)``: lexed, parsed and
  analysed every time.

A last row, ``count floor``, times the bare
:meth:`~repro.core.cracked_column.CrackedColumn.count_range` call for
the bounds of the ``count`` row's statements at each level: what a
count costs in the cracker, so the row above it less this one is the
overhead of everything else.

Beside each p50 the table prints that p50 divided by the same run's
``count floor`` p50 at the level, a ratio that holds across runs on a
machine whose speed moves between them, and the Python opcodes the
statement executes (``sys.settrace``), which do not move at all.

Time the cases with pytest-benchmark, or print the table::

    PYTHONPATH=src python -m pytest benchmarks/bench_template_hit.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_template_hit.py
"""

from __future__ import annotations

import functools
import itertools
import sys
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
    "insert": lambda x: "INSERT INTO r VALUES " + ", ".join(
        f"({ROWS + x + i}, {(x * 7 + i * 4099) % ROWS}, 'tag{(x + i) % 16:02d}')"
        for i in range(10)
    ),
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
    tags = np.array([f"tag{i:02d}" for i in range(16)], dtype=object)
    db.catalog.create_table(Relation.from_columns(
        "r", Schema([Column("k", "int"), Column("a", "int"), Column("tag", "str")]),
        {"k": np.arange(ROWS), "a": rng.integers(0, ROWS, ROWS),
         "tag": tags[rng.integers(0, 16, ROWS)]},
    ))
    step = DEFAULT_CRACK_THRESHOLD // 2
    for offset in (0, step // 2):  # cut every piece, then sort each one
        for low in range(offset, ROWS, step):
            db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + step - 1}")
    return db


def draws(level: str, seed: int):
    """The endless literal stream behind :func:`statements`: fresh draws,
    or at the exact level a pool of them, cycled."""
    rng = np.random.default_rng(seed)
    fresh = itertools.chain.from_iterable(
        rng.integers(0, ROWS - 5000, 1024).tolist() for _ in itertools.count()
    )
    if level != "exact":
        return fresh
    return itertools.cycle([next(fresh) for _ in range(POOL)])


def statements(kind: str, level: str, db: Database, seed: int):
    """An endless stream of ``kind`` statements at ``level`` on ``db``."""
    stream = (KINDS[kind](x) for x in draws(level, seed))
    if level == "exact":
        pool = list(itertools.islice(stream, POOL))
        for sql in pool * 2:  # analysed, then promoted to the protected segment
            db.execute(sql)
    return stream


def count_floor(level: str, db: Database, seed: int):
    """An endless stream of the bare cracker calls under the ``count``
    statements of ``statements("count", level, db, seed)``."""
    column = db.cracked_columns()[("r", "a")]
    return (
        functools.partial(column.count_range, x, x + 5000, True, True)
        for x in draws(level, seed)
    )


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


@pytest.mark.parametrize("level", ["template", "exact"])
def test_count_floor(benchmark, databases, level):
    db = databases[True]
    floor = count_floor(level, db, seed=len(benchmark.name))
    benchmark.pedantic(lambda: next(floor)(), rounds=400, iterations=1)
    # Untimed: the bare call answers what the statement does.
    for x in itertools.islice(draws(level, seed=len(benchmark.name)), 8):
        bare = db.cracked_columns()[("r", "a")].count_range(x, x + 5000, True, True)
        assert bare == db.execute(KINDS["count"](x)).scalar()


def p50_us(calls, count: int) -> float:
    """The median µs of the next ``count`` of the zero-argument ``calls``."""
    times = []
    for call in itertools.islice(calls, count):
        started = time.perf_counter_ns()
        call()
        times.append(time.perf_counter_ns() - started)
    return float(np.median(times)) / 1e3


def opcodes(calls, count: int) -> float:
    """Python opcodes (``sys.settrace`` opcode events) per call, over the
    next ``count`` of the zero-argument ``calls``: a measure of the work
    that does not move with the machine's speed."""
    batch = list(itertools.islice(calls, count))
    executed = 0

    def trace(frame, event, arg):
        nonlocal executed
        frame.f_trace_opcodes = True
        executed += event == "opcode"
        return trace

    sys.settrace(trace)
    try:
        for call in batch:
            call()
    finally:
        sys.settrace(None)
    return executed / count


def main(count: int = 2000) -> None:
    """Print, per statement kind and level and for the count's floor: the
    p50 µs, that p50 divided by the same run's floor p50 at that level
    (a ratio within one run, so runs on a noisy machine compare), and
    Python opcodes per statement."""
    databases = {True: converged(True), False: converged(False)}
    levels = ("template", "exact", "uncached")

    def cell(calls) -> tuple[float, float]:
        return p50_us(calls, count), opcodes(calls, count // 10)

    floor = {
        level: cell(count_floor(level, databases[level != "uncached"], seed=1))
        for level in levels
    }
    rows = []
    for kind in KINDS:
        cells = []
        for level in levels:
            if (kind, level) not in CASES:
                cells.append(None)
                continue
            db = databases[level != "uncached"]
            stream = statements(kind, level, db, seed=1)
            db.execute(next(stream))
            cells.append(cell(functools.partial(db.execute, sql) for sql in stream))
        rows.append((kind, cells))
    rows.append(("count floor", [floor[level] for level in levels]))
    print(f"per statement, {ROWS} rows, converged ({count} statements each): "
          "p50 us, / the level's count floor p50, Python opcodes")
    print(f"{'kind':<12}" + "".join(f"{level:>24}" for level in levels))
    for kind, cells in rows:
        print(f"{kind:<12}" + "".join(
            f"{'-':>24}" if cell is None else
            f"{cell[0]:>10.1f}{cell[0] / floor[level][0]:>7.2f}x{cell[1]:>6.0f}"
            for level, cell in zip(levels, cells)
        ))


if __name__ == "__main__":
    main()
