"""One ``Database()`` shared by 1 or 4 threads, on a converged column.

``r(k, a, b)`` holds 200k rows: ``k`` is the row number and ``a``, ``b``
are permutations of it.  A warm-up of 2 000 ranges of width 500 on each
of ``a`` and ``b`` converges both crackers.  Then 6 000 range selects of
width 2 000 at random lows, alternating ``a`` and ``b``, are split over
N threads that share the one database, for two statements:

* ``select_k`` — ``SELECT k FROM r WHERE a BETWEEN lo AND hi``;
* ``count`` — ``SELECT count(*) FROM r WHERE a BETWEEN lo AND hi``.

Statements on one ``Database`` run one at a time under its statement
lock, and Python runs one thread at a time anyway, so 4 threads cannot
beat one; what they may lose is the hand-off between threads.  The
script prints stmt/s for 1 and 4 threads, medians of 4 repetitions in
alternating order, and the 4-thread/1-thread ratio::

    PYTHONPATH=src python benchmarks/bench_shared_database.py

The pytest case runs the same drive at a small size, untimed, and
checks every answer against numpy::

    PYTHONPATH=src python -m pytest benchmarks/bench_shared_database.py
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np
import pytest

from repro.sql import Database
from repro.storage.table import Column, Relation, Schema

ROWS = 200_000
STATEMENTS = 6_000
WARMUP = 2_000  # ranges per column
WARMUP_WIDTH = 500
WIDTH = 2_000
REPS = 4
THREADS = (1, 4)
DEADLINE_S = 600  # per run: a client still running then is stuck

#: statement -> SQL for one range on one column.
KINDS = {
    "select_k": lambda col, lo, hi: f"SELECT k FROM r WHERE {col} BETWEEN {lo} AND {hi}",
    "count": lambda col, lo, hi: f"SELECT count(*) FROM r WHERE {col} BETWEEN {lo} AND {hi}",
}


def converged(rows: int, warmup: int, seed: int = 0) -> tuple[Database, dict]:
    """The table, both range columns converged; also returns the columns."""
    rng = np.random.default_rng(seed)
    columns = {"k": np.arange(rows), "a": rng.permutation(rows), "b": rng.permutation(rows)}
    db = Database()
    db.catalog.create_table(Relation.from_columns(
        "r", Schema([Column(name, "int") for name in columns]), columns,
    ))
    for col in ("a", "b"):
        for lo in rng.integers(0, rows - WARMUP_WIDTH, warmup).tolist():
            db.execute(KINDS["count"](col, lo, lo + WARMUP_WIDTH - 1))
    return db, columns


def ranges(rows: int, count: int, seed: int) -> list[tuple[str, int, int]]:
    """``count`` ranges ``(column, lo, hi)``, alternating ``a`` and ``b``."""
    lows = np.random.default_rng(seed).integers(0, rows - WIDTH, count).tolist()
    return [("ab"[i % 2], lo, lo + WIDTH - 1) for i, lo in enumerate(lows)]


def drive(db: Database, kind: str, work: list, threads: int, keep: bool = False):
    """Run ``work`` split round-robin over ``threads`` threads sharing
    ``db``; returns (seconds, answers: per range, when ``keep``)."""
    statement = KINDS[kind]
    answers: list = [None] * len(work)
    errors: list[BaseException] = []
    start = threading.Event()

    def client(first: int) -> None:
        start.wait()
        try:
            for index in range(first, len(work), threads):
                result = db.execute(statement(*work[index]))
                if keep:
                    answers[index] = result
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    clients = [
        threading.Thread(target=client, args=(i,), daemon=True) for i in range(threads)
    ]
    for thread in clients:
        thread.start()
    began = time.perf_counter()
    start.set()
    for thread in clients:
        thread.join(timeout=DEADLINE_S)
    elapsed = time.perf_counter() - began
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in clients):
        raise RuntimeError(f"clients still running after {DEADLINE_S} s")
    return elapsed, answers


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("kind", KINDS)
def test_shared_database_answers(kind, threads):
    rows = 5_000
    db, columns = converged(rows, warmup=100)
    work = ranges(rows, 400, seed=threads)
    _, answers = drive(db, kind, work, threads, keep=True)
    for (col, lo, hi), result in zip(work, answers):
        expected = np.flatnonzero((columns[col] >= lo) & (columns[col] <= hi))
        if kind == "count":
            assert result.scalar() == len(expected)
        else:
            assert np.array_equal(np.sort(result.arrays["r.k"]), expected)
    db.check_invariants()


def main() -> None:
    db, _ = converged(ROWS, WARMUP)
    work = ranges(ROWS, STATEMENTS, seed=1)
    print(
        f"one shared Database(): {ROWS} rows, {STATEMENTS} statements per run, "
        f"stmt/s median of {REPS} reps in alternating order"
    )
    print(f"{'statement':<10}{'1 thread':>10}{'4 threads':>11}{'4/1':>7}")
    for kind in KINDS:
        rates: dict[int, list[float]] = {n: [] for n in THREADS}
        for rep in range(REPS):
            for threads in THREADS if rep % 2 == 0 else THREADS[::-1]:
                elapsed, _ = drive(db, kind, work, threads)
                rates[threads].append(STATEMENTS / elapsed)
        one, four = (statistics.median(rates[n]) for n in THREADS)
        print(f"{kind:<10}{one:>10.0f}{four:>11.0f}{four / one:>6.2f}x")


if __name__ == "__main__":
    main()
