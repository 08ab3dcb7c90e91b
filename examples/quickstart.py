"""Quickstart: database cracking in five minutes.

Builds a 1M-row tapestry table, fires a handful of range queries at a
cracked column, and shows the adaptive behaviour the paper promises: each
query physically reorganises the touched pieces, so later queries run at
indexed-table speeds without any DBA-built index.

Run:  python examples/quickstart.py
"""

import threading
import time

import numpy as np

from repro.benchmark import DBtapestry
from repro.core import CrackedColumn
from repro.sql import Database

N_ROWS = 1_000_000


def cracked_column_demo() -> None:
    print("=== 1. The cracked column ===")
    tapestry = DBtapestry(N_ROWS, arity=2, seed=42)
    relation = tapestry.build_relation("R")
    column = CrackedColumn(relation.column("a"))

    queries = [(100_000, 200_000), (150_000, 180_000), (50_000, 400_000),
               (160_000, 170_000), (165_000, 166_000)]
    for low, high in queries:
        started = time.perf_counter()
        result = column.range_select(low, high, high_inclusive=True)
        elapsed = (time.perf_counter() - started) * 1000
        print(
            f"  a in [{low:>7}, {high:>7}] -> {result.count:>6} rows "
            f"in {elapsed:7.2f} ms   (pieces now: {column.piece_count})"
        )
    # Repeat the first query: the cracker index answers it with two
    # binary searches and a zero-copy view.
    started = time.perf_counter()
    result = column.range_select(*queries[0], high_inclusive=True)
    elapsed = (time.perf_counter() - started) * 1000
    print(f"  first query again      -> {result.count:>6} rows in {elapsed:7.2f} ms")
    print(f"  crack work so far: {column.crack_stats.tuples_moved} tuples moved, "
          f"{column.crack_stats.cracks} cracks\n")


def sql_demo() -> None:
    print("=== 2. The SQL front-end (cracking enabled) ===")
    db = Database()
    db.execute("CREATE TABLE r (k integer, a integer)")
    rng = np.random.default_rng(0)
    values = rng.permutation(100_000) + 1
    rows = ", ".join(f"({i + 1}, {int(v)})" for i, v in enumerate(values[:50_000]))
    db.execute(f"INSERT INTO r VALUES {rows}")

    print("  " + db.explain(
        "SELECT count(*) FROM r WHERE a BETWEEN 1000 AND 5000"
    ).replace("\n", "\n  "))
    result = db.execute("SELECT count(*) FROM r WHERE a BETWEEN 1000 AND 5000")
    print(f"  -> count = {result.scalar()}")
    result = db.execute("SELECT count(*) FROM r WHERE a < 1000")
    print(f"  -> count(a < 1000) = {result.scalar()}")
    print(f"  pieces administered for r.a: {db.piece_count('r', 'a')}\n")


def concurrent_demo() -> None:
    print("=== 3. Concurrent sessions on one database ===")
    # concurrent=True makes range answers snapshots, which is what makes
    # sharing one Database across threads safe: every cracked column sits
    # behind one reader-writer lock, and a crack by one session can never
    # shuffle storage under another session's in-flight result.
    db = Database(concurrent=True)
    db.execute("CREATE TABLE r (k integer, a integer)")
    rng = np.random.default_rng(7)
    values = rng.permutation(100_000) + 1
    rows = ", ".join(f"({i + 1}, {int(v)})" for i, v in enumerate(values[:50_000]))
    db.execute(f"INSERT INTO r VALUES {rows}")
    ranges = [(1000, 9000), (20_000, 30_000), (5000, 6000), (40_000, 90_000)]
    counts: dict[tuple[int, int], int] = {}

    def session(low: int, high: int) -> None:
        counts[low, high] = db.execute(
            f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {high}"
        ).scalar()

    threads = [threading.Thread(target=session, args=bounds) for bounds in ranges]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for low, high in ranges:
        print(f"  a in [{low:>6}, {high:>6}] -> {counts[low, high]:>5} rows")
    print(f"  pieces after {len(ranges)} concurrent sessions: "
          f"{db.piece_count('r', 'a')}")
    db.check_invariants()
    print("  invariants clean\n")


def main() -> None:
    cracked_column_demo()
    sql_demo()
    concurrent_demo()
    print("Done.  See examples/datamining_drilldown.py and "
          "examples/sensor_archive.py for the paper's motivating workloads.")


if __name__ == "__main__":
    main()
