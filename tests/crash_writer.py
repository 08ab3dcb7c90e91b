"""Subprocess writer for the kill -9 crash-recovery test.

Executes a deterministic workload (DDL + paced INSERT/UPDATE/DELETE
stream with interleaved cracking SELECTs) against a durable database
until the parent test SIGKILLs it mid-WAL.  The workload generator lives here so
the parent can rebuild the exact statement sequence and verify the
recovered database against an oracle replay of the durable prefix.
"""

from __future__ import annotations

import sys
import time


def crash_workload(seed: int, n_statements: int = 20_000) -> list[str]:
    """The deterministic statement stream (identical for a given seed).

    One CREATE, then INSERTs of 1-3 rows with every seventh slot a
    cracking SELECT (alternately a count, which merges no pending
    change, and a row-reading range, which merges the ones it sees),
    every thirteenth a range UPDATE and every seventeenth a narrow
    DELETE.  Only the mutations are WAL-logged, so
    the durable prefix of a crashed run is exactly the first K mutations
    in order — and replaying it must reproduce the updates and
    tombstones, not just the appends.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    statements = ["CREATE TABLE r (k integer, a integer, w float, tag varchar)"]
    next_k = 0
    for i in range(n_statements):
        if i % 7 == 3:
            low = int(rng.integers(0, 1000))
            select = "count(*)" if i % 14 == 3 else "r.k, r.a"
            statements.append(
                f"SELECT {select} FROM r WHERE a BETWEEN {low} AND {low + 80}"
            )
            continue
        if i % 13 == 5:
            low = int(rng.integers(0, 1000))
            statements.append(
                f"UPDATE r SET a = {int(rng.integers(0, 1000))} "
                f"WHERE a BETWEEN {low} AND {low + 4}"
            )
            continue
        if i % 17 == 9:
            low = int(rng.integers(0, 1000))
            statements.append(
                f"DELETE FROM r WHERE a BETWEEN {low} AND {low + 2}"
            )
            continue
        values = ", ".join(
            f"({next_k + j}, {int(rng.integers(0, 1000))}, "
            f"{round(float(rng.uniform(0, 10)), 3)}, "
            f"'t{int(rng.integers(0, 6))}')"
            for j in range(int(rng.integers(1, 4)))
        )
        next_k += 3
        statements.append(f"INSERT INTO r VALUES {values}")
    return statements


def is_mutation(statement: str) -> bool:
    """True for the statements the WAL logs (everything but plain SELECT)."""
    return not statement.lstrip().lower().startswith("select")


def main() -> int:
    """``crash_writer.py DIR SEED [HOLD]``: run the stream into DIR.

    With HOLD, the writer stops after statement HOLD, creates
    ``DIR/held`` and waits there to be killed.
    """
    persist_dir = sys.argv[1]
    seed = int(sys.argv[2])
    hold = int(sys.argv[3]) if len(sys.argv) > 3 else None
    from pathlib import Path

    from repro.sql import Database

    db = Database(
        cracking=True,
        persist_dir=persist_dir,
        wal_fsync_every=1,
        checkpoint_statements=200,
    )
    for i, statement in enumerate(crash_workload(seed)):
        db.execute(statement)
        if i == hold:
            (Path(persist_dir) / "held").touch()
            while True:
                time.sleep(1)
        # Pace the stream after warm-up so the parent reliably lands its
        # SIGKILL mid-WAL instead of racing a workload that already
        # finished.
        if i > 100:
            time.sleep(0.0005)
    db.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
