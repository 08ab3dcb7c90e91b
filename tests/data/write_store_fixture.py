"""Write the persisted-store fixture that ``tests/test_store_fixture.py`` opens.

The committed ``store_47a14e5/`` was written by this script run against
the source tree at commit 47a14e5, with its answers recorded next to it in
``store_47a14e5.json``; rewriting it at a later commit would test nothing.
The store holds a snapshot generation plus a WAL tail, a varchar column,
tombstones (pending in the snapshot and replayed from the WAL) and
cracked columns with several pieces.

Usage (from the root of a checkout at the commit the store should come
from)::

    PYTHONPATH=src python tests/data/write_store_fixture.py OUT_DIR
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from repro.sql import Database

# Answered by the written store on open; the JSON records each answer.
QUERIES = [
    "SELECT count(*) FROM r",
    "SELECT count(*) FROM r WHERE a BETWEEN 10 AND 60",
    "SELECT k, a, tag FROM r WHERE a < 25 ORDER BY k",
    "SELECT tag, count(*), sum(a) FROM r GROUP BY tag ORDER BY tag",
    "SELECT k, b FROM r WHERE b >= 900 ORDER BY k",
    "SELECT s.name, count(*) FROM r, s WHERE r.k = s.k GROUP BY s.name "
    "ORDER BY s.name",
    "SELECT count(*) FROM s WHERE name = 'gamma'",
]

TAGS = ["red", "green", "blue", "amber"]


def write_store(directory: Path) -> dict:
    """Write the store under ``directory``; return ``{sql: rows}``."""
    if directory.exists():
        shutil.rmtree(directory)
    db = Database(cracking=True, persist_dir=directory, crack_threshold=0)
    db.execute("CREATE TABLE r (k INTEGER, a INTEGER, b INTEGER, tag VARCHAR)")
    db.execute("CREATE TABLE s (k INTEGER, name VARCHAR)")
    values = ", ".join(
        f"({k}, {(k * 37) % 100}, {(k * 53) % 1000}, '{TAGS[k % 4]}')"
        for k in range(200)
    )
    db.execute(f"INSERT INTO r VALUES {values}")
    names = ["alpha", "beta", "gamma", "delta"]
    db.execute(
        "INSERT INTO s VALUES "
        + ", ".join(f"({k}, '{names[k % 4]}')" for k in range(0, 200, 3))
    )
    # Crack both numeric columns of r into several pieces.
    for low, high in [(20, 40), (5, 70), (45, 55), (90, 99)]:
        db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {high}")
    db.execute("SELECT count(*) FROM r WHERE b BETWEEN 100 AND 700")
    # Tombstones and pending inserts the snapshot must carry.
    db.execute("DELETE FROM r WHERE a BETWEEN 30 AND 33")
    db.execute("INSERT INTO r VALUES (500, 31, 7, 'violet')")
    db.execute("UPDATE r SET tag = 'teal' WHERE k < 10")
    db.checkpoint()
    # The WAL tail replayed on open, on top of snapshot generation 1.
    db.execute("DELETE FROM r WHERE b > 950")
    db.execute("INSERT INTO r VALUES (501, 12, 999, 'violet'), (502, 58, 3, 'red')")
    db.execute("UPDATE r SET a = 19 WHERE tag = 'amber' AND a < 20")
    db.execute("SELECT count(*) FROM r WHERE a BETWEEN 15 AND 35")
    db.execute("INSERT INTO s VALUES (501, 'gamma')")
    answers = {sql: [list(row) for row in db.execute(sql).rows] for sql in QUERIES}
    db.close()
    return answers


def main() -> int:
    out = Path(sys.argv[1])
    answers = write_store(out)
    (out.parent / f"{out.name}.json").write_text(json.dumps(answers, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
