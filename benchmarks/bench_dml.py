"""Update-under-burn-in: DML throughput while the cracker self-organises.

§5 of the paper argues cracking must survive updates: the pending areas
absorb writes and the merge-on-query path folds them into the pieces the
next time a range touches them.  This bench measures exactly that
pressure point and records it so write-path regressions are visible PR
over PR:

* **mixed_burn_in** — a fresh column answers random cracking range
  counts while UPDATEs and narrow DELETEs land between them (2 DML per
  3 reads).  Every configuration must produce the same read checksum —
  the benchmark doubles as a coarse differential check — and the wall
  clock captures crack + merge + tombstone cost together.
* **update_burst** — after the burn-in, a solid run of range UPDATEs
  against the now-cracked column: the pure buffered-write rate,
  including the eager resolution of updates against pending inserts.
* **delete_burst** — same, for DELETE: tombstone append plus the
  pending-delete buffering on every registered cracker.

Configurations: ``rowstore`` (cracking off — every read is a scan, DML
is base-table only), ``cracked`` (vector mode, one cracker per
attribute).

``python -m repro bench dml`` (or running this file) performs the full
1M-row sweep and writes ``benchmarks/BENCH_dml.json``;
``pytest benchmarks/bench_dml.py --benchmark-only`` runs a reduced
harness-size comparison.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.benchmark.meta import collect_meta
from repro.sql import Database
from repro.storage.table import Column, Relation, Schema

FULL_ROWS = 1_000_000
BENCH_ROWS = 100_000
MIXED_STATEMENTS = 600
BURST_STATEMENTS = 200
REPEATS = 3
RESULT_PATH = Path(__file__).resolve().parent / "BENCH_dml.json"

CONFIGS = {
    "rowstore": dict(cracking=False, mode="vector"),
    "cracked": dict(cracking=True, mode="vector"),
}


def build_database(n_rows: int, **config) -> Database:
    """A database holding r(k, a) with a permuted over [0, n_rows)."""
    db = Database(**config)
    rng = np.random.default_rng(7)
    relation = Relation.from_columns(
        "r",
        Schema([Column("k", "int"), Column("a", "int")]),
        {"k": np.arange(n_rows, dtype=np.int64), "a": rng.permutation(n_rows)},
    )
    db.catalog.create_table(relation)
    return db


def mixed_stream(n_rows: int, n_statements: int, seed: int = 17) -> list[str]:
    """Reads under write pressure: 3 range counts : 1 update : 1 delete.

    Updates move values inside the live domain so later reads stay
    selective; deletes are narrow (3-value windows) so the table never
    drains.  Deterministic per seed, so every configuration executes the
    identical stream and the read checksums must agree.
    """
    rng = np.random.default_rng(seed)
    statements = []
    for i in range(n_statements):
        low = int(rng.integers(0, n_rows))
        if i % 5 == 3:
            statements.append(
                f"UPDATE r SET a = {int(rng.integers(0, n_rows))} "
                f"WHERE a BETWEEN {low} AND {low + int(rng.integers(1, 40))}"
            )
        elif i % 5 == 4:
            statements.append(
                f"DELETE FROM r WHERE a BETWEEN {low} AND {low + 2}"
            )
        else:
            width = int(rng.integers(1, max(2, n_rows // 4)))
            statements.append(
                f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + width}"
            )
    return statements


def update_burst(n_rows: int, n_statements: int, seed: int = 23) -> list[str]:
    rng = np.random.default_rng(seed)
    return [
        f"UPDATE r SET a = {int(rng.integers(0, n_rows))} "
        f"WHERE a BETWEEN {int(low)} AND {int(low) + 25}"
        for low in rng.integers(0, n_rows, n_statements)
    ]


def delete_burst(n_rows: int, n_statements: int, seed: int = 29) -> list[str]:
    rng = np.random.default_rng(seed)
    return [
        f"DELETE FROM r WHERE a BETWEEN {int(low)} AND {int(low) + 1}"
        for low in rng.integers(0, n_rows, n_statements)
    ]


def run_stream(db: Database, statements) -> int:
    """Execute the stream; the checksum folds reads and affected counts."""
    checksum = 0
    for statement in statements:
        result = db.execute(statement)
        if result.rows:
            checksum += int(result.scalar() or 0)
        else:
            checksum += int(result.affected)
    return checksum


def _timed_stream(n_rows: int, config: dict, statements) -> tuple[float, int]:
    best = None
    checksum = None
    for _ in range(REPEATS):
        db = build_database(n_rows, **config)
        started = time.perf_counter()
        total = run_stream(db, statements)
        elapsed = time.perf_counter() - started
        db.check_invariants()
        best = elapsed if best is None else min(best, elapsed)
        if checksum is None:
            checksum = total
        elif checksum != total:
            raise AssertionError(f"stream checksum diverged for {config}")
    return best, checksum


def main(n_rows: int = FULL_ROWS, result_path: Path = RESULT_PATH) -> dict:
    """Full sweep; writes BENCH_dml.json and returns the report."""
    report = {
        "rows": n_rows,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "recorded_at": time.strftime("%Y-%m-%d %H:%M:%S"),
    }
    print(f"rows={n_rows}  cpus={os.cpu_count()}")

    # Phase 1: mixed read-write burn-in ---------------------------------
    mixed = mixed_stream(n_rows, MIXED_STATEMENTS)
    burn_in = {}
    checksums = {}
    for name, config in CONFIGS.items():
        wall, checksum = _timed_stream(n_rows, config, mixed)
        burn_in[name] = {
            "wall_s": round(wall, 6),
            "statements_per_s": round(MIXED_STATEMENTS / wall, 1),
        }
        checksums[name] = checksum
        print(
            f"mixed_burn_in {name:>8}: {wall * 1000:9.2f} ms "
            f"({burn_in[name]['statements_per_s']:.0f} stmt/s)"
        )
    if len(set(checksums.values())) != 1:
        raise AssertionError(f"configurations diverged: {checksums}")
    report["mixed_burn_in"] = {
        "statements": MIXED_STATEMENTS,
        "checksum": checksums["rowstore"],
        **burn_in,
    }

    # Phase 2/3: pure DML bursts against a burnt-in column --------------
    for phase, maker in (("update_burst", update_burst), ("delete_burst", delete_burst)):
        burst = maker(n_rows, BURST_STATEMENTS)
        results = {}
        for name, config in CONFIGS.items():
            db = build_database(n_rows, **config)
            # burn in: crack the column before timing the writes
            run_stream(db, mixed_stream(n_rows, MIXED_STATEMENTS // 2, seed=3))
            started = time.perf_counter()
            affected = run_stream(db, burst)
            elapsed = time.perf_counter() - started
            db.check_invariants()
            results[name] = {
                "wall_s": round(elapsed, 6),
                "statements_per_s": round(BURST_STATEMENTS / elapsed, 1),
                "rows_affected": affected,
            }
            print(
                f"{phase} {name:>8}: {elapsed * 1000:9.2f} ms "
                f"({results[name]['statements_per_s']:.0f} stmt/s, "
                f"{affected} rows)"
            )
        report[phase] = {"statements": BURST_STATEMENTS, **results}

    report["meta"] = collect_meta()
    result_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {result_path}")
    return report


# ---------------------------------------------------------------------- #
# pytest-benchmark harness (reduced size)
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("config", ["rowstore", "cracked"])
def test_mixed_burn_in(benchmark, config):
    """Reads under write pressure: scan oracle vs cracked storage."""
    statements = mixed_stream(BENCH_ROWS, MIXED_STATEMENTS // 4)

    def setup():
        return (build_database(BENCH_ROWS, **CONFIGS[config]),), {}

    def mixed(db):
        return run_stream(db, statements)

    total = benchmark.pedantic(mixed, setup=setup, rounds=3, iterations=1)
    assert total > 0


def test_update_burst_cracked(benchmark):
    """Pure buffered-update rate against an already-cracked column."""
    burst = update_burst(BENCH_ROWS, BURST_STATEMENTS // 4)
    warm = mixed_stream(BENCH_ROWS, 40, seed=3)

    def setup():
        db = build_database(BENCH_ROWS, **CONFIGS["cracked"])
        run_stream(db, warm)
        return (db,), {}

    def burst_run(db):
        return run_stream(db, burst)

    affected = benchmark.pedantic(burst_run, setup=setup, rounds=3, iterations=1)
    assert affected >= 0


if __name__ == "__main__":
    main()
