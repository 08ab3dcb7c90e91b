"""Sustained-phase hot path: plan cache, numpy cracker index, thresholds.

The paper's promise is that after the cracking burn-in, queries converge
toward index-lookup speed.  This bench measures the whole post-burn-in
query lifecycle through the SQL layer and records it so hot-path
regressions are visible PR over PR:

* **cold_burst** — the first random range queries on a cold 1M-row
  column, crack-kernel bound.  The hot-path machinery (plan cache,
  copy-on-demand snapshots) must not tax this phase: the recorded ratio
  against the seed-emulation path must stay ≤ ~1.2x.
* **convergence** — cumulative latency at power-of-two checkpoints while
  the column self-organises, for the seed path, the cached path and the
  cached + crack-threshold path (whose pieces are sorted, not split,
  once they reach the threshold).
* **sustained** — a fixed set of already-cracked range count queries
  cycled repeatedly: the converged steady state.  Configurations:
  ``seed`` (plan cache off — every statement re-lexed, re-parsed,
  re-analyzed, the seed repo's only mode), ``cached`` (exact-statement
  cache hits), ``prepared`` (``Database.prepare`` handles), ``bounded``
  (cache + piece-size threshold).  The headline number is
  ``speedup_cached = cached_qps / seed_qps`` — the acceptance bar is 5x.

``python -m repro bench hotpath`` (or running this file) performs the
full 1M-row sweep and writes ``benchmarks/BENCH_hotpath.json``;
``pytest benchmarks/bench_hotpath.py --benchmark-only`` runs a reduced
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
COLD_QUERIES = 16
CONVERGE_QUERIES = 1024
SUSTAINED_DISTINCT = 32
SUSTAINED_TOTAL = 4000
REPEATS = 3
THRESHOLD = 1024
RESULT_PATH = Path(__file__).resolve().parent / "BENCH_hotpath.json"


def build_database(n_rows: int, plan_cache: bool, crack_threshold: int = 0) -> Database:
    """A cracking vector-mode database holding r(k, a) with a permuted."""
    db = Database(
        cracking=True,
        mode="vector",
        plan_cache=plan_cache,
        crack_threshold=crack_threshold,
    )
    rng = np.random.default_rng(7)
    relation = Relation.from_columns(
        "r",
        Schema([Column("k", "int"), Column("a", "int")]),
        {"k": np.arange(n_rows, dtype=np.int64), "a": rng.permutation(n_rows)},
    )
    db.catalog.create_table(relation)
    return db


def count_queries(n_rows: int, n_queries: int, seed: int = 17) -> list[str]:
    """Random double-sided count(*) ranges (the fig-style count delivery)."""
    rng = np.random.default_rng(seed)
    lows = rng.integers(0, n_rows, n_queries)
    widths = rng.integers(1, max(2, n_rows // 4), n_queries)
    return [
        f"SELECT count(*) FROM r WHERE a BETWEEN {int(low)} AND {int(low + width)}"
        for low, width in zip(lows, widths)
    ]


def run_statements(db: Database, statements) -> int:
    checksum = 0
    for statement in statements:
        checksum += db.execute(statement).scalar()
    return checksum


CONFIGS = {
    # The seed repo had no statement cache and no threshold: every
    # statement pays lex+parse+analyze.  This emulation still includes
    # this PR's core-layer speedups, so recorded speedups are conservative.
    "seed": dict(plan_cache=False, crack_threshold=0),
    "cached": dict(plan_cache=True, crack_threshold=0),
    "bounded": dict(plan_cache=True, crack_threshold=THRESHOLD),
}


def _measure_cold(n_rows: int, config: dict, statements) -> tuple[float, int]:
    best = None
    checksum = None
    for _ in range(REPEATS):
        db = build_database(n_rows, **config)
        started = time.perf_counter()
        total = run_statements(db, statements)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
        if checksum is None:
            checksum = total
        elif checksum != total:
            raise AssertionError(f"cold-burst checksum diverged for {config}")
    return best, checksum


def _convergence_curve(n_rows: int, config: dict, statements, checkpoints) -> list[float]:
    db = build_database(n_rows, **config)
    samples = []
    started = time.perf_counter()
    for i, statement in enumerate(statements, start=1):
        db.execute(statement)
        if i in checkpoints:
            samples.append(time.perf_counter() - started)
    return samples


def _sustained_qps(db: Database, statements, total: int, runner=None) -> float:
    """Queries/second cycling ``statements`` after convergence."""
    run = runner if runner is not None else db.execute
    for statement in statements:  # converge: every bound cracked/answered
        run(statement)
    count = len(statements)
    best = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        for i in range(total):
            run(statements[i % count])
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return total / best


def main(n_rows: int = FULL_ROWS, result_path: Path = RESULT_PATH) -> dict:
    """Full sweep; writes BENCH_hotpath.json and returns the report."""
    scale = n_rows / FULL_ROWS
    converge_n = max(64, int(CONVERGE_QUERIES * min(1.0, scale * 4)))
    report = {
        "rows": n_rows,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "crack_threshold": THRESHOLD,
        "recorded_at": time.strftime("%Y-%m-%d %H:%M:%S"),
    }
    print(f"rows={n_rows}  cpus={os.cpu_count()}")

    # Phase 1: cold burst -----------------------------------------------
    cold = count_queries(n_rows, COLD_QUERIES, seed=3)
    cold_results = {}
    for name, config in CONFIGS.items():
        wall, checksum = _measure_cold(n_rows, config, cold)
        cold_results[name] = {"wall_s": round(wall, 6), "rows_matched": checksum}
        print(f"cold_burst {name:>8}: {wall * 1000:9.2f} ms")
    ratio = cold_results["cached"]["wall_s"] / cold_results["seed"]["wall_s"]
    cold_results["cached_vs_seed_ratio"] = round(ratio, 4)
    report["cold_burst"] = {"queries": COLD_QUERIES, **cold_results}
    print(f"cold_burst cached/seed ratio: {ratio:.3f}x  (bar: <= 1.2x)")

    # Phase 2: convergence curve ----------------------------------------
    converge = count_queries(n_rows, converge_n, seed=5)
    checkpoints = sorted(
        {1 << i for i in range(converge_n.bit_length()) if (1 << i) <= converge_n}
        | {converge_n}
    )
    curves = {
        name: [round(s, 6) for s in _convergence_curve(n_rows, config, converge, set(checkpoints))]
        for name, config in CONFIGS.items()
    }
    report["convergence"] = {"checkpoints": checkpoints, "cumulative_s": curves}
    for name, curve in curves.items():
        print(f"convergence {name:>8}: {curve[-1] * 1000:9.2f} ms for {converge_n} queries")

    # Phase 3: sustained throughput -------------------------------------
    sustained = count_queries(n_rows, SUSTAINED_DISTINCT, seed=11)
    qps = {}
    for name, config in CONFIGS.items():
        db = build_database(n_rows, **config)
        qps[name] = _sustained_qps(db, sustained, SUSTAINED_TOTAL)
        print(f"sustained {name:>8}: {qps[name]:12.0f} q/s")
    db = build_database(n_rows, plan_cache=True)
    prepared = [db.prepare(statement) for statement in sustained]
    qps["prepared"] = _sustained_qps(
        db,
        prepared,
        SUSTAINED_TOTAL,
        runner=lambda statement: statement.execute(),
    )
    print(f"sustained {'prepared':>8}: {qps['prepared']:12.0f} q/s")
    report["sustained"] = {
        "distinct_queries": SUSTAINED_DISTINCT,
        "total_queries": SUSTAINED_TOTAL,
        "qps": {name: round(value, 1) for name, value in qps.items()},
        "speedup_cached": round(qps["cached"] / qps["seed"], 3),
        "speedup_prepared": round(qps["prepared"] / qps["seed"], 3),
        "speedup_bounded": round(qps["bounded"] / qps["seed"], 3),
    }
    print(
        f"sustained speedup vs seed path: cached {report['sustained']['speedup_cached']}x, "
        f"prepared {report['sustained']['speedup_prepared']}x  (bar: >= 5x)"
    )
    report["meta"] = collect_meta()
    result_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {result_path}")
    return report


# ---------------------------------------------------------------------- #
# pytest-benchmark harness (reduced size)
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def sustained_statements():
    return count_queries(BENCH_ROWS, SUSTAINED_DISTINCT, seed=11)


@pytest.mark.parametrize("config", ["seed", "cached"])
def test_sustained_phase(benchmark, config, sustained_statements):
    """Converged repeated count(*) ranges: cache off vs on."""
    db = build_database(BENCH_ROWS, **CONFIGS[config])
    for statement in sustained_statements:
        db.execute(statement)

    def sustained():
        total = 0
        for statement in sustained_statements:
            total += db.execute(statement).scalar()
        return total

    total = benchmark(sustained)
    assert total > 0


def test_cold_burst_parity(benchmark):
    """Cold crack burst with the full hot-path machinery on."""
    statements = count_queries(BENCH_ROWS, COLD_QUERIES, seed=3)

    def setup():
        return (build_database(BENCH_ROWS, plan_cache=True),), {}

    def cold(db):
        return run_statements(db, statements)

    total = benchmark.pedantic(cold, setup=setup, rounds=3, iterations=1)
    assert total > 0


if __name__ == "__main__":
    main()
