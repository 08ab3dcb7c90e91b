"""Data-mining drill-down: the homerun profile on a warehouse fact table.

The paper motivates cracking with data warehouses, "characterized by
lengthy query sequences zooming into a portion of statistical interest"
(§4, citing the Drill Down Benchmark).  This example builds a sales-fact
table, runs a 64-step homerun drill-down with and without cracking, and
prints the per-step and cumulative response times — a miniature Figure 10
over a realistic scenario.

Run:  python examples/datamining_drilldown.py
"""

import numpy as np

from repro.benchmark import MQS, homerun_sequence, run_sequence
from repro.engines import DatabaseEngine
from repro.storage.table import Column, Relation, Schema

N_ROWS = 500_000
STEPS = 64
TARGET_SELECTIVITY = 0.02  # the analyst is hunting a 2% revenue anomaly


def build_fact_table(seed: int = 7) -> Relation:
    """A sales fact table: (order_id, revenue_cents, store, quarter)."""
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("order_id", "int"),
            Column("revenue_cents", "int"),
            Column("store", "int"),
            Column("quarter", "int"),
        ]
    )
    return Relation.from_columns(
        "sales",
        schema,
        {
            "order_id": np.arange(1, N_ROWS + 1),
            # Revenue is the drill-down dimension: unique cent amounts so
            # range predicates behave like the tapestry permutation.
            "revenue_cents": rng.permutation(N_ROWS) + 1,
            "store": rng.integers(1, 200, N_ROWS),
            "quarter": rng.integers(1, 9, N_ROWS),
        },
    )


def main() -> None:
    mqs = MQS(alpha=4, n=N_ROWS, k=STEPS, sigma=TARGET_SELECTIVITY, rho="exponential")
    queries = homerun_sequence(mqs, attr="revenue_cents", seed=11)
    print(f"Drill-down: {STEPS} refinement steps toward a "
          f"{TARGET_SELECTIVITY:.0%} revenue band of {N_ROWS} orders\n")

    results = {}
    for label, cracking in (("full scans", False), ("cracking", True)):
        engine = DatabaseEngine(cracking=cracking)
        engine.load(build_fact_table())
        results[label] = run_sequence(
            engine, "sales", queries, delivery="count", profile="homerun"
        )

    scan = results["full scans"]
    crack = results["cracking"]
    print(f"{'step':>4}  {'rows':>8}  {'scan ms':>9}  {'crack ms':>9}")
    milestones = [i for i in (0, 1, 2, 4, 8, 16, 32, STEPS - 1) if i < STEPS]
    for i in dict.fromkeys(milestones):
        print(
            f"{i + 1:>4}  {scan.steps[i].rows:>8}  "
            f"{scan.steps[i].elapsed_s * 1000:>9.3f}  "
            f"{crack.steps[i].elapsed_s * 1000:>9.3f}"
        )
    print(
        f"\ncumulative: full scans {scan.total_s * 1000:.1f} ms, "
        f"cracking {crack.total_s * 1000:.1f} ms "
        f"({scan.total_s / crack.total_s:.1f}x faster with cracking)"
    )
    print(f"final per-step: scan {scan.steps[-1].elapsed_s * 1000:.3f} ms vs "
          f"crack {crack.steps[-1].elapsed_s * 1000:.3f} ms "
          "(the cracked column answers at indexed-table speed)")


if __name__ == "__main__":
    main()
