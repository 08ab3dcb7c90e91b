"""Figure 1: response time of basic operations vs selectivity.

The paper fires ``INSERT INTO newR SELECT * FROM R WHERE R.A >= low AND
R.A <= high`` range queries of varying selectivity at a 1M-row tapestry
table and measures three delivery modes: (a) materialisation into a
temporary table, (b) sending the output to the front-end, (c) counting.

Expected shape (paper, Figure 1): materialise ≫ print ≫ count; the
column engine (MonetDB analogue) is fastest on all modes; materialisation
grows linearly with the answer size.

The column engine is the shipped ``Database``, without
("columnstore") and with ("vectorized") cracking; the row store is the
tuple-at-a-time n-ary engine.
"""

from __future__ import annotations

from repro.benchmark.tapestry import DBtapestry
from repro.engines import DatabaseEngine, RowStoreEngine
from repro.engines.base import DELIVERIES
from repro.experiments.common import ExperimentResult, Series, standard_parser

DEFAULT_ROWS = 1_000_000
DEFAULT_SELECTIVITIES = (1, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


def run(
    n_rows: int = DEFAULT_ROWS,
    selectivities: tuple = DEFAULT_SELECTIVITIES,
    seed: int = 0,
) -> dict[str, ExperimentResult]:
    """Run all three panels; returns {'materialise'|'print'|'count': result}."""
    tapestry = DBtapestry(n_rows, arity=2, seed=seed)
    engines = {
        "rowstore": RowStoreEngine(),
        "columnstore": DatabaseEngine(cracking=False),
        "vectorized": DatabaseEngine(cracking=True),
    }
    for engine in engines.values():
        engine.load(tapestry.build_relation("R"))
        # Warm-up: one throwaway query per delivery mode so first-call
        # effects (allocator, ufunc setup) don't pollute the 1% point.
        for delivery in DELIVERIES:
            engine.range_query("R", "a", 1, 16, delivery=delivery)
    # The three deliveries of one point run back to back, so a slower
    # stretch of the machine lands on all of them rather than on one
    # panel and reorders the modes.
    times = {(delivery, name): [] for delivery in DELIVERIES for name in engines}
    for name, engine in engines.items():
        for selectivity in selectivities:
            width = max(1, round(selectivity / 100 * n_rows))
            for delivery in DELIVERIES:
                outcome = engine.range_query(
                    "R", "a", 1, width, delivery=delivery,
                )
                times[delivery, name].append(outcome.elapsed_s)
    panels: dict[str, ExperimentResult] = {}
    for delivery in DELIVERIES:
        result = ExperimentResult(
            name=f"fig1_{delivery}",
            title=f"Figure 1 ({delivery}): response time vs selectivity, N={n_rows}",
            x_label="selectivity_%",
            y_label="seconds",
            notes={"rows": n_rows},
        )
        for name in engines:
            result.series.append(
                Series(label=name, x=list(selectivities), y=times[delivery, name])
            )
        panels[delivery] = result
    return panels


def main(argv=None) -> None:
    parser = standard_parser("Figure 1: basic operation costs")
    args = parser.parse_args(argv)
    n_rows = args.rows or (100_000 if args.quick else DEFAULT_ROWS)
    sels = (1, 10, 50, 100) if args.quick else DEFAULT_SELECTIVITIES
    panels = run(n_rows=n_rows, selectivities=sels, seed=args.seed)
    for panel in panels.values():
        print(panel.format_table())
        print()


if __name__ == "__main__":
    main()
