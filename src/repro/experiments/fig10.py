"""Figure 10: the homerun experiment (crack vs nocrack).

Linear-contraction homerun sequences of k ≤ 128 steps zooming into
targets of σ ∈ {5, 45, 75}% on a 1M-row tapestry table, run with and
without cracking support (paper §5.2).

Expected shape: the nocrack curves grow linearly (every query is a full
scan); the crack curves flatten after the first few steps ("after a few
steps it outperforms the traditional scans and ultimately leads to a
total reduction time of a factor 4 ... It provides a response time of a
nearly completely indexed table").
"""

from __future__ import annotations

from repro.benchmark.profiles import MQS, homerun_sequence
from repro.benchmark.runner import run_sequence
from repro.benchmark.tapestry import DBtapestry
from repro.engines import ColumnStoreEngine, CrackingEngine
from repro.experiments.common import ExperimentResult, Series, standard_parser

DEFAULT_ROWS = 1_000_000
DEFAULT_STEPS = 128
DEFAULT_TARGETS = (0.75, 0.45, 0.05)


def run(
    n_rows: int = DEFAULT_ROWS,
    steps: int = DEFAULT_STEPS,
    targets: tuple = DEFAULT_TARGETS,
    seed: int = 0,
) -> ExperimentResult:
    """Produce cumulative-time series: (no)crack × target selectivity."""
    tapestry = DBtapestry(n_rows, arity=2, seed=seed)
    base = tapestry.build_relation("R")
    result = ExperimentResult(
        name="fig10",
        title=f"Figure 10: k-way homeruns (cumulative seconds), N={n_rows}",
        x_label="step",
        y_label="cumulative seconds",
        notes={"rows": n_rows},
    )
    x = list(range(1, steps + 1))
    totals = {}
    touched = {}
    for sigma in targets:
        mqs = MQS(alpha=2, n=n_rows, k=steps, sigma=sigma, rho="linear")
        queries = homerun_sequence(mqs, attr="a", seed=seed)
        for mode, engine_factory in (
            ("nocrack", ColumnStoreEngine),
            ("crack", CrackingEngine),
        ):
            engine = engine_factory()
            engine.load(tapestry.build_relation("R"))
            sequence = run_sequence(engine, "R", queries, delivery="count",
                                    profile="homerun")
            label = f"{mode} {round(sigma * 100)}%"
            result.series.append(Series(label=label, x=x, y=sequence.cumulative_s))
            totals[label] = sequence.total_s
            touched[label] = sequence.total_tuples_touched
    result.notes["totals_s"] = {k: round(v, 4) for k, v in totals.items()}
    result.notes["tuples_touched"] = touched
    return result


def main(argv=None) -> None:
    parser = standard_parser("Figure 10: homerun experiment")
    parser.add_argument("--steps", type=int, default=None)
    args = parser.parse_args(argv)
    n = args.rows or (100_000 if args.quick else DEFAULT_ROWS)
    steps = args.steps or (32 if args.quick else DEFAULT_STEPS)
    result = run(n_rows=n, steps=steps, seed=args.seed)
    print(result.format_table())


if __name__ == "__main__":
    main()
