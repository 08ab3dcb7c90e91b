"""Figure 11: the strolling-converge experiment (nocrack vs sort vs crack).

Random-walk selections whose selectivities converge (via the linear ρ) to
a 5% target, for sequences up to 128 steps, comparing:

* **nocrack** — full scans every query (``DatabaseEngine(cracking=False)``);
* **sort** — sort the column upfront on the first query, then binary
  search (SortedEngine);
* **crack** — adaptive cracking (``DatabaseEngine(cracking=True)``).

Expected shape (paper §5.2): crack beats nocrack from early on; the sort
investment only pays off "when the query sequence exceeds ~100 steps";
cracking is competitive with sort without the upfront cliff.
"""

from __future__ import annotations

from repro.benchmark.profiles import MQS, strolling_sequence
from repro.benchmark.runner import run_sequence
from repro.benchmark.tapestry import DBtapestry
from repro.engines import DatabaseEngine, SortedEngine
from repro.experiments.common import ExperimentResult, Series, standard_parser

DEFAULT_ROWS = 1_000_000
DEFAULT_STEPS = 128
DEFAULT_SIGMA = 0.05


def run(
    n_rows: int = DEFAULT_ROWS,
    steps: int = DEFAULT_STEPS,
    sigma: float = DEFAULT_SIGMA,
    seed: int = 0,
) -> ExperimentResult:
    """Produce cumulative-time series for the three strategies."""
    tapestry = DBtapestry(n_rows, arity=2, seed=seed)
    mqs = MQS(alpha=2, n=n_rows, k=steps, sigma=sigma, rho="linear")
    queries = strolling_sequence(mqs, attr="a", seed=seed, mode="converge")
    result = ExperimentResult(
        name="fig11",
        title=(
            f"Figure 11: k-step strolling converge (cumulative seconds), "
            f"N={n_rows}, target={round(sigma * 100)}%"
        ),
        x_label="step",
        y_label="cumulative seconds",
        notes={"rows": n_rows},
    )
    x = list(range(1, steps + 1))
    totals = {}
    touched = {}
    for label, engine in (
        ("nocrack", DatabaseEngine(cracking=False)),
        ("sort", SortedEngine()),
        ("crack", DatabaseEngine(cracking=True)),
    ):
        engine.load(tapestry.build_relation("R"))
        sequence = run_sequence(engine, "R", queries, delivery="count",
                                profile="strolling")
        result.series.append(Series(label=label, x=x, y=sequence.cumulative_s))
        totals[label] = sequence.total_s
        touched[label] = sequence.total_tuples_touched
    result.notes["totals_s"] = {k: round(v, 4) for k, v in totals.items()}
    result.notes["tuples_touched"] = touched
    return result


def main(argv=None) -> None:
    parser = standard_parser("Figure 11: strolling converge experiment")
    parser.add_argument("--steps", type=int, default=None)
    args = parser.parse_args(argv)
    n = args.rows or (100_000 if args.quick else DEFAULT_ROWS)
    steps = args.steps or (32 if args.quick else DEFAULT_STEPS)
    print(run(n_rows=n, steps=steps, seed=args.seed).format_table())


if __name__ == "__main__":
    main()
