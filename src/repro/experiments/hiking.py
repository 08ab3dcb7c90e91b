"""Supplementary experiment: the hiking profile (defined in §4).

The paper defines three user profiles but only plots homerun (Figure 10)
and strolling (Figure 11).  This harness completes the set: a fixed-size
window of σN tuples drifts toward its final location with the answer-set
overlap growing to 100%.  Run, like Figure 10, on the shipped
``Database`` with the cracker off and on (``DatabaseEngine``).

Expected shape: cracking is even stronger here than in the homerun —
consecutive windows overlap, so most of each query's range is already
cracked and only the drift slivers at the window edges are reorganised.
"""

from __future__ import annotations

from repro.benchmark.profiles import MQS, hiking_sequence
from repro.benchmark.runner import run_sequence
from repro.benchmark.tapestry import DBtapestry
from repro.engines import DatabaseEngine
from repro.experiments.common import ExperimentResult, Series, standard_parser

DEFAULT_ROWS = 1_000_000
DEFAULT_STEPS = 64
DEFAULT_SIGMA = 0.05


def run(
    n_rows: int = DEFAULT_ROWS,
    steps: int = DEFAULT_STEPS,
    sigma: float = DEFAULT_SIGMA,
    seed: int = 0,
) -> ExperimentResult:
    """Produce cumulative-time series for crack vs nocrack on a hike."""
    tapestry = DBtapestry(n_rows, arity=2, seed=seed)
    mqs = MQS(alpha=2, n=n_rows, k=steps, sigma=sigma, rho="linear")
    queries = hiking_sequence(mqs, attr="a", seed=seed)
    result = ExperimentResult(
        name="hiking",
        title=(
            f"Hiking profile (supplementary): cumulative seconds, N={n_rows}, "
            f"window={round(sigma * 100)}%"
        ),
        x_label="step",
        y_label="cumulative seconds",
        notes={"rows": n_rows},
    )
    x = list(range(1, steps + 1))
    totals = {}
    for label, cracking in (("nocrack", False), ("crack", True)):
        engine = DatabaseEngine(cracking=cracking)
        engine.load(tapestry.build_relation("R"))
        sequence = run_sequence(engine, "R", queries, delivery="count",
                                profile="hiking")
        result.series.append(Series(label=label, x=x, y=sequence.cumulative_s))
        totals[label] = sequence.total_s
    result.notes["totals_s"] = {k: round(v, 4) for k, v in totals.items()}
    return result


def main(argv=None) -> None:
    parser = standard_parser("Hiking profile experiment (supplementary)")
    parser.add_argument("--steps", type=int, default=None)
    args = parser.parse_args(argv)
    n = args.rows or (100_000 if args.quick else DEFAULT_ROWS)
    steps = args.steps or (24 if args.quick else DEFAULT_STEPS)
    print(run(n_rows=n, steps=steps, seed=args.seed).format_table())


if __name__ == "__main__":
    main()
