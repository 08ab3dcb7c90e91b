"""Figure 9: the k-way linear join experiment.

"The tuples form random integer pairs, which means we can 'unroll' the
reachability relation using lengthy join sequences.  We tested the
systems with sequences of up to 128 joins."  The paper finds traditional
join optimizers "(too) quickly reach [their] limitations and fall back to
a default solution" — an expensive nested-loop join — while MonetDB
handles long chains efficiently.

Reproduction: the row store's optimizer has a bounded DP budget and falls
back to nested loops past it; the column store (``DatabaseEngine``) does
pairwise vectorised merge joins — a loop of the batch executor's join
kernel, not a planned SQL statement, whose join-order search would itself
grow super-linearly with the chain.  Expected shape: the row-store curve
turns super-linear at the fallback point; the column-store curve stays
near-linear to k = 128.
"""

from __future__ import annotations

from repro.benchmark.tapestry import DBtapestry
from repro.engines import DatabaseEngine, RowStoreEngine
from repro.engines.base import ChainTimeout
from repro.experiments.common import ExperimentResult, Series, standard_parser

DEFAULT_ROWS = 400
DEFAULT_LENGTHS = (2, 4, 8, 16, 24, 32, 48, 64, 96, 128)
DEFAULT_BUDGET = 400
DEFAULT_TIMEOUT_S = 30.0


def run(
    n_rows: int = DEFAULT_ROWS,
    lengths: tuple = DEFAULT_LENGTHS,
    budget: int = DEFAULT_BUDGET,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    seed: int = 0,
) -> ExperimentResult:
    """Produce the Figure 9 series (seconds per chain length)."""
    tapestry = DBtapestry(n_rows, arity=2, seed=seed)
    row_engine = RowStoreEngine(join_budget=budget)
    col_engine = DatabaseEngine(cracking=False)
    row_engine.load(tapestry.build_relation("R"))
    col_engine.load(tapestry.build_relation("R"))
    result = ExperimentResult(
        name="fig9",
        title=f"Figure 9: k-way linear join, N={n_rows} (DNF = did not finish)",
        x_label="join_chain_length",
        y_label="seconds",
        notes={"rows": n_rows, "optimizer_budget": budget},
    )
    row_times: list = []
    fallbacks = []
    timed_out = False
    for length in lengths:
        if timed_out:
            row_times.append(float("inf"))
            continue
        try:
            outcome = row_engine.join_chain("R", length, timeout_s=timeout_s)
            row_times.append(outcome.elapsed_s)
            if outcome.fallback:
                fallbacks.append(length)
        except ChainTimeout:
            row_times.append(float("inf"))
            timed_out = True
    col_times = [
        col_engine.join_chain("R", length).elapsed_s for length in lengths
    ]
    result.series.append(Series(label="rowstore", x=list(lengths), y=row_times))
    result.series.append(Series(label="columnstore", x=list(lengths), y=col_times))
    result.notes["rowstore_fallback_lengths"] = fallbacks
    return result


def main(argv=None) -> None:
    parser = standard_parser("Figure 9: k-way linear join")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S)
    args = parser.parse_args(argv)
    n = args.rows or (200 if args.quick else DEFAULT_ROWS)
    lengths = (2, 4, 8, 16, 32) if args.quick else DEFAULT_LENGTHS
    print(run(n_rows=n, lengths=lengths, timeout_s=args.timeout, seed=args.seed).format_table())


if __name__ == "__main__":
    main()
