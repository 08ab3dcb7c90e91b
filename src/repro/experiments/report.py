"""One-command reproduction: run every harness, write a results bundle.

``python -m repro.experiments.report --quick --out results_quick`` runs
all figure harnesses and writes, per experiment, the text table and a CSV,
plus a consolidated ``REPORT.md`` with the headline claims checked.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments import fig1, fig2, fig3, fig8, fig9, fig10, fig11, hiking, sec51
from repro.experiments.common import ExperimentResult


def _claim(text: str, holds: bool) -> str:
    return f"- {'✅' if holds else '❌'} {text}"


def run_all(quick: bool = True, seed: int = 0) -> dict[str, ExperimentResult]:
    """Run every experiment; quick mode shrinks where shape permits.

    Figures 10 and 11 always run at the paper's regime (1M rows, 128
    steps): their crossover claims are scale-dependent — below ~1M rows
    fixed per-query overheads hide cracking's advantage, which would make
    the report flag a failure that is an artefact of the reduction.
    """
    rows = 100_000 if quick else 1_000_000
    steps = 48 if quick else 128
    sequence_rows = 1_000_000
    sequence_steps = 128
    results: dict[str, ExperimentResult] = {}
    panels = fig1.run(
        n_rows=min(rows, 100_000) if quick else rows,
        selectivities=(1, 10, 50, 100) if quick else fig1.DEFAULT_SELECTIVITIES,
        seed=seed,
    )
    for delivery, panel in panels.items():
        results[f"fig1_{delivery}"] = panel
    results["fig2"] = fig2.run(n_granules=rows, seed=seed)
    results["fig3"] = fig3.run(n_granules=rows, seed=seed)
    results["fig8"] = fig8.run()
    results["fig9"] = fig9.run(
        n_rows=150 if quick else fig9.DEFAULT_ROWS,
        lengths=(2, 4, 8, 16, 32) if quick else fig9.DEFAULT_LENGTHS,
        timeout_s=20.0,
        seed=seed,
    )
    results["fig10"] = fig10.run(n_rows=sequence_rows, steps=sequence_steps, seed=seed)
    results["fig11"] = fig11.run(n_rows=sequence_rows, steps=sequence_steps, seed=seed)
    results["sec51"] = sec51.run(n_rows=20_000 if quick else 100_000, seed=seed)
    results["hiking"] = hiking.run(n_rows=sequence_rows, steps=64, seed=seed)
    return results


def headline_claims(results: dict[str, ExperimentResult]) -> list[str]:
    """Check the per-figure headline claims against the collected series."""
    lines = []
    count_panel = results["fig1_count"]
    row = count_panel.series_by_label("rowstore").y
    column = count_panel.series_by_label("columnstore").y
    lines.append(_claim(
        "Fig 1: column engine faster than row engine on counts",
        all(c < r for c, r in zip(column, row)),
    ))
    fig2_series = results["fig2"].series
    lines.append(_claim(
        "Fig 2: first crack rewrites ~the whole database",
        all(abs(s.y[0] - 1.0) < 0.05 for s in fig2_series),
    ))
    breakevens = results["fig3"].notes.get("breakeven_step", {})
    selective = [v for k, v in breakevens.items() if k in ("1 %", "5 %", "10 %")]
    lines.append(_claim(
        "Fig 3: cracking breaks even within a handful of selective queries",
        all(v is not None and v <= 12 for v in selective),
    ))
    fig8_result = results["fig8"]
    target = fig8_result.series_by_label("Target selectivity").y[-1]
    lines.append(_claim(
        "Fig 8: all contraction curves end at the target selectivity",
        all(abs(s.y[-1] - target) < 1e-9 for s in fig8_result.series),
    ))
    lines.append(_claim(
        "Fig 9: row-store optimizer falls back on long chains",
        bool(results["fig9"].notes.get("rowstore_fallback_lengths")),
    ))
    # Figures 10/11 are judged on the deterministic cost series (tuples
    # read + moved), as tests/test_experiments.py does: cumulative
    # wall-clock totals of two engine passes sit inside CPU noise.
    touched = results["fig10"].notes["tuples_touched"]
    lines.append(_claim(
        "Fig 10: cracking beats scans cumulatively",
        all(
            touched[label] < touched[f"no{label}"]
            for label in touched
            if label.startswith("crack")
        ),
    ))
    touched = results["fig11"].notes["tuples_touched"]
    lines.append(_claim(
        "Fig 11: cracking beats repeated scans on strolls",
        touched["crack"] < touched["nocrack"],
    ))
    lines.append(_claim(
        "§5.1: SQL-level cracking costs an order of magnitude over the query",
        results["sec51"].notes.get("crack_over_print_factor", 0) > 5,
    ))
    return lines


def write_bundle(results: dict[str, ExperimentResult], output_dir: str) -> Path:
    """Write tables, CSVs and REPORT.md; returns the report path."""
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        (directory / f"{name}.txt").write_text(result.format_table() + "\n")
        (directory / f"{name}.csv").write_text(result.to_csv())
    report = [
        "# Reproduction report — Cracking the Database Store (CIDR 2005)",
        "",
        "## Headline claims",
        "",
        *headline_claims(results),
        "",
        "## Artefacts",
        "",
    ]
    for name in sorted(results):
        report.append(f"- `{name}.txt` / `{name}.csv`")
    report_path = directory / "REPORT.md"
    report_path.write_text("\n".join(report) + "\n")
    return report_path


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Run all experiments, write a bundle")
    parser.add_argument("--quick", action="store_true", help="reduced sizes")
    parser.add_argument("--out", default="results_bundle", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    results = run_all(quick=args.quick, seed=args.seed)
    report_path = write_bundle(results, args.out)
    print(f"wrote {report_path} plus {2 * len(results)} artefact files")
    print(report_path.read_text())


if __name__ == "__main__":
    main()
