"""The perf ledger: four named workloads, embedded and served.

One command runs every workload, checks every answer, prints every
metric by name with its unit and writes one result JSON::

    python benchmarks/ledger/run.py --seed 11            # ~3 min
    python benchmarks/ledger/run.py --seed 11 --quick    # smoke, < 10 s

With ``--workload`` it runs one pass of one workload — end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1`` — and
prints, as the last line, one JSON object ``{correct, attempted,
failed, metrics}``; that is the form ``BENCHMARK.json``'s ``command``
is driven in.  ``--seconds`` sizes the fixed statement counts (see
``workloads.py``); it does not cut a run short.

Exit status is non-zero when any operation failed or answered wrongly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"error: program source not found at {SRC}; run from a full checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from repro.benchmark.meta import collect_meta  # noqa: E402

OUT = HERE / "out"
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"


def run_pass(guard, name: str, seed: int, seconds: float, trace: bool,
             quick: bool) -> dict:
    """One pass of one workload over a scratch directory of its own."""
    workload = workloads.generate(name, seed, seconds, quick)
    work = HERE / "_work" / f"{os.getpid()}-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            report = layers.measure_layers(
                guard, workload, work, OUT / f"trace_{name}.json"
            )
        else:
            report = harness.measure_end_to_end(guard, workload, work, quick)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["statements"] = {
        "embedded": workload.n_embedded,
        "served": workload.n_served,
        "pipelined": workload.n_pipelined,
    }
    report["rows"] = workload.rows
    return report


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        spread = (
            f"   [q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}]"
            if "q1" in metric else ""
        )
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']:<7}{spread}")


def last_line(report: dict) -> str:
    """The driver's result object: value and unit only, all digits."""
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in report["metrics"].items()
        },
    })


def check_finite(report: dict) -> None:
    for name, metric in report["metrics"].items():
        if not math.isfinite(metric["value"]):
            raise SystemExit(f"error: metric {name} is not finite")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=workloads.BASE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="20k rows, 1 repetition: a smoke run")
    parser.add_argument("--out", type=Path, default=OUT / "ledger.json",
                        help="result file of a full (all-workload) run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    guard = harness.Guard()
    for warning in guard.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.workload:
        report = run_pass(
            guard, args.workload, args.seed, args.seconds, bool(args.trace),
            args.quick,
        )
        check_finite(report)
        print_metrics(f"{args.workload} (seed {args.seed})", report["metrics"])
        print(last_line(report))
        return 1 if report["failed"] else 0

    ledger = {
        "meta": {
            **collect_meta(),
            "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
            "cpu_affinity": guard.cpu, "guard_warnings": guard.warnings,
            "repetitions": 1 if args.quick else harness.REPETITIONS,
        },
        "workloads": {},
    }
    failed = 0
    started, steal_before = time.perf_counter(), guard.steal_seconds()
    with open(BENCHMARK, encoding="utf-8") as handle:
        whys = {w["name"]: w["why"] for w in json.load(handle)["workloads"]}
    for name in workloads.SPECS:
        end_to_end = run_pass(guard, name, args.seed, args.seconds, False, args.quick)
        per_layer = run_pass(guard, name, args.seed, args.seconds, True, args.quick)
        check_finite(end_to_end)
        check_finite(per_layer)
        attempted = end_to_end["attempted"] + per_layer["attempted"]
        wrong = end_to_end["failed"] + per_layer["failed"]
        failed += wrong
        ledger["workloads"][name] = {
            "why": whys[name],
            "rows": end_to_end["rows"],
            "statements": end_to_end["statements"],
            "attempted": attempted,
            "failed": wrong,
            "fail_share": wrong / attempted,
            "builds_s": end_to_end["builds_s"],
            "speed": end_to_end["speed"],
            "end_to_end": end_to_end["metrics"],
            "per_layer": per_layer["metrics"],
        }
        print(f"== {name}: {whys[name]}")
        print_metrics("  end to end (median of repetitions)", end_to_end["metrics"])
        print(f"  {'fail_share':<32} {wrong / attempted:>14.6g} ratio"
              f"     ({wrong} of {attempted})")
        print_metrics("  per layer (traced pass)", per_layer["metrics"])
    ledger["meta"]["steal_retries"] = guard.retries
    if steal_before is not None:
        ledger["meta"]["steal_share"] = (
            (guard.steal_seconds() - steal_before) / (time.perf_counter() - started)
        )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
