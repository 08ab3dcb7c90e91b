"""Compare two perf-ledger result files, metric by metric.

    python benchmarks/ledger/compare.py A.json B.json

For every workload × end-to-end metric it prints both medians with
their quartiles, the delta ``(B - A) / A`` with its base, the bound
``BENCHMARK.json`` fixes for that metric and a verdict:

``regressed``   B is worse than A by more than the bound
``improved``    B is better than A by more than the bound
``unresolved``  neither, but a side's inter-quartile spread exceeds the
                bound, so "no change" cannot be told from noise
``unchanged``   neither, and both spreads are within the bound

Exit status is non-zero on any ``regressed`` row or a higher
``fail_share``.  (The older ``compare_bench.py`` is warn-only and reads
the superseded ``BENCH_*.json``; this script does not touch it.)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """(delta relative to A, verdict) for one metric of one workload."""
    delta = (b["value"] - a["value"]) / a["value"]
    worse = delta if better == "lower" else -delta
    spread = max(
        (side["q3"] - side["q1"]) / side["value"] for side in (a, b)
    )
    if worse > bound:
        return delta, "regressed"
    if spread > bound:
        return delta, "unresolved"
    if worse < -bound:
        return delta, "improved"
    return delta, "unchanged"


def compare(ledger_a: dict, ledger_b: dict, contract: dict) -> tuple[list, bool]:
    """Table rows and whether B may pass."""
    rows = []
    passed = True
    for name, workload_a in ledger_a["workloads"].items():
        workload_b = ledger_b["workloads"][name]
        for metric in contract["end_to_end"]:
            a = workload_a["end_to_end"][metric["name"]]
            b = workload_b["end_to_end"][metric["name"]]
            delta, outcome = verdict(a, b, metric["better"], metric["bound"])
            passed &= outcome != "regressed"
            rows.append((
                name, metric["name"], metric["unit"],
                f"{a['value']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}]",
                f"{b['value']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]",
                f"{delta:+.1%} of {a['value']:.6g}",
                f"{metric['bound']:.0%}", outcome,
            ))
        share_a, share_b = workload_a["fail_share"], workload_b["fail_share"]
        outcome = "regressed" if share_b > share_a else "unchanged"
        passed &= share_b <= share_a
        rows.append((
            name, "fail_share", "ratio", f"{share_a:.6g}", f"{share_b:.6g}",
            f"{share_b - share_a:+.6g}", "0", outcome,
        ))
    return rows, passed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    with open(BENCHMARK, encoding="utf-8") as handle:
        contract = json.load(handle)
    header = ("workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "delta (base A)", "bound", "verdict")
    rows, passed = compare(*ledgers, contract)
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    print("PASS" if passed else "FAIL: regressed metric or higher fail_share")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
