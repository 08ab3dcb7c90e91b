"""Tier-1 checks of the perf ledger (quick mode, a few seconds)."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness
import layers
import workloads
from repro.sql.session import QueryResult

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
EXACT_COUNTERS = ("crack.cracks", "crack.tuples_moved", "wal.fsyncs")


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(compare.BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One ``run.py --quick`` over every workload: (stdout, ledger)."""
    out = tmp_path_factory.mktemp("ledger") / "ledger.json"
    done = subprocess.run(
        [*RUN, "--seed", "11", "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(out, encoding="utf-8") as handle:
        return done.stdout, json.load(handle)


def test_contract_matches_the_code(contract):
    assert [w["name"] for w in contract["workloads"]] == list(workloads.SPECS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in contract["end_to_end"]
    } == harness.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]
    } == {name: row[:2] for name, row in layers.PER_LAYER.items()}
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in contract[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert "setup_s" in harness.END_TO_END


def test_quick_run_prints_every_metric(contract, quick_run):
    stdout, ledger = quick_run
    assert ledger["meta"]["seed"] == 11 and ledger["meta"]["quick"]
    for workload in contract["workloads"]:
        report = ledger["workloads"][workload["name"]]
        assert report["failed"] == 0 and report["fail_share"] == 0
        for group in ("end_to_end", "per_layer"):
            for metric in contract[group]:
                got = report[group][metric["name"]]
                assert math.isfinite(got["value"]), metric["name"]
                assert got["unit"] == metric["unit"]
                assert re.search(
                    rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\b",
                    stdout, re.MULTILINE,
                ), metric["name"]
        for metric in contract["end_to_end"]:
            assert report["end_to_end"][metric["name"]]["value"] > 0
        # Layer self times must account for the traced statement time.
        assert 0.9 <= report["per_layer"]["trace.self_sum_share"]["value"] <= 1.1
    dml = ledger["workloads"]["mixed_dml"]["per_layer"]
    assert dml["wal.fsyncs"]["value"] > 0 and dml["checkpoint.count"]["value"] >= 3
    assert dml["durability.lost_acked"]["value"] == 0


@pytest.mark.parametrize("name", ["cold_burst", "mixed_dml"])
def test_exact_counters_repeat(name, quick_run):
    """Same seed, separate process: identical work, counted identically."""
    done = subprocess.run(
        [*RUN, "--workload", name, "--seed", "11", "--trace", "1", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(layers.PER_LAYER)
    first = quick_run[1]["workloads"][name]["per_layer"]
    for counter in EXACT_COUNTERS:
        assert result["metrics"][counter]["value"] == first[counter]["value"], counter


def test_driver_form_reports_the_end_to_end_metrics():
    done = subprocess.run(
        [*RUN, "--workload", "point_count", "--seed", "3", "--seconds", "1",
         "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.END_TO_END)
    for name, (unit, _) in harness.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_generator_is_a_pure_function_of_workload_and_seed():
    for name in workloads.SPECS:
        one = workloads.generate(name, 7, quick=True)
        two = workloads.generate(name, 7, quick=True)
        other = workloads.generate(name, 8, quick=True)
        assert one.sql == two.sql and one.expect == two.expect
        assert one.warmup == two.warmup
        assert all((one.columns[c] == two.columns[c]).all() for c in one.columns)
        assert one.sql != other.sql
        assert len(one.sql) == len(one.expect) == len(one.kind) == len(one.user_bytes)


def test_oracle_catches_a_corrupted_answer():
    counts = workloads.generate("point_count", 5, quick=True)
    answer = counts.expect[0][1]
    assert counts.check(0, QueryResult(["count"], [(answer,)]))
    assert not counts.check(0, QueryResult(["count"], [(answer + 1,)]))
    assert not counts.check(0, QueryResult(["count"], []))

    bulk = workloads.generate("bulk_select", 5, quick=True)
    k, a, tag = (bulk.columns[c] for c in ("k", "a", "tag"))
    index = next(i for i, e in enumerate(bulk.expect) if len(e) == 5)
    low, high = map(int, re.findall(r"\d+", bulk.sql[index])[-2:])
    hit = (a >= low) & (a <= high)
    rows = list(zip(k[hit].tolist(), a[hit].tolist(), tag[hit].tolist()))
    assert bulk.check(index, QueryResult(["k", "a", "tag"], rows))
    assert not bulk.check(index, QueryResult(["k", "a", "tag"], rows[:-1]))
    swapped = [(rows[0][0], rows[0][1] + 1, rows[0][2]), *rows[1:]]
    assert not bulk.check(index, QueryResult(["k", "a", "tag"], swapped))
    retagged = [(*rows[0][:2], next(t for t in workloads.TAGS if t != rows[0][2])),
                *rows[1:]]
    assert not bulk.check(index, QueryResult(["k", "a", "tag"], retagged))

    dml = workloads.generate("mixed_dml", 5, quick=True)
    index = dml.kind.index("update")
    affected = dml.expect[index][1]
    assert dml.check(index, QueryResult([], [], affected=affected))
    assert not dml.check(index, QueryResult([], [], affected=affected - 1))


def _side(value, q1, q3):
    return {"value": value, "q1": q1, "q3": q3}


def test_compare_verdicts():
    steady = _side(100.0, 99.0, 101.0)
    assert compare.verdict(steady, _side(104.0, 103, 105), "lower", 0.1)[1] == "unchanged"
    assert compare.verdict(steady, _side(120.0, 119, 121), "lower", 0.1)[1] == "regressed"
    assert compare.verdict(steady, _side(80.0, 79, 81), "lower", 0.1)[1] == "improved"
    assert compare.verdict(steady, _side(80.0, 79, 81), "higher", 0.1)[1] == "regressed"
    assert compare.verdict(steady, _side(104.0, 90, 115), "lower", 0.1)[1] == "unresolved"


def test_compare_cli_gates_on_regression(quick_run, tmp_path):
    _, ledger = quick_run
    same = tmp_path / "a.json"
    same.write_text(json.dumps(ledger))
    worse = json.loads(json.dumps(ledger))
    metric = worse["workloads"]["bulk_select"]["end_to_end"]["srv_p50_us"]
    for key in ("value", "q1", "q3"):
        metric[key] *= 2
    slow = tmp_path / "b.json"
    slow.write_text(json.dumps(worse))
    script = [sys.executable, str(HERE / "compare.py")]
    passed = subprocess.run([*script, str(same), str(same)], capture_output=True, text=True)
    assert passed.returncode == 0 and "regressed" not in passed.stdout
    failed = subprocess.run([*script, str(same), str(slow)], capture_output=True, text=True)
    assert failed.returncode == 1 and "regressed" in failed.stdout
