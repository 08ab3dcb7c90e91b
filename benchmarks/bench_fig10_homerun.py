"""Figure 10 benchmarks: homerun sequences with and without cracking.

Each benchmark times a complete k-step homerun sequence, rebuilding the
engine per round (cracking is stateful, so reusing a cracked engine
would measure the post-convergence regime only).
"""

import pytest

from benchmarks.conftest import BENCH_ROWS
from repro.benchmark.profiles import MQS, homerun_sequence
from repro.benchmark.runner import run_sequence
from repro.engines import DatabaseEngine

STEPS = 32
MODES = {"nocrack": False, "crack": True}


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("target_pct", [5, 45, 75])
def test_fig10_homerun_sequence(benchmark, tapestry, mode, target_pct):
    mqs = MQS(alpha=2, n=BENCH_ROWS, k=STEPS, sigma=target_pct / 100, rho="linear")
    queries = homerun_sequence(mqs, attr="a", seed=0)

    def setup():
        engine = DatabaseEngine(cracking=MODES[mode])
        engine.load(tapestry.build_relation("R"))
        return (engine,), {}

    def sequence(engine):
        return run_sequence(engine, "R", queries, delivery="count").steps[-1].rows

    rows = benchmark.pedantic(sequence, setup=setup, rounds=3, iterations=1)
    assert rows == queries[-1].high - queries[-1].low + 1


def test_fig10_converged_query(benchmark, tapestry):
    """Per-step cost once the cracker has converged ("indexed-table" speed)."""
    engine = DatabaseEngine(cracking=True)
    engine.load(tapestry.build_relation("R"))
    mqs = MQS(alpha=2, n=BENCH_ROWS, k=STEPS, sigma=0.05, rho="linear")
    queries = homerun_sequence(mqs, attr="a", seed=0)
    run_sequence(engine, "R", queries, delivery="count")
    final = queries[-1]

    def converged():
        return engine.range_query("R", "a", final.low, final.high).rows

    rows = benchmark(converged)
    assert rows == final.high - final.low + 1
