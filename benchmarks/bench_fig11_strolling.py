"""Figure 11 benchmarks: strolling-converge sequences, three strategies."""

import pytest

from benchmarks.conftest import BENCH_ROWS
from repro.benchmark.profiles import MQS, strolling_sequence
from repro.benchmark.runner import run_sequence
from repro.engines import DatabaseEngine, SortedEngine

STEPS = 32
STRATEGIES = {
    "nocrack": lambda: DatabaseEngine(cracking=False),
    "sort": SortedEngine,
    "crack": lambda: DatabaseEngine(cracking=True),
}


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_fig11_strolling_sequence(benchmark, tapestry, strategy):
    mqs = MQS(alpha=2, n=BENCH_ROWS, k=STEPS, sigma=0.05, rho="linear")
    queries = strolling_sequence(mqs, attr="a", seed=0, mode="converge")

    def setup():
        engine = STRATEGIES[strategy]()
        engine.load(tapestry.build_relation("R"))
        return (engine,), {}

    def sequence(engine):
        return run_sequence(engine, "R", queries, delivery="count").total_s

    benchmark.pedantic(sequence, setup=setup, rounds=3, iterations=1)
