"""Supplementary benchmark: the hiking profile (crack vs nocrack).

Hiking windows overlap heavily, so cracking reorganises only the drift
slivers at the window edges — its best case among the §4 profiles.
"""

import pytest

from benchmarks.conftest import BENCH_ROWS
from repro.benchmark.profiles import MQS, hiking_sequence
from repro.benchmark.runner import run_sequence
from repro.engines import DatabaseEngine

STEPS = 32
MODES = {"nocrack": False, "crack": True}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_hiking_sequence(benchmark, tapestry, mode):
    mqs = MQS(alpha=2, n=BENCH_ROWS, k=STEPS, sigma=0.05, rho="linear")
    queries = hiking_sequence(mqs, attr="a", seed=0)

    def setup():
        engine = DatabaseEngine(cracking=MODES[mode])
        engine.load(tapestry.build_relation("R"))
        return (engine,), {}

    def sequence(engine):
        return run_sequence(engine, "R", queries, delivery="count").steps[-1].rows

    rows = benchmark.pedantic(sequence, setup=setup, rounds=3, iterations=1)
    assert rows == queries[-1].high - queries[-1].low + 1
