"""Figure 1 benchmarks: materialise / print / count per engine.

Regenerates the cost ordering of the paper's Figure 1 (a)/(b)/(c) as
timed kernels: for each engine and delivery mode, one 10%-selectivity
range query against the tapestry table.
"""

import pytest

from benchmarks.conftest import BENCH_ROWS
from repro.engines import DatabaseEngine, RowStoreEngine

SELECTIVITY = 0.10
LOW = 1
HIGH = max(1, round(SELECTIVITY * BENCH_ROWS))

ENGINES = {
    "rowstore": RowStoreEngine,
    "columnstore": lambda: DatabaseEngine(cracking=False),
}


def _loaded(engine_factory, tapestry):
    engine = engine_factory()
    engine.load(tapestry.build_relation("R"))
    return engine


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_fig1a_materialise(benchmark, tapestry, engine_name):
    engine = _loaded(ENGINES[engine_name], tapestry)

    def query():
        return engine.range_query("R", "a", LOW, HIGH, delivery="materialise").rows

    rows = benchmark(query)
    assert rows == HIGH


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_fig1b_print(benchmark, tapestry, engine_name):
    engine = _loaded(ENGINES[engine_name], tapestry)

    def query():
        return engine.range_query("R", "a", LOW, HIGH, delivery="print").rows

    rows = benchmark(query)
    assert rows == HIGH


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_fig1c_count(benchmark, tapestry, engine_name):
    engine = _loaded(ENGINES[engine_name], tapestry)

    def query():
        return engine.range_query("R", "a", LOW, HIGH, delivery="count").rows

    rows = benchmark(query)
    assert rows == HIGH
