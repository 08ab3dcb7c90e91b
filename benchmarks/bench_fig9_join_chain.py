"""Figure 9 benchmarks: k-way linear join chains.

Three regimes: the row store inside its optimizer budget (hash joins),
the row store past the budget (nested-loop fallback — the figure's
collapse), and the column store at long chains: one planned
``SELECT count(*)`` on the shipped SQL planner, whose join search walks
neighbours only and whose batch joins stay sort-merge past its budget.
"""

import pytest

from repro.engines import DatabaseEngine, RowStoreEngine


def _loaded(engine_cls, join_tapestry, **kwargs):
    engine = engine_cls(**kwargs)
    engine.load(join_tapestry.build_relation("R"))
    return engine


@pytest.mark.parametrize("length", [4, 8, 16])
def test_fig9_rowstore_within_budget(benchmark, join_tapestry, length):
    engine = _loaded(RowStoreEngine, join_tapestry, join_budget=10_000)

    def chain():
        return engine.join_chain("R", length)

    outcome = benchmark(chain)
    assert not outcome.fallback


@pytest.mark.parametrize("length", [16, 24])
def test_fig9_rowstore_fallback(benchmark, join_tapestry, length):
    engine = _loaded(RowStoreEngine, join_tapestry, join_budget=50)

    def chain():
        return engine.join_chain("R", length)

    outcome = benchmark(chain)
    assert outcome.fallback


@pytest.mark.parametrize("length", [16, 64, 128])
def test_fig9_columnstore_long_chain(benchmark, join_tapestry, length):
    engine = _loaded(DatabaseEngine, join_tapestry, cracking=False)

    def chain():
        return engine.join_chain("R", length)

    outcome = benchmark(chain)
    assert outcome.rows == len(engine.table("R"))
