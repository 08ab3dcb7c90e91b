"""Tests for the multi-query sequence runner."""

import pytest

from repro.benchmark.profiles import MQS, RangeQuery, homerun_sequence
from repro.benchmark.runner import run_sequence
from repro.benchmark.tapestry import DBtapestry
from repro.engines import DatabaseEngine
from repro.errors import BenchmarkError


@pytest.fixture
def loaded_engine():
    engine = DatabaseEngine(cracking=False)
    engine.load(DBtapestry(2000, seed=3).build_relation("R"))
    return engine


@pytest.fixture
def queries():
    mqs = MQS(alpha=2, n=2000, k=8, sigma=0.1)
    return homerun_sequence(mqs, attr="a", seed=3)


class TestRunSequence:
    def test_step_count(self, loaded_engine, queries):
        result = run_sequence(loaded_engine, "R", queries)
        assert len(result.steps) == 8

    def test_cumulative_monotone(self, loaded_engine, queries):
        result = run_sequence(loaded_engine, "R", queries)
        cumulative = result.cumulative_s
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
        assert cumulative[-1] == pytest.approx(result.total_s)

    def test_rows_recorded(self, loaded_engine, queries):
        result = run_sequence(loaded_engine, "R", queries)
        assert result.steps[-1].rows == queries[-1].high - queries[-1].low + 1

    def test_empty_sequence_rejected(self, loaded_engine):
        with pytest.raises(BenchmarkError):
            run_sequence(loaded_engine, "R", [])

    def test_cracking_metrics_captured(self, queries):
        engine = DatabaseEngine(cracking=True)
        engine.load(DBtapestry(2000, seed=3).build_relation("R"))
        result = run_sequence(engine, "R", queries)
        assert result.steps[0].pieces >= 2
        assert result.steps[0].tuples_moved > 0


class TestCompareEngines:
    def test_results_keyed_by_engine(self, queries):
        engines = [DatabaseEngine(cracking=False), DatabaseEngine(cracking=True)]
        for engine in engines:
            engine.load(DBtapestry(2000, seed=3).build_relation("R"))
        results = {
            engine.name: run_sequence(engine, "R", queries) for engine in engines
        }
        assert set(results) == {"columnstore", "cracking"}
        rows = {r.steps[-1].rows for r in results.values()}
        assert len(rows) == 1  # all engines agree on the answer
