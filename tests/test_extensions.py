"""Tests for the extension features: ORDER BY, CSV export and
docstring coverage."""

import inspect

import pytest

from repro.errors import SQLAnalysisError
from repro.experiments import fig8
from repro.sql import Database


@pytest.fixture
def db():
    database = Database(cracking=True)
    database.execute("CREATE TABLE t (k integer, a integer)")
    database.execute(
        "INSERT INTO t VALUES (1, 30), (2, 10), (3, 20), (4, 10), (5, 40)"
    )
    return database


class TestOrderBy:
    def test_order_ascending_default(self, db):
        result = db.execute("SELECT a FROM t ORDER BY a")
        assert [row[0] for row in result.rows] == [10, 10, 20, 30, 40]

    def test_order_descending(self, db):
        result = db.execute("SELECT a FROM t ORDER BY a DESC")
        assert [row[0] for row in result.rows] == [40, 30, 20, 10, 10]

    def test_multi_key_order(self, db):
        result = db.execute("SELECT a, k FROM t ORDER BY a ASC, k DESC")
        assert result.rows[0] == (10, 4)
        assert result.rows[1] == (10, 2)

    def test_order_with_where_and_limit(self, db):
        result = db.execute("SELECT k FROM t WHERE a >= 20 ORDER BY a DESC LIMIT 2")
        assert [row[0] for row in result.rows] == [5, 1]

    def test_order_with_group_by(self, db):
        result = db.execute("SELECT a, count(*) FROM t GROUP BY a ORDER BY a DESC")
        assert [row[0] for row in result.rows] == [40, 30, 20, 10]

    def test_order_by_non_grouped_column_rejected(self, db):
        with pytest.raises(SQLAnalysisError):
            db.execute("SELECT a, count(*) FROM t GROUP BY a ORDER BY k")

    def test_order_by_unknown_column_rejected(self, db):
        with pytest.raises(SQLAnalysisError):
            db.execute("SELECT a FROM t ORDER BY ghost")

    def test_order_by_star_query(self, db):
        result = db.execute("SELECT * FROM t ORDER BY k DESC LIMIT 1")
        assert result.rows[0][0] == 5


class TestCSVExport:
    def test_csv_header_and_rows(self):
        result = fig8.run(k=4)
        csv = result.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines) == 5  # header + 4 steps

    def test_csv_roundtrip_values(self):
        result = fig8.run(k=3, sigma=0.5)
        last_line = result.to_csv().strip().splitlines()[-1]
        cells = last_line.split(",")
        assert float(cells[-1]) == 0.5  # target selectivity column


class TestDocstringCoverage:
    """Every public module, class and function carries a docstring."""

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro", "repro.core", "repro.storage", "repro.engines",
            "repro.volcano", "repro.sql", "repro.benchmark",
            "repro.simulation", "repro.experiments",
        ],
    )
    def test_public_api_documented(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for name in getattr(module, "__all__", []):
            member = getattr(module, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                assert member.__doc__, f"{module_name}.{name} lacks a docstring"
