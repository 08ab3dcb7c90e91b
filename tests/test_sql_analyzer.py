"""Tests for semantic analysis and cracker extraction."""

import pytest

from repro.errors import SQLAnalysisError
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.storage.table import Column, Relation, Schema


@pytest.fixture
def catalog():
    cat = Catalog()
    schema_r = Schema([Column("k", "int"), Column("a", "int")])
    schema_s = Schema([Column("k", "int"), Column("b", "int")])
    cat.create_table(Relation.from_columns("r", schema_r, {"k": [1], "a": [2]}))
    cat.create_table(Relation.from_columns("s", schema_s, {"k": [1], "b": [3]}))
    return cat


def analyze_sql(sql, catalog):
    return analyze(parse(sql), catalog)


class TestResolution:
    def test_unknown_table_raises(self, catalog):
        with pytest.raises(SQLAnalysisError):
            analyze_sql("SELECT * FROM ghost", catalog)

    def test_unknown_column_raises(self, catalog):
        with pytest.raises(SQLAnalysisError):
            analyze_sql("SELECT ghost FROM r", catalog)

    def test_ambiguous_column_raises(self, catalog):
        with pytest.raises(SQLAnalysisError, match="ambiguous"):
            analyze_sql("SELECT k FROM r, s WHERE r.k = s.k", catalog)

    def test_unambiguous_bare_column_resolves(self, catalog):
        query = analyze_sql("SELECT a FROM r, s WHERE r.k = s.k", catalog)
        assert query.projections == ["r.a"]

    def test_duplicate_binding_raises(self, catalog):
        with pytest.raises(SQLAnalysisError, match="duplicate"):
            analyze_sql("SELECT * FROM r, r", catalog)

    def test_aliases_create_distinct_bindings(self, catalog):
        query = analyze_sql(
            "SELECT * FROM r r1, r r2 WHERE r1.a = r2.k", catalog
        )
        assert [t.binding for t in query.tables] == ["r1", "r2"]

    def test_star_with_columns_rejected(self, catalog):
        with pytest.raises(SQLAnalysisError):
            analyze_sql("SELECT *, a FROM r", catalog)


class TestPredicateFolding:
    def test_range_from_two_comparisons(self, catalog):
        query = analyze_sql("SELECT * FROM r WHERE a >= 5 AND a < 10", catalog)
        predicate = query.selections[0]
        assert (predicate.low, predicate.high) == (5, 10)
        assert predicate.low_inclusive and not predicate.high_inclusive

    def test_between_is_inclusive(self, catalog):
        query = analyze_sql("SELECT * FROM r WHERE a BETWEEN 5 AND 10", catalog)
        predicate = query.selections[0]
        assert predicate.low_inclusive and predicate.high_inclusive

    def test_equality_is_point_range(self, catalog):
        query = analyze_sql("SELECT * FROM r WHERE a = 7", catalog)
        predicate = query.selections[0]
        assert predicate.low == predicate.high == 7
        assert predicate.low_inclusive and predicate.high_inclusive

    def test_tighter_bound_wins(self, catalog):
        query = analyze_sql("SELECT * FROM r WHERE a > 3 AND a > 8", catalog)
        predicate = query.selections[0]
        assert predicate.low == 8
        assert not predicate.low_inclusive

    def test_not_equal_is_residual(self, catalog):
        query = analyze_sql("SELECT * FROM r WHERE a <> 5", catalog)
        assert not query.selections
        assert query.residuals[0].op == "!="

    def test_join_predicate_classified(self, catalog):
        query = analyze_sql("SELECT * FROM r, s WHERE r.k = s.k", catalog)
        join = query.joins[0]
        assert (join.left_binding, join.right_binding) == ("r", "s")

    def test_non_equi_join_rejected(self, catalog):
        with pytest.raises(SQLAnalysisError):
            analyze_sql("SELECT * FROM r, s WHERE r.k < s.k", catalog)

    def test_same_table_column_comparison_rejected(self, catalog):
        with pytest.raises(SQLAnalysisError):
            analyze_sql("SELECT * FROM r WHERE r.k = r.a", catalog)


class TestProjectionAndGrouping:
    def test_group_by_qualified(self, catalog):
        query = analyze_sql("SELECT k, count(*) FROM r GROUP BY k", catalog)
        assert query.group_by == ["r.k"]
        assert query.aggregates == [("count", None)]

    def test_aggregate_column_resolved(self, catalog):
        query = analyze_sql("SELECT sum(a) FROM r", catalog)
        assert query.aggregates == [("sum", "r.a")]

    def test_non_grouped_column_with_aggregate_rejected(self, catalog):
        with pytest.raises(SQLAnalysisError):
            analyze_sql("SELECT a, count(*) FROM r GROUP BY k", catalog)

    def test_into_captured(self, catalog):
        query = analyze_sql("SELECT * INTO t2 FROM r", catalog)
        assert query.into == "t2"


class TestCrackerExtraction:
    def test_xi_for_selection(self, catalog):
        query = analyze_sql("SELECT * FROM r WHERE a < 10", catalog)
        assert [a.op for a in query.advice] == ["Ξ"]

    def test_wedge_for_join(self, catalog):
        query = analyze_sql("SELECT * FROM r, s WHERE r.k = s.k", catalog)
        assert "^" in [a.op for a in query.advice]

    def test_omega_for_group_by(self, catalog):
        query = analyze_sql("SELECT k, count(*) FROM r GROUP BY k", catalog)
        assert "Ω" in [a.op for a in query.advice]

    def test_psi_for_strict_subset_projection(self, catalog):
        query = analyze_sql("SELECT a FROM r", catalog)
        assert "Ψ" in [a.op for a in query.advice]

    def test_no_psi_for_full_projection(self, catalog):
        query = analyze_sql("SELECT k, a FROM r", catalog)
        assert "Ψ" not in [a.op for a in query.advice]

    def test_figure5_sequence_advice(self, catalog):
        # The paper's §3.2 example queries produce Ξ, then Ξ+^, then Ξ.
        q1 = analyze_sql("SELECT * FROM r WHERE r.a < 10", catalog)
        q2 = analyze_sql("SELECT * FROM r, s WHERE r.k = s.k AND r.a < 5", catalog)
        q3 = analyze_sql("SELECT * FROM s WHERE s.b > 25", catalog)
        assert [a.op for a in q1.advice] == ["Ξ"]
        assert sorted(a.op for a in q2.advice) == sorted(["Ξ", "^"])
        assert [a.op for a in q3.advice] == ["Ξ"]
