"""Tests for the SQL parser."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sql.ast_nodes import AggCall, Between, ColRef, Comparison, Star
from repro.sql.parser import parse
from repro.sql.statements import (
    CreateTableStmt,
    DeleteStmt,
    InsertSelectStmt,
    InsertValuesStmt,
    SelectStmt,
    UpdateStmt,
)


class TestSelect:
    def test_select_star(self):
        stmt = parse("SELECT * FROM r")
        assert isinstance(stmt, SelectStmt)
        assert isinstance(stmt.items[0], Star)
        assert stmt.tables[0].name == "r"

    def test_select_columns(self):
        stmt = parse("SELECT a, r.b FROM r")
        assert stmt.items[0] == ColRef(None, "a")
        assert stmt.items[1] == ColRef("r", "b")

    def test_select_aggregates(self):
        stmt = parse("SELECT count(*), sum(a), avg(r.b) FROM r")
        assert stmt.items[0] == AggCall("count", Star())
        assert stmt.items[1] == AggCall("sum", ColRef(None, "a"))
        assert stmt.items[2] == AggCall("avg", ColRef("r", "b"))

    def test_where_comparisons(self):
        stmt = parse("SELECT * FROM r WHERE a >= 10 AND a < 20")
        assert stmt.where[0] == Comparison(ColRef(None, "a"), ">=", stmt.where[0].right)
        assert stmt.where[0].right.value == 10
        assert stmt.where[1].op == "<"

    def test_where_between(self):
        stmt = parse("SELECT * FROM r WHERE a BETWEEN 5 AND 9")
        condition = stmt.where[0]
        assert isinstance(condition, Between)
        assert condition.low.value == 5
        assert condition.high.value == 9

    def test_join_condition(self):
        stmt = parse("SELECT * FROM r, s WHERE r.k = s.k")
        condition = stmt.where[0]
        assert condition.left == ColRef("r", "k")
        assert condition.right == ColRef("s", "k")

    def test_table_alias(self):
        stmt = parse("SELECT * FROM r AS r1, r r2 WHERE r1.a = r2.k")
        assert stmt.tables[0].binding == "r1"
        assert stmt.tables[1].binding == "r2"

    def test_group_by(self):
        stmt = parse("SELECT k, count(*) FROM r GROUP BY k")
        assert stmt.group_by == [ColRef(None, "k")]

    def test_limit(self):
        stmt = parse("SELECT * FROM r LIMIT 5")
        assert stmt.limit == 5

    def test_select_into(self):
        stmt = parse("SELECT * INTO frag001 FROM r WHERE a < 10")
        assert stmt.into == "frag001"

    def test_negative_constant(self):
        stmt = parse("SELECT * FROM r WHERE a > -5")
        assert stmt.where[0].right.value == -5

    def test_string_constant(self):
        stmt = parse("SELECT * FROM r WHERE name = 'ada'")
        assert stmt.where[0].right.value == "ada"

    def test_float_constant(self):
        stmt = parse("SELECT * FROM r WHERE score <= 2.5")
        assert stmt.where[0].right.value == 2.5

    def test_or_rejected_with_explanation(self):
        with pytest.raises(SQLSyntaxError, match="OR is not supported"):
            parse("SELECT * FROM r WHERE a < 1 OR a > 5")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM r extra garbage ( (")

    def test_missing_from_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT *")

    def test_empty_statement_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("   ")

    def test_trailing_semicolon_ok(self):
        assert isinstance(parse("SELECT * FROM r;"), SelectStmt)


class TestCreateInsert:
    def test_create_table(self):
        stmt = parse("CREATE TABLE r (k integer, a int, s varchar(10), f real)")
        assert isinstance(stmt, CreateTableStmt)
        assert stmt.columns == [
            ("k", "int"), ("a", "int"), ("s", "str"), ("f", "float"),
        ]

    def test_create_table_unknown_type_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("CREATE TABLE r (k blob)")

    def test_insert_values_single(self):
        stmt = parse("INSERT INTO r VALUES (1, 2)")
        assert isinstance(stmt, InsertValuesStmt)
        assert (stmt.values, stmt.widths) == ((1, 2), (2,))

    def test_insert_values_multi(self):
        stmt = parse("INSERT INTO r VALUES (1, 'x'), (2, 'y')")
        assert (stmt.values, stmt.widths) == ((1, "x", 2, "y"), (2, 2))

    def test_insert_select(self):
        stmt = parse("INSERT INTO newR SELECT * FROM R WHERE R.a >= 3 AND R.a <= 9")
        assert isinstance(stmt, InsertSelectStmt)
        assert stmt.table == "newR"
        assert len(stmt.select.where) == 2

    def test_unknown_statement_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("DROP TABLE r")


class TestUpdateDelete:
    def test_update_single_assignment(self):
        stmt = parse("UPDATE r SET a = 5 WHERE k = 1")
        assert isinstance(stmt, UpdateStmt)
        assert stmt.table == "r"
        assert [(a.column, a.value.value) for a in stmt.assignments] == [("a", 5)]
        assert len(stmt.where) == 1

    def test_update_multi_assignment_and_types(self):
        stmt = parse("UPDATE r SET a = 5, w = 1.5, tag = 'x'")
        assert [(a.column, a.value.value) for a in stmt.assignments] == [
            ("a", 5), ("w", 1.5), ("tag", "x"),
        ]
        assert stmt.where == []

    def test_update_duplicate_column_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("UPDATE r SET a = 1, a = 2")

    def test_update_requires_set(self):
        with pytest.raises(SQLSyntaxError):
            parse("UPDATE r a = 1")

    def test_delete_with_where(self):
        stmt = parse("DELETE FROM r WHERE a BETWEEN 1 AND 5 AND tag <> 'x'")
        assert isinstance(stmt, DeleteStmt)
        assert stmt.table == "r"
        assert len(stmt.where) == 2

    def test_delete_all_rows(self):
        stmt = parse("DELETE FROM r")
        assert stmt.where == []

    def test_delete_requires_from(self):
        with pytest.raises(SQLSyntaxError):
            parse("DELETE r WHERE a = 1")
