"""Tests for the Volcano iterator operators (the row-store engine's)."""

import pytest

from repro.errors import ExecutionError
from repro.storage.table import Column, Relation, Schema
from repro.volcano.operators import (
    HashJoin,
    NestedLoopJoin,
    PrintSink,
    Scan,
    Select,
)


@pytest.fixture
def orders():
    schema = Schema([Column("id", "int"), Column("amount", "int"), Column("who", "str")])
    return Relation.from_columns(
        "orders",
        schema,
        {
            "id": [1, 2, 3, 4],
            "amount": [100, 250, 100, 75],
            "who": ["ada", "bob", "ada", "cyd"],
        },
    )


@pytest.fixture
def customers():
    schema = Schema([Column("name", "str"), Column("tier", "int")])
    return Relation.from_columns(
        "customers",
        schema,
        {"name": ["ada", "bob", "dee"], "tier": [1, 2, 3]},
    )


class TestScanSelectProject:
    def test_scan_yields_all_rows(self, orders):
        assert len(list(Scan(orders))) == 4

    def test_scan_qualified_columns(self, orders):
        assert Scan(orders).columns == ["orders.id", "orders.amount", "orders.who"]

    def test_scan_alias(self, orders):
        assert Scan(orders, alias="o").columns[0] == "o.id"

    def test_column_index_bare_name(self, orders):
        scan = Scan(orders)
        assert scan.column_index("amount") == 1

    def test_column_index_unknown_raises(self, orders):
        with pytest.raises(ExecutionError):
            Scan(orders).column_index("ghost")

    def test_column_index_ambiguous_raises(self, orders):
        join = NestedLoopJoin(Scan(orders, "a"), Scan(orders, "b"), "a.id", "b.id")
        with pytest.raises(ExecutionError):
            join.column_index("amount")

    def test_select_filters(self, orders):
        scan = Scan(orders)
        amount = scan.column_index("amount")
        selected = Select(scan, lambda row: row[amount] > 90)
        assert len(list(selected)) == 3

class TestJoins:
    def test_hash_join_matches(self, orders, customers):
        join = HashJoin(Scan(orders), Scan(customers), "orders.who", "customers.name")
        rows = list(join)
        assert len(rows) == 3  # ada x2, bob x1; cyd has no partner

    def test_nested_loop_equals_hash(self, orders, customers):
        hash_rows = sorted(
            HashJoin(Scan(orders), Scan(customers), "orders.who", "customers.name")
        )
        nl_rows = sorted(
            NestedLoopJoin(Scan(orders), Scan(customers), "orders.who", "customers.name")
        )
        assert hash_rows == nl_rows

    def test_join_output_columns(self, orders, customers):
        join = HashJoin(Scan(orders), Scan(customers), "orders.who", "customers.name")
        assert join.columns == [
            "orders.id", "orders.amount", "orders.who",
            "customers.name", "customers.tier",
        ]

    def test_join_duplicates_multiply(self):
        schema = Schema([Column("k", "int")])
        left = Relation.from_columns("L", schema, {"k": [1, 1]})
        right = Relation.from_columns("R2", schema, {"k": [1, 1, 1]})
        join = HashJoin(Scan(left), Scan(right), "L.k", "R2.k")
        assert len(list(join)) == 6


class TestMaterializeAndSinks:
    def test_print_sink_counts(self, orders):
        sink = PrintSink()
        assert sink.drain(Scan(orders)) == 4
        assert sink.bytes_written > 0
