"""Unit tests for the n-ary relation layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BATAlignmentError, CatalogError, StorageError
from repro.sql import Database
from repro.storage.table import Column, Relation, Schema


class TestSchema:
    def test_names_in_order(self):
        schema = Schema([Column("a", "int"), Column("b", "float")])
        assert schema.names() == ["a", "b"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(CatalogError):
            Schema([Column("a", "int"), Column("a", "int")])

    def test_unknown_column_type_rejected(self):
        with pytest.raises(CatalogError):
            Column("a", "decimal")

    def test_oid_type_rejected_in_schema(self):
        with pytest.raises(CatalogError):
            Column("a", "oid")

    def test_contains(self):
        schema = Schema([Column("a", "int")])
        assert "a" in schema
        assert "b" not in schema

    def test_column_lookup_error_mentions_names(self):
        schema = Schema([Column("a", "int")])
        with pytest.raises(CatalogError, match="unknown column"):
            schema.column("zz")

class TestConstruction:
    def test_from_columns(self, small_relation):
        assert len(small_relation) == 1000
        assert small_relation.schema.names() == ["k", "a"]

    def test_from_columns_missing_data_raises(self):
        schema = Schema([Column("a", "int"), Column("b", "int")])
        with pytest.raises(CatalogError, match="missing data"):
            Relation.from_columns("t", schema, {"a": [1]})

    def test_from_columns_ragged_raises(self):
        schema = Schema([Column("a", "int"), Column("b", "int")])
        with pytest.raises(BATAlignmentError):
            Relation.from_columns("t", schema, {"a": [1, 2], "b": [1]})

    def test_from_rows(self):
        schema = Schema([Column("a", "int"), Column("b", "str")])
        relation = Relation.from_rows("t", schema, [(1, "x"), (2, "y")])
        assert relation.row_at(1) == (2, "y")

    def test_empty_relation(self):
        relation = Relation("t", Schema([Column("a", "int")]))
        assert len(relation) == 0


class TestRowAccess:
    def test_row_at(self, mixed_relation):
        assert mixed_relation.row_at(0) == (1, 9.5, "ada")

    def test_row_at_out_of_range(self, mixed_relation):
        with pytest.raises(StorageError):
            mixed_relation.row_at(99)

    def test_iter_rows_complete(self, mixed_relation):
        assert len(list(mixed_relation.iter_rows())) == 5

    def test_column_values_str(self, mixed_relation):
        assert mixed_relation.column_values("name") == [
            "ada", "bob", "cyd", "dan", "eve",
        ]


class TestUpdates:
    def test_insert_row(self, mixed_relation):
        oid = mixed_relation.insert((6, 1.0, "fay"))
        assert oid == 5
        assert mixed_relation.row_at(5) == (6, 1.0, "fay")

    def test_insert_wrong_arity_raises(self, mixed_relation):
        with pytest.raises(BATAlignmentError):
            mixed_relation.insert((1, 2.0))

    def test_insert_many(self, mixed_relation):
        count = mixed_relation.insert_many([[7, 8], [1.0, 2.0], ["gus", "hal"]])
        assert count == 2
        assert len(mixed_relation) == 7
        assert mixed_relation.row_at(6) == (8, 2.0, "hal")

    def test_insert_many_empty(self, mixed_relation):
        assert mixed_relation.insert_many([[], [], []]) == 0
        assert len(mixed_relation) == 5


class TestFragmentation:
    def test_horizontal_fragment(self, mixed_relation):
        fragment = mixed_relation.horizontal_fragment(np.array([4, 0]))
        assert fragment.row_at(0) == (5, 5.5, "eve")
        assert fragment.row_at(1) == (1, 9.5, "ada")

    def test_horizontal_fragment_empty(self, mixed_relation):
        fragment = mixed_relation.horizontal_fragment(np.array([], dtype=np.int64))
        assert len(fragment) == 0

    def test_tuple_bytes_positive(self, mixed_relation):
        assert mixed_relation.tuple_bytes >= 24  # three 8-byte columns

    def test_nbytes_grows_with_rows(self, small_relation):
        before = small_relation.nbytes
        small_relation.insert((0, 0))
        assert small_relation.nbytes > before


class TestTombstones:
    """``delete_positions`` places each batch into the sorted tombstone
    set; ``check_invariants`` holds it to ascending, distinct, in range."""

    @given(st.lists(st.lists(st.integers(0, 199), max_size=12), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_batches_land_sorted_and_distinct(self, batches):
        relation = Relation.from_columns(
            "r", Schema([Column("k", "int")]), {"k": np.arange(200)}
        )
        gone: set = set()
        for batch in batches:
            fresh = np.array(sorted(set(batch) - gone), dtype=np.int64)
            assert relation.delete_positions(fresh) == fresh.size
            gone.update(fresh.tolist())
            assert relation.deleted_positions().tolist() == sorted(gone)
            relation.check_invariants()
        assert relation.live_count == 200 - len(gone)

    @pytest.mark.parametrize("tombstones", [[3, 3], [4, 2], [-1], [5]])
    def test_invariants_refuse_a_bad_tombstone_set(self, tombstones):
        relation = Relation.from_columns(
            "r", Schema([Column("k", "int")]), {"k": np.arange(5)}
        )
        relation._deleted = np.array(tombstones, dtype=np.int64)
        with pytest.raises(StorageError, match="tombstones"):
            relation.check_invariants()

    def test_database_invariants_read_the_tombstones(self):
        database = Database()
        database.execute("CREATE TABLE r (k integer)")
        database.execute("INSERT INTO r VALUES (1), (2), (3)")
        database.execute("DELETE FROM r WHERE k = 2")
        database.check_invariants()
        database.catalog.table("r")._deleted = np.array([1, 1], dtype=np.int64)
        with pytest.raises(StorageError, match="tombstones"):
            database.check_invariants()
