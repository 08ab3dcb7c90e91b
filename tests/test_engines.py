"""Tests for the query engines, including cross-engine equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark.tapestry import DBtapestry
from repro.engines import (
    DatabaseEngine,
    RowStoreEngine,
    SortedEngine,
    SQLCrackingEngine,
)
from repro.engines.base import DELIVERY_COUNT, DELIVERY_MATERIALISE, DELIVERY_PRINT
from repro.errors import ExecutionError
from repro.storage.table import Column, Relation, Schema
from repro.volcano.vectorized import join_probe

ALL_ENGINES = {
    "rowstore": RowStoreEngine,
    "columnstore": lambda: DatabaseEngine(cracking=False),
    "cracking": lambda: DatabaseEngine(cracking=True),
    "sorted": SortedEngine,
    "sql_cracking": SQLCrackingEngine,
}


def fresh_table(n=2000, seed=9):
    return DBtapestry(n, arity=2, seed=seed).build_relation("R")


@pytest.fixture(params=list(ALL_ENGINES.values()), ids=list(ALL_ENGINES))
def engine(request):
    instance = request.param()
    instance.load(fresh_table())
    return instance


class TestRangeQueries:
    def test_count_matches_truth(self, engine):
        outcome = engine.range_query("R", "a", 100, 300, delivery=DELIVERY_COUNT)
        assert outcome.rows == 201

    def test_count_full_table(self, engine):
        outcome = engine.range_query("R", "a", 1, 2000)
        assert outcome.rows == 2000

    def test_count_empty_range(self, engine):
        outcome = engine.range_query("R", "a", 5000, 6000)
        assert outcome.rows == 0

    def test_materialise_rows(self, engine):
        outcome = engine.range_query(
            "R", "a", 50, 149, delivery=DELIVERY_MATERIALISE, target_name="newR"
        )
        assert outcome.rows == 100

    def test_print_rows(self, engine):
        outcome = engine.range_query("R", "a", 50, 149, delivery=DELIVERY_PRINT)
        assert outcome.rows == 100

    def test_elapsed_recorded(self, engine):
        outcome = engine.range_query("R", "a", 1, 100)
        assert outcome.elapsed_s >= 0

    def test_io_counters_move(self, engine):
        outcome = engine.range_query("R", "a", 1, 100)
        assert outcome.io.page_reads + outcome.io.tuples_read > 0

    def test_unknown_delivery_raises(self, engine):
        with pytest.raises(ExecutionError):
            engine.range_query("R", "a", 1, 10, delivery="teleport")

    def test_repeat_query_stable(self, engine):
        first = engine.range_query("R", "a", 700, 900)
        second = engine.range_query("R", "a", 700, 900)
        assert first.rows == second.rows == 201


class TestCrossEngineEquivalence:
    def test_many_queries_agree(self, rng):
        engines = [factory() for factory in ALL_ENGINES.values()]
        for instance in engines:
            instance.load(fresh_table())
        reference = np.asarray(fresh_table().column_values("a"))
        for _ in range(12):
            low = int(rng.integers(1, 1900))
            high = low + int(rng.integers(0, 200))
            counts = {
                instance.name: instance.range_query("R", "a", low, high).rows
                for instance in engines
            }
            truth = int(np.sum((reference >= low) & (reference <= high)))
            assert all(count == truth for count in counts.values()), (low, high, counts)


class TestRowStore:
    def test_materialise_appends_wal_per_tuple(self):
        engine = RowStoreEngine()
        engine.load(fresh_table())
        outcome = engine.range_query("R", "a", 1, 100, delivery=DELIVERY_MATERIALISE)
        assert engine.tracker.wal.records == outcome.rows

    def test_count_writes_nothing(self):
        engine = RowStoreEngine()
        engine.load(fresh_table())
        outcome = engine.range_query("R", "a", 1, 100, delivery=DELIVERY_COUNT)
        assert outcome.io.page_writes == 0
        assert outcome.io.wal_bytes == 0

    def test_select_into_registers_table(self):
        engine = RowStoreEngine()
        engine.load(fresh_table())
        rows = engine.select_into("piece1", "R", "a", lambda v: v <= 100)
        assert rows == 100
        assert engine.catalog.has_table("piece1")

    def test_join_chain_fallback_flag(self):
        engine = RowStoreEngine(join_budget=5)
        engine.load(fresh_table(200))
        outcome = engine.join_chain("R", 4)
        assert outcome.fallback

    def test_join_chain_rows_preserved(self):
        # Both columns are permutations of 1..N: each join step matches
        # every tuple exactly once, so the chain keeps N rows.
        engine = RowStoreEngine()
        engine.load(fresh_table(150))
        outcome = engine.join_chain("R", 3)
        assert outcome.rows == 150


class TestColumnStore:
    def test_reads_only_predicate_column(self):
        engine = DatabaseEngine(cracking=False)
        engine.load(fresh_table())
        outcome = engine.range_query("R", "a", 1, 10, delivery=DELIVERY_COUNT)
        row_engine = RowStoreEngine()
        row_engine.load(fresh_table())
        row_outcome = row_engine.range_query("R", "a", 1, 10, delivery=DELIVERY_COUNT)
        assert outcome.io.page_reads < row_outcome.io.page_reads

    def test_join_chain_matches_rowstore(self):
        column = DatabaseEngine(cracking=False)
        row = RowStoreEngine()
        for instance in (column, row):
            instance.load(fresh_table(120))
        assert column.join_chain("R", 5).rows == row.join_chain("R", 5).rows

    def test_join_probe_with_duplicates(self):
        left = np.array([1, 2, 2, 9])
        right = np.array([2, 2, 1])
        order = np.argsort(right, kind="stable")
        left_idx, right_idx = join_probe(left, right[order], order)
        # Left-major, each left row's matches in right storage order.
        pairs = list(zip(left_idx.tolist(), right_idx.tolist()))
        assert pairs == [(0, 2), (1, 0), (1, 1), (2, 0), (2, 1)]

    def test_join_probe_empty(self):
        right = np.array([2])
        order = np.argsort(right, kind="stable")
        left_idx, right_idx = join_probe(np.array([1]), right[order], order)
        assert len(left_idx) == 0 and len(right_idx) == 0
        assert left_idx.dtype == right_idx.dtype == np.int64

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        left=st.lists(st.integers(0, 6), max_size=30),
        right=st.lists(st.integers(0, 6), max_size=30),
    )
    def test_join_probe_matches_a_nested_loop(self, left, right):
        right_keys = np.array(right, dtype=np.int64)
        order = np.argsort(right_keys, kind="stable")
        left_idx, right_idx = join_probe(
            np.array(left, dtype=np.int64), right_keys[order], order
        )
        expected = [
            (i, j) for i, x in enumerate(left) for j, y in enumerate(right) if x == y
        ]
        assert list(zip(left_idx.tolist(), right_idx.tolist())) == expected


class TestCrackingEngine:
    def test_pieces_accumulate(self):
        engine = DatabaseEngine(cracking=True)
        engine.load(fresh_table())
        engine.range_query("R", "a", 100, 200)
        engine.range_query("R", "a", 500, 600)
        assert engine.db.piece_count("R", "a") >= 5

    def test_crack_writes_reported(self):
        engine = DatabaseEngine(cracking=True)
        engine.load(fresh_table())
        outcome = engine.range_query("R", "a", 100, 200)
        assert outcome.extra["tuples_moved"] > 0
        repeat = engine.range_query("R", "a", 100, 200)
        assert repeat.extra["tuples_moved"] == 0

    def test_has_cracker_lazy(self):
        engine = DatabaseEngine(cracking=True)
        engine.load(fresh_table())
        assert ("R", "a") not in engine.db.cracked_columns()
        engine.range_query("R", "a", 1, 10)
        assert ("R", "a") in engine.db.cracked_columns()

    def test_materialise_reconstructs_full_tuples(self):
        engine = DatabaseEngine(cracking=True)
        engine.load(fresh_table())
        engine.range_query("R", "a", 100, 110, delivery=DELIVERY_MATERIALISE,
                           target_name="out")
        out = engine.table("out")
        values = np.asarray(out.column_values("a"))
        assert sorted(values.tolist()) == list(range(100, 111))
        # The k column must belong to the same source rows.
        base = engine.table("R")
        base_pairs = set(zip(base.column_values("k").tolist(),
                             base.column_values("a").tolist()))
        for pair in zip(out.column_values("k").tolist(), values.tolist()):
            assert pair in base_pairs


class TestSortedEngine:
    def test_first_query_pays_sort(self):
        engine = SortedEngine()
        engine.load(fresh_table())
        first = engine.range_query("R", "a", 1, 10)
        second = engine.range_query("R", "a", 20, 30)
        assert first.io.page_writes > 0       # the sort investment
        assert second.io.page_writes == 0     # amortised afterwards

    def test_accelerator_reused(self):
        engine = SortedEngine()
        engine.load(fresh_table())
        engine.range_query("R", "a", 1, 10)
        accel = engine.accelerator_for("R", "a")
        engine.range_query("R", "a", 5, 15)
        assert engine.accelerator_for("R", "a") is accel


class TestSQLCrackingEngine:
    def test_fragments_accumulate_in_catalog(self):
        engine = SQLCrackingEngine()
        engine.load(fresh_table())
        engine.range_query("R", "a", 100, 200)
        fragments = engine.fragments_of("R", "a")
        assert len(fragments) == 3
        assert all(engine.catalog.has_table(piece.name) for piece in fragments)

    def test_second_query_cracks_fewer_pieces(self):
        engine = SQLCrackingEngine()
        engine.load(fresh_table())
        first = engine.range_query("R", "a", 100, 200)
        second = engine.range_query("R", "a", 120, 180)
        assert first.extra["cracks"] >= 1
        assert second.extra["piece_scans"] <= first.extra["piece_scans"] + 2

    def test_aligned_repeat_needs_no_cracks(self):
        engine = SQLCrackingEngine()
        engine.load(fresh_table())
        engine.range_query("R", "a", 100, 200)
        repeat = engine.range_query("R", "a", 100, 200)
        assert repeat.extra["cracks"] == 0

    def test_ddl_cost_charged(self):
        engine = SQLCrackingEngine()
        engine.load(fresh_table())
        before = engine.catalog.stats.ddl_mutations
        engine.range_query("R", "a", 100, 200)
        assert engine.catalog.stats.ddl_mutations > before

    def test_one_sided_rejected(self):
        engine = SQLCrackingEngine()
        engine.load(fresh_table())
        with pytest.raises(ExecutionError):
            engine.range_query("R", "a", None, 10)


@settings(max_examples=20, deadline=None)
@given(
    bounds=st.lists(
        st.tuples(st.integers(1, 950), st.integers(0, 120)),
        min_size=1, max_size=6,
    )
)
def test_property_cracking_engine_equals_columnstore(bounds):
    cracking = DatabaseEngine(cracking=True)
    column = DatabaseEngine(cracking=False)
    for instance in (cracking, column):
        instance.load(fresh_table(1000, seed=4))
    for low, span in bounds:
        high = low + span
        assert (
            cracking.range_query("R", "a", low, high).rows
            == column.range_query("R", "a", low, high).rows
        )
