"""Tests for the DBtapestry benchmark data generator."""

import numpy as np
import pytest

from repro.benchmark.tapestry import DBtapestry, column_names
from repro.errors import BenchmarkError


class TestColumnNames:
    def test_first_is_k(self):
        assert column_names(3) == ["k", "a", "b"]

    def test_single_column(self):
        assert column_names(1) == ["k"]

    def test_zero_arity_rejected(self):
        with pytest.raises(BenchmarkError):
            column_names(0)


def _assert_permutations(tapestry: DBtapestry) -> None:
    """Every column is a permutation of 1..N (the paper's property)."""
    expected = np.arange(1, tapestry.n_rows + 1)
    for index in range(tapestry.arity):
        assert np.array_equal(np.sort(tapestry.column(index)), expected), index


class TestGeneration:
    def test_columns_are_permutations(self):
        _assert_permutations(DBtapestry(5000, arity=3, seed=1))

    def test_non_divisible_seed_size(self):
        _assert_permutations(DBtapestry(777, arity=2, seed=2, seed_size=100))

    def test_tiny_table(self):
        _assert_permutations(DBtapestry(1, arity=2, seed=0))

    def test_deterministic_per_seed(self):
        first = DBtapestry(100, seed=5).column(0)
        second = DBtapestry(100, seed=5).column(0)
        assert np.array_equal(first, second)

    def test_columns_differ(self):
        tapestry = DBtapestry(1000, arity=2, seed=5)
        assert not np.array_equal(tapestry.column(0), tapestry.column(1))

    def test_seeds_differ(self):
        assert not np.array_equal(
            DBtapestry(100, seed=1).column(0), DBtapestry(100, seed=2).column(0)
        )

    def test_column_index_out_of_range(self):
        with pytest.raises(BenchmarkError):
            DBtapestry(10, arity=2).column(5)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(BenchmarkError):
            DBtapestry(0)
        with pytest.raises(BenchmarkError):
            DBtapestry(10, seed_size=0)


class TestOutputs:
    def test_build_relation(self):
        relation = DBtapestry(200, arity=2, seed=0).build_relation("R")
        assert len(relation) == 200
        assert relation.schema.names() == ["k", "a"]
