"""Unit tests for the cracker index (piece administration)."""

import pytest

from repro.core.crack import KIND_LE, KIND_LT
from repro.core.cracker_index import CrackerIndex, Piece
from repro.errors import CrackerIndexError


class TestBoundaries:
    def test_empty_index_has_one_piece(self):
        index = CrackerIndex(100)
        assert index.piece_count == 1
        assert index.piece_sizes() == [100]

    def test_add_creates_two_pieces(self):
        index = CrackerIndex(100)
        index.add(50, KIND_LT, 42)
        assert index.piece_count == 2
        assert index.piece_sizes() == [42, 58]

    def test_lookup_existing(self):
        index = CrackerIndex(100)
        index.add(50, KIND_LT, 42)
        assert index.probe(50, KIND_LT)[0] == 42

    def test_lookup_missing_kind(self):
        index = CrackerIndex(100)
        index.add(50, KIND_LT, 42)
        assert index.probe(50, KIND_LE)[0] is None

    def test_lookup_unknown_kind_raises(self):
        with pytest.raises(CrackerIndexError):
            CrackerIndex(10).probe(1, "weird")

    def test_same_value_lt_before_le(self):
        index = CrackerIndex(100)
        index.add(50, KIND_LE, 60)
        index.add(50, KIND_LT, 55)
        boundaries = [index.boundary_at(i) for i in range(len(index))]
        assert [b.kind for b in boundaries] == [KIND_LT, KIND_LE]
        assert [b.position for b in boundaries] == [55, 60]

    def test_readd_same_boundary_is_noop(self):
        index = CrackerIndex(100)
        index.add(50, KIND_LT, 42)
        index.add(50, KIND_LT, 42)
        assert len(index) == 1

    def test_readd_with_different_position_raises(self):
        index = CrackerIndex(100)
        index.add(50, KIND_LT, 42)
        with pytest.raises(CrackerIndexError):
            index.add(50, KIND_LT, 43)

    def test_position_monotonicity_enforced(self):
        index = CrackerIndex(100)
        index.add(50, KIND_LT, 42)
        with pytest.raises(CrackerIndexError):
            index.add(60, KIND_LT, 10)  # larger value, earlier position
        with pytest.raises(CrackerIndexError):
            index.add(40, KIND_LT, 90)  # smaller value, later position

    def test_out_of_range_position_raises(self):
        with pytest.raises(CrackerIndexError):
            CrackerIndex(10).add(5, KIND_LT, 11)

    def test_negative_size_raises(self):
        with pytest.raises(CrackerIndexError):
            CrackerIndex(-1)


class TestNavigation:
    def test_pieces_cover_column_exactly(self):
        index = CrackerIndex(100)
        for value, position in [(10, 5), (20, 30), (80, 77)]:
            index.add(value, KIND_LT, position)
        assert index.piece_sizes() == [5, 25, 47, 23]
        assert sum(index.piece_sizes()) == index.column_size == 100

    def test_piece_describes(self):
        index = CrackerIndex(100)
        index.add(10, KIND_LT, 5)
        index.add(20, KIND_LE, 30)
        middle = Piece(5, 30, index.boundary_at(0), index.boundary_at(1))
        assert middle.describes() == "(>=10, <=20)"


class TestMutation:
    def test_check_invariants_passes_on_valid(self):
        index = CrackerIndex(100)
        index.add(30, KIND_LT, 25)
        index.add(70, KIND_LE, 80)
        index.check_invariants()
