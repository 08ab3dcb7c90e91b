"""Tests for the logical Ξ/Ψ/^/Ω cracker operators (§3.1 definitions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crackers import (
    omega_crack,
    psi_crack,
    wedge_crack,
    xi_crack_range,
    xi_crack_theta,
)
from repro.errors import CrackError
from repro.storage.table import Column, Relation, Schema


def rows_multiset(relation):
    from collections import Counter

    return Counter(relation.iter_rows())


class TestXiTheta:
    @pytest.mark.parametrize(
        "theta,constant,expected_p1",
        [
            ("<", 500, 499),
            ("<=", 500, 500),
            (">", 500, 500),
            (">=", 500, 501),
            ("=", 500, 1),
            ("!=", 500, 999),
        ],
    )
    def test_piece_sizes_per_theta(self, small_relation, theta, constant, expected_p1):
        result = xi_crack_theta(small_relation, "a", theta, constant)
        assert len(result.pieces) == 2
        assert len(result.pieces[0]) == expected_p1
        assert len(result.pieces[0]) + len(result.pieces[1]) == 1000

    def test_pieces_are_disjoint_and_complete(self, small_relation):
        result = xi_crack_theta(small_relation, "a", "<", 300)
        combined = rows_multiset(result.pieces[0]) + rows_multiset(result.pieces[1])
        assert combined == rows_multiset(small_relation)

    def test_unknown_theta_raises(self, small_relation):
        with pytest.raises(CrackError):
            xi_crack_theta(small_relation, "a", "~", 1)

    def test_str_attribute_rejected(self, mixed_relation):
        with pytest.raises(CrackError):
            xi_crack_theta(mixed_relation, "name", "<", "m")


class TestXiRange:
    def test_three_pieces(self, small_relation):
        result = xi_crack_range(small_relation, "a", 100, 200)
        assert len(result.pieces) == 3
        below, middle, above = result.pieces
        assert len(below) == 99
        assert len(middle) == 101
        assert len(above) == 800

    def test_consecutive_ranges_property(self, small_relation):
        result = xi_crack_range(small_relation, "a", 100, 200)
        below, middle, above = result.pieces
        assert max(below.column_values("a")) < 100
        assert min(middle.column_values("a")) >= 100
        assert max(middle.column_values("a")) <= 200
        assert min(above.column_values("a")) > 200

    def test_point_selection_low_equals_high(self, small_relation):
        result = xi_crack_range(small_relation, "a", 42, 42)
        assert len(result.pieces[1]) == 1

    def test_inverted_range_raises(self, small_relation):
        with pytest.raises(CrackError):
            xi_crack_range(small_relation, "a", 10, 5)

    def test_lossless(self, small_relation):
        result = xi_crack_range(small_relation, "a", 250, 750)
        combined = sum((rows_multiset(p) for p in result.pieces), rows_multiset(
            Relation("empty", small_relation.schema)
        ))
        assert combined == rows_multiset(small_relation)


class TestPsi:
    def test_two_vertical_pieces_with_oid(self, mixed_relation):
        result = psi_crack(mixed_relation, ["score"])
        projected, rest = result.pieces
        assert projected.schema.names() == ["_oid", "score"]
        assert rest.schema.names() == ["_oid", "id", "name"]
        assert len(projected) == len(rest) == len(mixed_relation)

    def test_oid_is_duplicate_free(self, mixed_relation):
        result = psi_crack(mixed_relation, ["score"])
        oids = result.pieces[0].column_values("_oid")
        assert len(set(np.asarray(oids).tolist())) == len(oids)

    def test_unknown_attribute_raises(self, mixed_relation):
        with pytest.raises(Exception):
            psi_crack(mixed_relation, ["ghost"])

    def test_projecting_everything_raises(self, mixed_relation):
        with pytest.raises(CrackError):
            psi_crack(mixed_relation, ["id", "score", "name"])


class TestWedge:
    def test_four_pieces(self, small_relation, partner_relation):
        result = wedge_crack(small_relation, partner_relation, "k", "k")
        assert len(result.pieces) == 4
        p1, p2, p3, p4 = result.pieces
        assert len(p1) + len(p2) == len(small_relation)
        assert len(p3) + len(p4) == len(partner_relation)

    def test_matching_pieces_join_compatible(self, small_relation, partner_relation):
        result = wedge_crack(small_relation, partner_relation, "k", "k")
        p1, _, p3, _ = result.pieces
        left_keys = set(np.asarray(p1.column_values("k")).tolist())
        right_keys = set(np.asarray(p3.column_values("k")).tolist())
        assert left_keys <= right_keys or right_keys <= left_keys or left_keys == right_keys

    def test_non_matching_pieces_have_no_partner(self):
        schema = Schema([Column("k", "int")])
        left = Relation.from_columns("L", schema, {"k": [1, 2, 3]})
        right = Relation.from_columns("R2", schema, {"k": [2, 3, 4]})
        result = wedge_crack(left, right, "k", "k")
        assert sorted(np.asarray(result.pieces[1].column_values("k")).tolist()) == [1]
        assert sorted(np.asarray(result.pieces[3].column_values("k")).tolist()) == [4]

class TestOmega:
    def test_one_piece_per_group(self):
        schema = Schema([Column("g", "int"), Column("v", "int")])
        relation = Relation.from_columns(
            "t", schema, {"g": [1, 2, 1, 3, 2], "v": [10, 20, 30, 40, 50]}
        )
        result = omega_crack(relation, "g")
        assert result.piece_count == 3
        sizes = [len(piece) for piece in result.pieces]
        assert sizes == [2, 2, 1]  # groups ordered by value: 1, 2, 3

    def test_groups_are_homogeneous(self):
        schema = Schema([Column("g", "int")])
        relation = Relation.from_columns("t", schema, {"g": [3, 1, 3, 1]})
        result = omega_crack(relation, "g")
        for piece in result.pieces:
            assert len(set(np.asarray(piece.column_values("g")).tolist())) == 1

    def test_string_groups(self, mixed_relation):
        result = omega_crack(mixed_relation, "name")
        assert result.piece_count == 5

    def test_lossless(self, small_relation):
        # group on a low-cardinality derived column
        schema = Schema([Column("g", "int"), Column("v", "int")])
        values = np.asarray(small_relation.column_values("a"))
        relation = Relation.from_columns(
            "t", schema, {"g": values % 7, "v": values}
        )
        result = omega_crack(relation, "g")
        combined = sum(
            (rows_multiset(p) for p in result.pieces),
            rows_multiset(Relation("empty", schema)),
        )
        assert combined == rows_multiset(relation)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.integers(0, 50), min_size=1, max_size=60),
       low=st.integers(0, 50), span=st.integers(0, 20))
def test_property_xi_range_lossless_and_disjoint(values, low, span):
    schema = Schema([Column("a", "int")])
    relation = Relation.from_columns("t", schema, {"a": values})
    result = xi_crack_range(relation, "a", low, low + span)
    total = sum(len(piece) for piece in result.pieces)
    assert total == len(values)
    combined = []
    for piece in result.pieces:
        combined.extend(np.asarray(piece.column_values("a")).tolist())
    assert sorted(combined) == sorted(values)
