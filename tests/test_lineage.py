"""Tests for the cracker lineage graph (Figures 5/6)."""

import pytest

from repro.core.crackers import omega_crack, psi_crack, wedge_crack, xi_crack_theta
from repro.core.lineage import LineageGraph, union_pieces, psi_inverse
from repro.errors import CrackError
from repro.storage.table import Column, Relation, Schema


@pytest.fixture
def graph_and_roots(small_relation, partner_relation):
    graph = LineageGraph()
    return graph, graph.add_base(small_relation), graph.add_base(partner_relation)


class TestGraphConstruction:
    def test_base_node_is_root_and_leaf(self, graph_and_roots):
        _, root_r, _ = graph_and_roots
        assert root_r.produced_by is None  # a root
        assert root_r.is_leaf

    def test_duplicate_base_raises(self, small_relation):
        graph = LineageGraph()
        graph.add_base(small_relation)
        with pytest.raises(CrackError):
            graph.add_base(small_relation)

    def test_piece_numbering_follows_paper(self, graph_and_roots, small_relation):
        graph, root_r, _ = graph_and_roots
        result = xi_crack_theta(small_relation, "a", "<", 10)
        nodes = graph.record(result.op, result.params, [root_r], result.pieces)
        assert [node.node_id for node in nodes] == ["R[1]", "R[2]"]

    def test_numbering_continues_across_cracks(self, graph_and_roots, small_relation):
        graph, root_r, _ = graph_and_roots
        first = xi_crack_theta(small_relation, "a", "<", 10)
        nodes = graph.record(first.op, first.params, [root_r], first.pieces)
        second = xi_crack_theta(nodes[1].relation, "a", "<", 5)
        more = graph.record(second.op, second.params, [nodes[1]], second.pieces)
        assert [node.node_id for node in more] == ["R[3]", "R[4]"]

    def test_wedge_numbering_splits_across_bases(
        self, graph_and_roots, small_relation, partner_relation
    ):
        graph, root_r, root_s = graph_and_roots
        result = wedge_crack(small_relation, partner_relation, "k", "k")
        nodes = graph.record(result.op, result.params, [root_r, root_s], result.pieces)
        assert [node.node_id for node in nodes] == ["R[1]", "R[2]", "S[1]", "S[2]"]

    def test_cracking_a_non_leaf_raises(self, graph_and_roots, small_relation):
        graph, root_r, _ = graph_and_roots
        result = xi_crack_theta(small_relation, "a", "<", 10)
        graph.record(result.op, result.params, [root_r], result.pieces)
        with pytest.raises(CrackError):
            graph.record(result.op, result.params, [root_r], result.pieces)

    def test_unknown_operator_raises(self, graph_and_roots, small_relation):
        graph, root_r, _ = graph_and_roots
        with pytest.raises(CrackError):
            graph.record("Φ", "nope", [root_r], [small_relation])

class TestReconstruction:
    def test_xi_lossless(self, graph_and_roots, small_relation):
        graph, root_r, _ = graph_and_roots
        result = xi_crack_theta(small_relation, "a", "<", 321)
        graph.record(result.op, result.params, [root_r], result.pieces)
        assert graph.verify_lossless(root_r)

    def test_psi_lossless(self, graph_and_roots, small_relation):
        graph, root_r, _ = graph_and_roots
        result = psi_crack(small_relation, ["a"])
        graph.record(result.op, result.params, [root_r], result.pieces)
        assert graph.verify_lossless(root_r)

    def test_wedge_lossless_for_both_operands(
        self, graph_and_roots, small_relation, partner_relation
    ):
        graph, root_r, root_s = graph_and_roots
        result = wedge_crack(small_relation, partner_relation, "k", "k")
        graph.record(result.op, result.params, [root_r, root_s], result.pieces)
        assert graph.verify_lossless(root_r)
        assert graph.verify_lossless(root_s)

    def test_omega_lossless(self, graph_and_roots, partner_relation):
        graph, _, root_s = graph_and_roots
        import numpy as np

        schema = Schema([Column("g", "int")])
        small = Relation.from_columns("G", schema, {"g": [1, 2, 1, 3]})
        root = graph.add_base(small)
        result = omega_crack(small, "g")
        graph.record(result.op, result.params, [root], result.pieces)
        assert graph.verify_lossless(root)

    def test_nested_cracks_reconstruct(self, graph_and_roots, small_relation):
        graph, root_r, _ = graph_and_roots
        first = xi_crack_theta(small_relation, "a", "<", 500)
        nodes = graph.record(first.op, first.params, [root_r], first.pieces)
        second = psi_crack(nodes[0].relation, ["a"])
        graph.record(second.op, second.params, [nodes[0]], second.pieces)
        assert graph.verify_lossless(root_r)

class TestInverses:
    def test_union_requires_compatible_schemas(self, small_relation, partner_relation):
        with pytest.raises(CrackError):
            union_pieces("u", [small_relation, partner_relation])

    def test_union_of_zero_pieces_raises(self):
        with pytest.raises(CrackError):
            union_pieces("u", [])

    def test_psi_inverse_requires_oid(self, small_relation, partner_relation):
        with pytest.raises(CrackError):
            psi_inverse("j", small_relation, partner_relation)

    def test_psi_inverse_roundtrip(self, mixed_relation):
        result = psi_crack(mixed_relation, ["name"])
        rebuilt = psi_inverse("back", result.pieces[0], result.pieces[1])
        assert set(rebuilt.schema.names()) == set(mixed_relation.schema.names())
        assert len(rebuilt) == len(mixed_relation)
