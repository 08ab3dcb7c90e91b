"""Tests for the join-order optimizer and its budget fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.sql import Database
from repro.volcano import plans
from repro.volcano.joinopt import (
    JoinEdge,
    JoinGraph,
    JoinStep,
    OptimizerBudgetExceeded,
    _hash_cost,
    _output_estimate,
    default_plan,
    linear_chain_graph,
    optimize_join_order,
)


def chain(cardinalities):
    key_cols = [
        (f"t{i}.a", f"t{i + 1}.k") for i in range(len(cardinalities) - 1)
    ]
    return linear_chain_graph(cardinalities, key_cols)


class TestOptimize:
    def test_single_relation(self):
        plan = optimize_join_order(chain([100]))
        assert len(plan.steps) == 1
        assert plan.steps[0].method == "scan"

    def test_two_relations_hash_join(self):
        plan = optimize_join_order(chain([100, 200]))
        assert [step.method for step in plan.steps] == ["scan", "hash"]

    def test_all_relations_joined_once(self):
        plan = optimize_join_order(chain([10, 20, 30, 40]))
        relations = [step.relation for step in plan.steps]
        assert sorted(relations) == [0, 1, 2, 3]

    def test_cost_positive(self):
        plan = optimize_join_order(chain([10, 20, 30]))
        assert plan.estimated_cost > 0

    def test_budget_exceeded_raises(self):
        with pytest.raises(OptimizerBudgetExceeded):
            optimize_join_order(chain([10] * 40), budget=50)

    def test_large_budget_handles_long_chain(self):
        plan = optimize_join_order(chain([10] * 16), budget=100_000)
        assert len(plan.steps) == 16

    def test_disconnected_graph_raises(self):
        graph = JoinGraph(cardinalities=[10, 20, 30], edges=[
            JoinEdge(0, 1, "t0.a", "t1.k"),
        ])
        with pytest.raises(PlanError):
            optimize_join_order(graph)

    def test_zero_relations_raises(self):
        with pytest.raises(PlanError):
            optimize_join_order(JoinGraph(cardinalities=[]))

    def test_smaller_relations_join_earlier(self):
        # A star-free chain where one relation is tiny: the DP should
        # start from a cheap end, not the expensive middle.
        plan = optimize_join_order(chain([1_000_000, 10, 1_000_000]))
        assert plan.estimated_cost <= 3_000_020


class TestDefaultPlan:
    def test_default_plan_nested_loops(self):
        plan = default_plan(chain([10, 20, 30]))
        assert [step.method for step in plan.steps] == ["scan", "nested_loop", "nested_loop"]

    def test_default_plan_input_order(self):
        plan = default_plan(chain([10, 20, 30]))
        assert [step.relation for step in plan.steps] == [0, 1, 2]

    def test_default_plan_infinite_cost_marker(self):
        assert default_plan(chain([10, 20])).estimated_cost == float("inf")

    def test_default_plan_keeps_a_connected_order_past_a_gap(self):
        # A star with its hub listed last: input order is not connected,
        # so the hub joins second, then the leaves in order.
        edges = [JoinEdge(3, leaf, "t3.k", f"t{leaf}.k") for leaf in range(3)]
        plan = default_plan(JoinGraph(cardinalities=[10] * 4, edges=edges))
        assert [step.relation for step in plan.steps] == [0, 3, 1, 2]
        assert [step.edge for step in plan.steps[1:]] == [edges[0], edges[1], edges[2]]

    def test_default_plan_takes_the_first_parallel_edge(self):
        edges = [JoinEdge(0, 1, "t0.a", "t1.a"), JoinEdge(1, 0, "t1.k", "t0.k")]
        plan = default_plan(JoinGraph(cardinalities=[10, 10], edges=edges))
        assert plan.steps[1].edge is edges[0]

    def test_default_plan_rejects_a_disconnected_graph(self):
        graph = JoinGraph(cardinalities=[10, 20, 30], edges=[
            JoinEdge(0, 1, "t0.a", "t1.k"),
        ])
        with pytest.raises(PlanError, match="cross products are not supported"):
            default_plan(graph)


class TestPlanJoinChain:
    def test_fallback_only_past_the_budget(self, small_relation):
        _, used_fallback = plans.plan_join_chain(
            [small_relation] * 4, [("R.a", "R.k")] * 3, budget=5
        )
        assert used_fallback
        _, used_fallback = plans.plan_join_chain(
            [small_relation] * 4, [("R.a", "R.k")] * 3
        )
        assert not used_fallback

    def test_an_optimizer_error_is_not_a_fallback(self, monkeypatch, small_relation):
        def broken(graph, budget):
            raise ValueError("optimizer bug")

        monkeypatch.setattr(plans, "optimize_join_order", broken)
        with pytest.raises(ValueError, match="optimizer bug"):
            plans.plan_join_chain([small_relation] * 2, [("R.a", "R.k")])


class TestLinearChainGraph:
    def test_edges_connect_neighbours(self):
        graph = chain([1, 2, 3])
        assert len(graph.edges) == 2
        assert graph.edges[0].left_rel == 0
        assert graph.edges[0].right_rel == 1

    def test_wrong_edge_count_raises(self):
        with pytest.raises(PlanError):
            linear_chain_graph([1, 2, 3], [("a", "b")])


# ---------------------------------------------------------------------- #
# The neighbour-only search against the exhaustive one it replaced
# ---------------------------------------------------------------------- #


def _reference_optimize(graph, budget=10_000, join_selectivity=None):
    """The enumerator before neighbour-only search: every relation is
    tried for every DP state, and every edge is scanned for each try."""

    def edges_between(joined, candidate):
        found = []
        for edge in graph.edges:
            if edge.left_rel in joined and edge.right_rel == candidate:
                found.append(edge)
            elif edge.right_rel in joined and edge.left_rel == candidate:
                found.append(edge)
        return found

    n = graph.n_relations
    if n == 0:
        raise PlanError("cannot optimize a join over zero relations")
    if join_selectivity is None:
        join_selectivity = 1.0 / max(max(graph.cardinalities), 1)
    considered = 0
    best = {}
    for start in range(n):
        best[frozenset([start])] = (
            0.0,
            float(graph.cardinalities[start]),
            [JoinStep(relation=start, edge=None, method="scan")],
        )
        considered += 1
    for size in range(2, n + 1):
        layer = {}
        for joined, (cost, card, steps) in best.items():
            if len(joined) != size - 1:
                continue
            for candidate in range(n):
                if candidate in joined:
                    continue
                edges = edges_between(joined, candidate)
                if not edges:
                    continue
                considered += 1
                if considered > budget:
                    raise OptimizerBudgetExceeded(
                        f"join optimizer exceeded its budget of {budget} states "
                        f"at {size}-relation subsets"
                    )
                edge = edges[0]
                step_cost = _hash_cost(card, graph.cardinalities[candidate])
                out_card = _output_estimate(
                    card, graph.cardinalities[candidate], join_selectivity
                )
                key = joined | {candidate}
                total = cost + step_cost
                if key not in layer or layer[key][0] > total:
                    layer[key] = (
                        total,
                        out_card,
                        steps + [JoinStep(relation=candidate, edge=edge, method="hash")],
                    )
        best.update(layer)
    full = frozenset(range(n))
    if full not in best:
        raise PlanError("join graph is disconnected; no complete plan exists")
    cost, _, steps = best[full]
    return steps, cost, considered


def _outcome(search, graph, budget):
    try:
        return search(graph, budget)
    except PlanError as exc:
        return type(exc), str(exc)


@st.composite
def join_graphs(draw):
    """1–9 relations; edges may be parallel, reversed or self-loops."""
    n = draw(st.integers(1, 9))
    cardinalities = draw(st.lists(st.integers(0, 2_000), min_size=n, max_size=n))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n + 2
    ))
    edges = [
        JoinEdge(left, right, f"t{left}.c{i}", f"t{right}.c{i}")
        for i, (left, right) in enumerate(pairs)
    ]
    return JoinGraph(cardinalities=cardinalities, edges=edges)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(graph=join_graphs(), budget=st.sampled_from([5, 50, 10_000]))
def test_neighbour_search_matches_the_exhaustive_one(graph, budget):
    def neighbour_search(graph, budget):
        plan = optimize_join_order(graph, budget=budget)
        return plan.steps, plan.estimated_cost, plan.plans_considered

    assert _outcome(neighbour_search, graph, budget) == _outcome(
        _reference_optimize, graph, budget
    )


def test_a_128_way_chain_statement_counts_every_walk():
    """Past the budget the SQL planner joins in FROM order; the count is
    the number of rows whose 127-step walk a -> k stays in the table."""
    rng = np.random.default_rng(9)
    n_rows, length = 400, 128
    k = rng.permutation(n_rows)
    a = rng.integers(0, n_rows + 2, n_rows)
    db = Database(cracking=False)
    db.execute("CREATE TABLE R (k integer, a integer)")
    db.execute("INSERT INTO R VALUES " + ", ".join(
        f"({int(x)}, {int(y)})" for x, y in zip(k, a)
    ))
    walks = np.ones(n_rows)
    for _ in range(length - 1):
        walks = np.bincount(a, weights=walks, minlength=n_rows + 2)[k]
    aliases = ", ".join(f"R r{i}" for i in range(length))
    joins = " AND ".join(f"r{i}.a = r{i + 1}.k" for i in range(length - 1))
    count = db.execute(f"SELECT count(*) FROM {aliases} WHERE {joins}").scalar()
    assert 0 < count == int(walks.sum()) < n_rows
