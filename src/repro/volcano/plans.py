"""Physical plan assembly: from join plans and predicates to operators.

Bridges :mod:`repro.volcano.joinopt` decisions and
:mod:`repro.volcano.operators` trees, so engines and the SQL planner share
one plan-construction path.
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.storage.table import Relation
from repro.volcano.joinopt import JoinGraph, JoinPlan, default_plan, optimize_join_order
from repro.volcano.operators import HashJoin, NestedLoopJoin, Operator, Scan


def build_join_tree(
    plan: JoinPlan, relations: list[Relation], aliases: list[str] | None = None
) -> Operator:
    """Materialise a :class:`JoinPlan` into an operator tree.

    The first step scans its relation; every later step joins the running
    left-deep tree with a scan of the next relation using the method the
    optimizer chose ('hash') or the fallback ('nested_loop').
    """
    if not plan.steps:
        raise PlanError("empty join plan")
    if aliases is None:
        aliases = [relation.name for relation in relations]
    first = plan.steps[0]
    tree: Operator = Scan(relations[first.relation], alias=aliases[first.relation])
    for step in plan.steps[1:]:
        right = Scan(relations[step.relation], alias=aliases[step.relation])
        if step.edge is None:
            raise PlanError(f"join step for relation {step.relation} lacks an edge")
        # The edge's columns are qualified with aliases; figure out which
        # side belongs to the running tree.
        if step.edge.right_rel == step.relation:
            left_col, right_col = step.edge.left_col, step.edge.right_col
        else:
            left_col, right_col = step.edge.right_col, step.edge.left_col
        if step.method == "hash":
            tree = HashJoin(tree, right, left_col, right_col)
        elif step.method == "nested_loop":
            tree = NestedLoopJoin(tree, right, left_col, right_col)
        else:
            raise PlanError(f"unknown join method {step.method!r}")
    return tree


def plan_join_chain(
    relations: list[Relation],
    key_pairs: list[tuple[str, str]],
    aliases: list[str] | None = None,
    budget: int = 10_000,
) -> tuple[Operator, bool]:
    """Optimize and build a linear join chain.

    Returns:
        (operator tree, used_fallback): ``used_fallback`` is True when the
        optimizer budget was exhausted and the nested-loop default plan
        was used instead (Figure 9's collapse).
    """
    graph = JoinGraph(
        cardinalities=[len(relation) for relation in relations],
    )
    from repro.volcano.joinopt import JoinEdge  # local import for clarity

    graph.edges = [
        JoinEdge(left_rel=i, right_rel=i + 1, left_col=left, right_col=right)
        for i, (left, right) in enumerate(key_pairs)
    ]
    try:
        plan = optimize_join_order(graph, budget=budget)
        used_fallback = False
    except Exception:
        plan = default_plan(graph)
        used_fallback = True
    return build_join_tree(plan, relations, aliases), used_fallback
