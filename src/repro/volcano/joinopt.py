"""Join-order optimizer with a bounded search budget.

Figure 9 of the paper tests k-way linear joins and finds that traditional
optimizers "(too) quickly reach [their] limitations and fall back to a
default solution.  The effect is an expensive nested-loop join or even
breaking the system by running out of optimizer resource space."

This module reproduces that behaviour honestly: a dynamic-programming
enumerator over left-deep join trees with a configurable budget of plan
states.  Within budget it emits hash-join plans; past the budget it raises
:class:`OptimizerBudgetExceeded`, and the row-store engine falls back to
the default left-deep *nested-loop* plan — the collapse in the figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError


class OptimizerBudgetExceeded(PlanError):
    """The DP enumeration exceeded the optimizer's resource budget."""


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join predicate between two relations in the chain.

    Attributes:
        left_rel / right_rel: indexes into the relation list.
        left_col / right_col: qualified column names for the join keys.
    """

    left_rel: int
    right_rel: int
    left_col: str
    right_col: str

    def keys_toward(self, relation: int) -> tuple[str, str]:
        """(joined side, ``relation``'s side) of the join keys, when
        ``relation`` joins a set by this edge."""
        if self.right_rel == relation:
            return self.left_col, self.right_col
        return self.right_col, self.left_col


@dataclass
class JoinGraph:
    """Relations (with cardinalities) plus equi-join edges."""

    cardinalities: list[int]
    edges: list[JoinEdge] = field(default_factory=list)

    @property
    def n_relations(self) -> int:
        return len(self.cardinalities)


@dataclass
class JoinStep:
    """One step of a linear join plan: join ``relation`` via ``edge``."""

    relation: int
    edge: JoinEdge | None
    method: str  # 'hash' or 'nested_loop'


@dataclass
class JoinPlan:
    """An ordered sequence of join steps with its estimated cost."""

    steps: list[JoinStep]
    estimated_cost: float
    plans_considered: int


def _hash_cost(left_card: float, right_card: float) -> float:
    return left_card + right_card


def _output_estimate(left_card: float, right_card: float, selectivity: float) -> float:
    return max(1.0, left_card * right_card * selectivity)


def optimize_join_order(
    graph: JoinGraph,
    budget: int = 10_000,
    join_selectivity: float | None = None,
) -> JoinPlan:
    """Search left-deep join orders by dynamic programming.

    Each joined set is extended only by its neighbours (Moerkotte &
    Neumann, VLDB'06): every state carries its frontier, so no state
    scans relations or edges that cannot join it.  Candidates are tried
    in ascending order, each by its first edge in ``graph.edges`` order.

    Args:
        graph: relations and join edges.
        budget: maximum number of DP states considered before the
            optimizer gives up (the "resource space" of the paper).
        join_selectivity: per-join output selectivity estimate; defaults
            to ``1 / max(cardinality)`` (key-foreign-key heuristic).

    Returns:
        the cheapest left-deep hash-join plan found.

    Raises:
        OptimizerBudgetExceeded: when the DP would need more than
            ``budget`` states — callers fall back to a default plan.
    """
    n = graph.n_relations
    if n == 0:
        raise PlanError("cannot optimize a join over zero relations")
    if join_selectivity is None:
        join_selectivity = 1.0 / max(max(graph.cardinalities), 1)
    cards = graph.cardinalities
    incident = _incident_edges(graph)
    # One DP layer: joined set (a bitmask) -> (cost, rows, steps, frontier).
    layer = {}
    for start in range(n):
        scan = JoinStep(relation=start, edge=None, method="scan")
        frontier = _grow({}, 1 << start, start, incident)
        layer[1 << start] = (0.0, float(cards[start]), [scan], frontier)
    considered = n
    for size in range(2, n + 1):
        next_layer: dict[int, tuple] = {}
        for joined, (cost, card, steps, frontier) in layer.items():
            for candidate in sorted(frontier):
                considered += 1
                if considered > budget:
                    raise OptimizerBudgetExceeded(
                        f"join optimizer exceeded its budget of {budget} states "
                        f"at {size}-relation subsets"
                    )
                total = cost + _hash_cost(card, cards[candidate])
                key = joined | 1 << candidate
                if key not in next_layer or next_layer[key][0] > total:
                    edge = graph.edges[frontier[candidate]]
                    step = JoinStep(relation=candidate, edge=edge, method="hash")
                    rows = _output_estimate(card, cards[candidate], join_selectivity)
                    grown = _grow(frontier, key, candidate, incident)
                    next_layer[key] = (total, rows, steps + [step], grown)
        layer = next_layer
    full = layer.get((1 << n) - 1)
    if full is None:
        raise PlanError("join graph is disconnected; no complete plan exists")
    cost, _, steps, _ = full
    return JoinPlan(steps=steps, estimated_cost=cost, plans_considered=considered)


def default_plan(graph: JoinGraph) -> JoinPlan:
    """The optimizer's fallback: nested loops in a connected input order.

    Each step joins the lowest-index relation adjacent to the joined set,
    by its first edge, so a connected input order is kept as it is.
    Raises :class:`PlanError` when the join graph is disconnected.
    """
    incident = _incident_edges(graph)
    steps = [JoinStep(relation=0, edge=None, method="scan")]
    joined, frontier = 1, _grow({}, 1, 0, incident)
    while frontier:
        candidate = min(frontier)
        joined |= 1 << candidate
        edge = graph.edges[frontier[candidate]]
        steps.append(JoinStep(relation=candidate, edge=edge, method="nested_loop"))
        frontier = _grow(frontier, joined, candidate, incident)
    if len(steps) < graph.n_relations:
        raise PlanError("cross products are not supported: the join graph is disconnected")
    return JoinPlan(steps=steps, estimated_cost=float("inf"), plans_considered=0)


def _incident_edges(graph: JoinGraph) -> list[list[tuple[int, int]]]:
    """Per relation, its (neighbour, edge index) pairs in edge order; a
    self-loop never extends a joined set and is left out."""
    incident = [[] for _ in range(graph.n_relations)]
    for index, edge in enumerate(graph.edges):
        if edge.left_rel != edge.right_rel:
            incident[edge.left_rel].append((edge.right_rel, index))
            incident[edge.right_rel].append((edge.left_rel, index))
    return incident


def _grow(frontier: dict, joined: int, relation: int, incident: list) -> dict:
    """The frontier of ``joined`` (a bitmask) once ``relation`` is in it:
    each adjacent relation mapped to its first edge into the set."""
    grown = dict(frontier)
    grown.pop(relation, None)
    for other, index in incident[relation]:
        if not joined >> other & 1 and index < grown.get(other, index + 1):
            grown[other] = index
    return grown


def linear_chain_graph(cardinalities: list[int], key_cols: list[tuple[str, str]]) -> JoinGraph:
    """Build the Figure 9 topology: R1 ⋈ R2 ⋈ ... ⋈ Rk along a chain.

    ``key_cols[i]`` gives the (left, right) qualified join columns for the
    edge between relation i and i+1.
    """
    if len(key_cols) != len(cardinalities) - 1:
        raise PlanError(
            f"need {len(cardinalities) - 1} edges for {len(cardinalities)} "
            f"relations, got {len(key_cols)}"
        )
    edges = [
        JoinEdge(left_rel=i, right_rel=i + 1, left_col=left, right_col=right)
        for i, (left, right) in enumerate(key_cols)
    ]
    return JoinGraph(cardinalities=list(cardinalities), edges=edges)
