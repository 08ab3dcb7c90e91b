"""Physical planner: from analyzed queries to executable operator trees.

The cracker stage sits exactly where §3 puts it — between the semantic
analyzer and the (traditional) optimizer: when a cracking provider is
configured, a range selection is answered by the cracked column, whose
``SelectionResult`` — a copy of its span — is the first batch of the
:mod:`repro.volcano.vectorized` tree; the remaining plan (joins,
grouping, projection) is built conventionally, every operator an array
kernel.  The paper's tuple-at-a-time baseline is
:class:`~repro.engines.rowstore.RowStoreEngine`, which drives
:mod:`repro.volcano.operators` directly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro import governor
from repro.core.cracked_column import DEFAULT_CRACK_THRESHOLD, CrackedColumn
from repro.obs import introspect as obs_introspect
from repro.obs import trace as obs_trace
from repro.errors import PlanError
from repro.sql.analyzer import AnalyzedQuery, RangePredicate
from repro.storage.catalog import Catalog
from repro.storage.table import Relation
from repro.volcano.joinopt import (
    JoinEdge,
    JoinGraph,
    OptimizerBudgetExceeded,
    default_plan,
    optimize_join_order,
)
from repro.volcano.operators import Operator
from repro.volcano.vectorized import (
    VecAggregate,
    VecCrackedScan,
    VecHashJoin,
    VecLimit,
    VecMaterialize,
    VecOperator,
    VecProject,
    VecScan,
    VecSelect,
    VecSort,
)

class CrackedCountScan(Operator):
    """Degenerate plan: COUNT(*) answered from the cracker's span bounds.

    §3.2's cracker index keeps each piece's size and location, so a
    fully-cracked range predicate yields its cardinality as a positional
    subtraction — no scan, no aggregate operator, no batch pipeline.
    The planner emits this whenever a single-table COUNT(*) query's only
    predicate was answered by the cracker; it is the sustained-phase fast
    path of the ledger's ``point_count`` workload.
    """

    columns = ["count(*)"]

    def __init__(self, count: int) -> None:
        self._count = int(count)

    def __iter__(self) -> Iterator[tuple]:
        yield (self._count,)


def _cracked_count_plan(
    query: AnalyzedQuery, catalog: Catalog, cracker: "CrackerProvider | None"
) -> CrackedCountScan | None:
    """The COUNT(*) pushdown, when the whole query is one cracked range."""
    if len(query.tables) != 1 or len(query.selections) != 1:
        return None
    if (
        query.aggregates != [("count", None)]
        or query.group_by
        or query.joins
        or query.residuals
        or query.order_by
        or query.projections
        or query.into is not None
        or query.limit is not None
    ):
        return None
    relation = catalog.table(query.tables[0].name)
    predicate = _pick_crackable(query.selections, relation, cracker)
    if predicate is None:
        return None
    governor.check()
    count = cracker.range_select(
        relation,
        predicate.attr,
        predicate.low,
        predicate.high,
        low_inclusive=predicate.low_inclusive,
        high_inclusive=predicate.high_inclusive,
        count=True,
    )
    return CrackedCountScan(count)


class CrackerProvider:
    """Per-database registry of cracked columns, keyed by (table, attr).

    All crack/merge/append traffic goes through :meth:`range_select` and
    the ``propagate_*`` methods.  The provider takes no lock: its
    :class:`~repro.sql.session.Database` calls it only under the
    statement lock, one statement at a time, so a range query — which
    physically reorganises the cracker column — never meets another
    query or an introspection read of the same column.

    Args:
        crack_threshold: sort-below-T cut-off of every cracked column,
            including ones restored from a checkpoint: pieces of at most
            T tuples are sorted once and binary-searched, never cracked
            (0 = always crack; see
            :class:`~repro.core.cracked_column.CrackedColumn`).
        profile: attach a
            :class:`~repro.obs.introspect.ColumnIntrospection` to every
            cracked column at registration, recording crack lineage and
            profiling each range predicate against the cost model.
    """

    def __init__(
        self,
        crack_threshold: int = DEFAULT_CRACK_THRESHOLD,
        profile: bool = False,
    ) -> None:
        if crack_threshold < 0:
            raise PlanError(
                f"crack_threshold must be >= 0, got {crack_threshold}"
            )
        self.crack_threshold = crack_threshold
        self.profile = profile
        self._columns: dict[tuple[str, str], CrackedColumn] = {}
        self._introspections: dict[
            tuple[str, str], obs_introspect.ColumnIntrospection
        ] = {}

    def _attach_introspection(self, key: tuple[str, str], column) -> None:
        """Build and attach one introspection object."""
        table, attr = key
        introspection = obs_introspect.ColumnIntrospection(
            f"{table}.{attr}", *obs_introspect.value_domain(column)
        )
        column.introspect = introspection
        self._introspections[key] = introspection

    def column_for(self, relation: Relation, attr: str) -> CrackedColumn:
        key = (relation.name, attr)
        column = self._columns.get(key)
        if column is not None:
            return column
        # First touch copies the base BAT into the cracker column.
        bat = relation.column(attr)
        if relation.deleted_count:
            # Tombstone-aware first touch: copy only the live rows, keyed
            # by their storage positions, so the cracker never
            # administers dead tuples (and an abort-triggered rebuild
            # starts clean).
            live = relation.live_positions(len(bat))
            column = CrackedColumn.from_arrays(
                bat.tail_array()[live],
                oids=live,
                crack_threshold=self.crack_threshold,
            )
        else:
            column = CrackedColumn(bat, crack_threshold=self.crack_threshold)
        self._columns[key] = column
        if self.profile:
            self._attach_introspection(key, column)
        return column

    def range_select(
        self,
        relation: Relation,
        attr: str,
        low,
        high,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
        count: bool = False,
    ):
        """Crack ``relation.attr`` for a range.

        Cracking mutates storage and merges the pending update area; the
        answer is a copy of its span, so no later crack can shuffle it
        under the caller.  With ``count`` the answer is the number of
        qualifying rows
        (:meth:`~repro.core.cracked_column.CrackedColumn.count_range`,
        which merges nothing).

        Under an active trace the whole call is wrapped in a ``crack``
        span whose meta records the column, the piece count after the
        query and the cracks and cut-off sorts this query performed;
        with tracing off the cost is one ContextVar read.
        """
        column = self.column_for(relation, attr)
        if not obs_trace.tracing():
            return self._select(
                column, low, high, low_inclusive, high_inclusive, count
            )
        with obs_trace.span("crack") as crack_span:
            crack_span.meta["column"] = f"{relation.name}.{attr}"
            stats = column.crack_stats
            cracks_before, sorts_before = stats.cracks, stats.sorts
            result = self._select(
                column, low, high, low_inclusive, high_inclusive, count
            )
            crack_span.meta["cracks"] = stats.cracks - cracks_before
            crack_span.meta["sorts"] = stats.sorts - sorts_before
            crack_span.meta["pieces"] = column.piece_count
        return result

    @staticmethod
    def _select(
        column, low, high, low_inclusive: bool, high_inclusive: bool, count: bool,
    ):
        """The core of :meth:`range_select`: one select or count, with
        the profiler's record when one is attached."""
        introspect = column.introspect
        select = column.count_range if count else column.range_select
        if introspect is None:
            return select(
                low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
            )
        # CrackStats is mutated in place by the kernels, so one binding
        # suffices for before/after deltas.
        stats = column.crack_stats
        touched_before = stats.tuples_touched
        moved_before = stats.tuples_moved
        result = select(
            low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
        )
        introspect.record_query(
            low,
            high,
            result if count else result.count,
            stats.tuples_touched - touched_before,
            stats.tuples_moved - moved_before,
            len(column),
        )
        return result

    def attach_column(self, table: str, attr: str, column: CrackedColumn) -> None:
        """Register a pre-built cracked column (the warm-restart path).

        The persistence layer restores cracker state from a snapshot and
        re-attaches it here, so the first post-restore query finds its
        piece boundaries instead of re-paying the cracking burn-in.
        Refuses to replace a live column: that would silently discard
        pieces (and pending updates) the running store has accumulated.
        The column takes the cut-off given at open.
        """
        key = (table, attr)
        if key in self._columns:
            raise PlanError(
                f"cracker for {table}.{attr} already attached; "
                "warm restore must target a fresh database"
            )
        column.crack_threshold = self.crack_threshold
        self._columns[key] = column
        if self.profile:
            self._attach_introspection(key, column)

    def piece_count(self, table: str, attr: str) -> int:
        column = self._columns.get((table, attr))
        return 1 if column is None else column.piece_count

    def columns(self) -> dict[tuple[str, str], CrackedColumn]:
        """Snapshot of the registry (for monitoring and test validation)."""
        return dict(self._columns)

    def observability(self) -> dict[str, dict]:
        """Per-column crack/pending/piece-size accounting.

        Keys are ``table.attr``; values come from each column's
        :meth:`~repro.core.cracked_column.CrackedColumn.observability`.
        """
        return {
            f"{table}.{attr}": column.observability()
            for (table, attr), column in self._columns.items()
        }

    def check_invariants(self) -> None:
        """Validate every cracked column (cheap; used by tests/monitors)."""
        for column in self._columns.values():
            column.check_invariants()

    def propagate_insert(
        self, table: str, relation: Relation, first_oid: int, columns: list
    ) -> int:
        """Feed freshly inserted tuples, given column by column in
        schema order, to the table's crackers.

        The §7 "updates" extension: instead of dropping the cracker index
        on insert, the new values join the pending area of every cracked
        column of the table and are merged piece-wise on the next query.

        Returns:
            the number of cracked columns updated.
        """
        updated = 0
        names = relation.schema.names()
        oids = np.arange(first_oid, first_oid + len(columns[0]), dtype=np.int64)
        for (table_name, attr), column in self._columns.items():
            if table_name != table:
                continue
            column.append(columns[names.index(attr)], oids=oids)
            updated += 1
        return updated

    def propagate_delete(
        self, table: str, relation: Relation, positions: np.ndarray
    ) -> int:
        """Feed deleted storage positions to the table's crackers.

        Every cracker of the table buffers the oids (cracker oids *are*
        storage positions), keyed by each row's value in the base column
        (tombstoning leaves it there), and merges a removal out of its
        piece when a query first ranges over that value; an oid still
        sitting in a pending-insert buffer is purged eagerly.  Returns
        the number of crackers notified.
        """
        updated = 0
        positions = np.asarray(positions, dtype=np.int64)
        for (table_name, attr), column in self._columns.items():
            if table_name != table:
                continue
            column.delete(positions, relation.column(attr).tail_array()[positions])
            updated += 1
        return updated

    def propagate_update(
        self, table: str, positions: np.ndarray, assignments: dict,
        old_values: dict,
    ) -> int:
        """Feed in-place value rewrites to the crackers of assigned columns.

        ``assignments`` maps each assigned attribute to the rows' new
        values, aligned with ``positions`` (the arrays the base columns
        were written with).  Only crackers over those attributes are
        touched — an update leaves every other column's values (and all
        oids) unchanged, so those cracker indexes stay exactly valid.
        ``old_values`` maps each assigned attribute to the rows' values
        before the rewrite: a cracker finds a row by that value.
        Returns the number of crackers updated.
        """
        updated = 0
        positions = np.asarray(positions, dtype=np.int64)
        for (table_name, attr), column in self._columns.items():
            if table_name != table or attr not in assignments:
                continue
            column.update(positions, assignments[attr], old_values[attr])
            updated += 1
        return updated

    def drop_table(self, table: str) -> None:
        """Forget all crackers of a dropped/replaced table."""
        for key in [key for key in self._columns if key[0] == table]:
            del self._columns[key]
            self._introspections.pop(key, None)

    def introspection_for(self, table: str, attr: str):
        """The column's introspection object, or None (profiler off /
        column never touched)."""
        return self._introspections.get((table, attr))

    def introspections(self) -> dict[tuple[str, str], object]:
        """Snapshot of every attached introspection object."""
        return dict(self._introspections)


def build_plan(
    query: AnalyzedQuery,
    catalog: Catalog,
    cracker: CrackerProvider | None = None,
    tracker=None,
) -> CrackedCountScan | VecOperator:
    """Assemble the physical plan for an analyzed query: the COUNT(*)
    pushdown when it applies, else the batch tree."""
    fast_count = _cracked_count_plan(query, catalog, cracker)
    if fast_count is not None:
        return fast_count
    needed = _needed_columns(query)
    base_ops: dict[str, VecOperator] = {}
    for ref in query.tables:
        governor.check()  # each crack leaves its column valid: stop here
        relation = catalog.table(ref.name)
        binding = ref.binding
        ranges = [p for p in query.selections if p.binding == binding]
        columns = None if needed is None else needed.get(binding, ())
        crackable = _pick_crackable(ranges, relation, cracker)
        if crackable is None:
            scan = VecScan(relation, alias=binding, needed=columns)
        else:
            result = cracker.range_select(
                relation,
                crackable.attr,
                crackable.low,
                crackable.high,
                low_inclusive=crackable.low_inclusive,
                high_inclusive=crackable.high_inclusive,
            )
            # The cracked answer is the pipeline's first batch.
            scan = VecCrackedScan(
                relation, crackable.attr, result, alias=binding, needed=columns,
            )
        # The binding's other ranges and its <> residuals: one filter
        # right above its scan, so no join sees a row they remove.
        base_ops[binding] = _filtered(scan, [
            ((f"{binding}.{predicate.attr}",), predicate.mask)
            for predicate in (*ranges, *query.residuals)
            if predicate is not crackable and predicate.binding == binding
        ])

    tree = _join_tree(query, base_ops, catalog)
    # ORDER BY: with aggregates the sort keys are group columns and must
    # apply to the γ output; otherwise sorting happens before projection
    # so non-projected columns remain orderable.  Reversed stacking of
    # stable sorts preserves multi-key significance order.
    if query.aggregates:
        tree = VecAggregate(tree, query.group_by, query.aggregates)
        for name, descending in reversed(query.order_by):
            tree = VecSort(tree, name, descending=descending)
    else:
        for name, descending in reversed(query.order_by):
            tree = VecSort(tree, name, descending=descending)
        if query.projections:
            tree = VecProject(tree, query.projections)
    if query.limit is not None:
        tree = VecLimit(tree, query.limit)
    if query.into is not None:
        tree = VecMaterialize(
            tree, query.into, tracker=tracker,
            col_types=_output_types(query, catalog, tree.columns),
        )
    return tree


def _output_types(
    query: AnalyzedQuery, catalog: Catalog, columns: list[str]
) -> list[str]:
    """The column types of a ``SELECT … INTO`` target, from the sources.

    Inferring them from the answer would type every column of an empty
    one ``int``.  An aggregate takes its argument's type, except that
    ``count`` is ``int`` and ``avg`` is ``float``.
    """
    types = {
        f"{ref.binding}.{column.name}": column.col_type
        for ref in query.tables
        for column in catalog.table(ref.name).schema
    }
    for fn, name in query.aggregates:
        key = f"{fn}({'*' if name is None else name})"
        types[key] = {"count": "int", "avg": "float"}.get(fn) or types[name]
    return [types[name] for name in columns]


def _needed_columns(query: AnalyzedQuery) -> dict[str, set[str]] | None:
    """Per binding, the attributes some operator above the scans reads.

    Late materialisation: a vector scan gathers (and, for varchar,
    decodes) only these — a sibling column nobody projects, filters,
    joins, groups, aggregates or orders on is never reconstructed.
    ``None`` means every column is delivered (``SELECT *``).  Every
    selection's attribute is listed, the cracked one included: its span
    is already in hand, and listing it keeps a scan from going empty.
    """
    if query.projections is None and not query.aggregates:
        return None
    names = list(query.projections or ())
    names += [column for _, column in query.aggregates if column is not None]
    names += query.group_by
    names += [name for name, _ in query.order_by]
    pairs = [tuple(name.split(".", 1)) for name in names]
    pairs += [(p.binding, p.attr) for p in (*query.selections, *query.residuals)]
    for join in query.joins:
        pairs.append((join.left_binding, join.left_attr))
        pairs.append((join.right_binding, join.right_attr))
    needed: dict[str, set[str]] = {}
    for binding, attr in pairs:
        needed.setdefault(binding, set()).add(attr)
    return needed


def _filtered(child: VecOperator, conjunction: list) -> VecOperator:
    """``child`` under one :class:`VecSelect` of ``conjunction``, if any."""
    return VecSelect(child, conjunction) if conjunction else child


def _pick_crackable(
    predicates: list[RangePredicate],
    relation: Relation,
    cracker: CrackerProvider | None,
) -> RangePredicate | None:
    """Choose the selection to answer via cracking (first numeric range)."""
    if cracker is None:
        return None
    for predicate in predicates:
        if predicate.low is None and predicate.high is None:
            continue
        if relation.column(predicate.attr).tail_type == "str":
            continue
        return predicate
    return None


def _join_tree(
    query: AnalyzedQuery,
    base_ops: dict[str, VecOperator],
    catalog: Catalog,
) -> VecOperator:
    bindings = [ref.binding for ref in query.tables]
    if len(bindings) == 1:
        return base_ops[bindings[0]]
    index_of = {binding: i for i, binding in enumerate(bindings)}
    edges = [
        JoinEdge(
            left_rel=index_of[join.left_binding],
            right_rel=index_of[join.right_binding],
            left_col=f"{join.left_binding}.{join.left_attr}",
            right_col=f"{join.right_binding}.{join.right_attr}",
        )
        for join in query.joins
    ]
    graph = JoinGraph([len(catalog.table(ref.name)) for ref in query.tables], edges)
    # Built first: it is also the check that rejects a cross product.
    fallback = default_plan(graph)
    try:
        plan = optimize_join_order(graph)
    except OptimizerBudgetExceeded:
        plan = fallback
    # An edge no step joins by is a two-column equality, applied right
    # above the step that first holds both of its relations.
    position = {step.relation: i for i, step in enumerate(plan.steps)}
    used = {id(step.edge) for step in plan.steps}
    closing: dict[int, list] = {}
    for edge in edges:
        if id(edge) not in used:
            at = max(position[edge.left_rel], position[edge.right_rel])
            closing.setdefault(at, []).append(
                ((edge.left_col, edge.right_col), np.equal)
            )
    tree = base_ops[bindings[plan.steps[0].relation]]
    for at, step in enumerate(plan.steps[1:], 1):
        right = base_ops[bindings[step.relation]]
        left_col, right_col = step.edge.keys_toward(step.relation)
        # Always the sort-merge kernel, whatever ``step.method`` says: the
        # nested-loop collapse of Figure 9 is a tuple-engine cost profile
        # (RowStoreEngine's) the batch discipline does not exhibit.
        tree = _filtered(
            VecHashJoin(tree, right, left_col, right_col), closing.get(at, [])
        )
    return tree
