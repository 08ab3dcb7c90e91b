"""Physical planner: from analyzed queries to executable operator trees.

The cracker stage sits exactly where §3 puts it — between the semantic
analyzer and the (traditional) optimizer: when a cracking provider is
configured, range selections are answered by the cracked column and the
base scan is replaced by a positional scan of the qualifying tuples; the
remaining plan (joins, grouping, projection) is built conventionally.

Two execution modes share one planning pass (``mode`` argument):

* ``"tuple"`` — the Volcano tuple-at-a-time tree of
  :mod:`repro.volcano.operators`, the traditional-engine cost profile;
* ``"vector"`` — the batch tree of :mod:`repro.volcano.vectorized`, where
  a cracked range selection enters the pipeline as a zero-copy
  ``SelectionResult`` span and every downstream operator is an array
  kernel.
"""

from __future__ import annotations

import threading
from typing import Iterator

import numpy as np

from repro.core.cracked_column import DEFAULT_CRACK_THRESHOLD, CrackedColumn
from repro.core.rwlock import ReadWriteLock
from repro.obs import introspect as obs_introspect
from repro.obs import trace as obs_trace
from repro.errors import PlanError
from repro.sql.analyzer import AnalyzedQuery, JoinPredicate, RangePredicate
from repro.storage.catalog import Catalog
from repro.storage.table import Relation
from repro.volcano.joinopt import (
    JoinEdge,
    JoinGraph,
    default_plan,
    optimize_join_order,
)
from repro.volcano.operators import (
    Aggregate,
    HashJoin,
    Limit,
    Materialize,
    NestedLoopJoin,
    Operator,
    Project,
    Scan,
    Select,
    Sort,
)
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

#: Execution modes build_plan understands.
PLAN_MODES = ("tuple", "vector")


class CrackedCountScan(Operator):
    """Degenerate plan: COUNT(*) answered from the cracker's span bounds.

    §3.2's cracker index keeps each piece's size and location, so a
    fully-cracked range predicate yields its cardinality as a positional
    subtraction — no scan, no aggregate operator, no batch pipeline.
    The planner emits this whenever a single-table COUNT(*) query's only
    predicate was answered by the cracker; it is the sustained-phase fast
    path of the hot-path benchmark.
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
    if cracker is None or len(query.tables) != 1:
        return None
    if query.aggregates != [("count", None)] or len(query.selections) != 1:
        return None
    if (
        query.group_by
        or query.joins
        or query.residuals
        or query.order_by
        or query.projections
        or query.into is not None
        or query.limit is not None
    ):
        return None
    predicate = query.selections[0]
    if predicate.low is None and predicate.high is None:
        return None
    relation = catalog.table(query.tables[0].name)
    if relation.column(predicate.attr).tail_type == "str":
        return None
    result = cracker.range_select(
        relation,
        predicate.attr,
        predicate.low,
        predicate.high,
        low_inclusive=predicate.low_inclusive,
        high_inclusive=predicate.high_inclusive,
    )
    return CrackedCountScan(result.count)


class PositionalScan(Operator):
    """Scan a relation at explicit storage positions (cracked answers)."""

    def __init__(self, relation: Relation, positions: np.ndarray, alias: str) -> None:
        self.relation = relation
        self.positions = np.asarray(positions, dtype=np.int64)
        self.columns = [f"{alias}.{name}" for name in relation.schema.names()]

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.relation.rows_at(self.positions))


class CrackerProvider:
    """Per-database registry of cracked columns, keyed by (table, attr).

    The registry is the concurrency boundary of the SQL layer: every
    cracked column gets a :class:`ReadWriteLock`, and all crack/merge/
    append traffic goes through :meth:`range_select`/:meth:`propagate_insert`
    which take the *write* side — a range query physically reorganises
    the cracker column, so in cracking terms reads are writes.  The read
    side serves introspection (:meth:`piece_count`) that may observe a
    column while queries reorganise it.

    Args:
        snapshot_results: snapshot selection answers before releasing
            the column lock.  Required when multiple threads share the
            database: a later crack shuffles the storage a zero-copy
            answer is a view of.  Snapshots are copy-on-demand (the
            column retires its storage generation before the next crack
            only while a snapshot is still referenced), so sustained
            converged workloads stay zero-copy even with this on.
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
        snapshot_results: bool = False,
        crack_threshold: int = DEFAULT_CRACK_THRESHOLD,
        profile: bool = False,
    ) -> None:
        if crack_threshold < 0:
            raise PlanError(
                f"crack_threshold must be >= 0, got {crack_threshold}"
            )
        self.snapshot_results = snapshot_results
        self.crack_threshold = crack_threshold
        self.profile = profile
        self._columns: dict[tuple[str, str], CrackedColumn] = {}
        self._locks: dict[tuple[str, str], ReadWriteLock] = {}
        self._introspections: dict[
            tuple[str, str], obs_introspect.ColumnIntrospection
        ] = {}
        self._registry_lock = threading.Lock()

    def _attach_introspection(self, key: tuple[str, str], column) -> None:
        """Build and attach one introspection object (registry lock held)."""
        table, attr = key
        introspection = obs_introspect.ColumnIntrospection(
            f"{table}.{attr}", *obs_introspect.value_domain(column)
        )
        column.introspect = introspection
        self._introspections[key] = introspection

    def column_for(self, relation: Relation, attr: str) -> CrackedColumn:
        key = (relation.name, attr)
        with self._registry_lock:
            column = self._columns.get(key)
        if column is not None:
            return column
        # First touch copies the base BAT into the cracker column.  The
        # copy must not interleave with an insert+propagate pair on the
        # same table, or rows already in the snapshot would be appended
        # again as pending updates (duplicate oids).  The relation write
        # lock is taken *before* the registry lock everywhere, so lock
        # ordering stays relation -> registry -> column.
        with relation.write_lock:
            with self._registry_lock:
                column = self._columns.get(key)
                if column is None:
                    bat = relation.column(attr)
                    if relation.deleted_count:
                        # Tombstone-aware first touch: copy only the live
                        # rows, keyed by their storage positions, so the
                        # cracker never administers dead tuples (and an
                        # abort-triggered rebuild starts clean).
                        live = relation.live_positions(len(bat))
                        column = CrackedColumn.from_arrays(
                            bat.tail_array()[live],
                            oids=live,
                            crack_threshold=self.crack_threshold,
                        )
                    else:
                        column = CrackedColumn(
                            bat, crack_threshold=self.crack_threshold
                        )
                    self._columns[key] = column
                    self._locks[key] = ReadWriteLock()
                    if self.profile:
                        self._attach_introspection(key, column)
        return column

    def lock_for(self, table: str, attr: str) -> ReadWriteLock:
        """The reader–writer lock guarding ``table.attr``'s cracker."""
        key = (table, attr)
        with self._registry_lock:
            lock = self._locks.get(key)
            if lock is None:
                lock = ReadWriteLock()
                self._locks[key] = lock
        return lock

    def range_select(
        self,
        relation: Relation,
        attr: str,
        low,
        high,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ):
        """Crack ``relation.attr`` for a range, under the column's lock.

        Takes the column's write side (cracking mutates storage and
        merges the pending update area) and, with ``snapshot_results``,
        copies the answer before the lock is released so no later crack
        can shuffle it away under the caller.

        Under an active trace the whole call is wrapped in a ``crack``
        span whose meta records the column, the piece count after the
        query and the cracks and cut-off sorts this query performed;
        with tracing off the cost is one ContextVar read.
        """
        column = self.column_for(relation, attr)
        if not obs_trace.tracing():
            return self._locked_select(
                column, relation.name, attr, low, high,
                low_inclusive, high_inclusive,
            )
        with obs_trace.span("crack") as crack_span:
            crack_span.meta["column"] = f"{relation.name}.{attr}"
            stats = column.crack_stats
            cracks_before, sorts_before = stats.cracks, stats.sorts
            result = self._locked_select(
                column, relation.name, attr, low, high,
                low_inclusive, high_inclusive,
            )
            # Read without the column lock: trace meta is advisory, an
            # exact-at-an-instant count is not worth re-serialising on.
            crack_span.meta["cracks"] = stats.cracks - cracks_before
            crack_span.meta["sorts"] = stats.sorts - sorts_before
            crack_span.meta["pieces"] = column.piece_count
        return result

    def _locked_select(
        self, column, table: str, attr: str, low, high,
        low_inclusive: bool, high_inclusive: bool,
    ):
        """The locking core of :meth:`range_select`."""
        introspect = column.introspect
        lock = self.lock_for(table, attr)
        # Direct acquire/release: the contextmanager-based write_locked()
        # costs a generator frame per query, measurable on the sustained
        # hot path.
        lock.acquire_write()
        try:
            if introspect is None:
                result = column.range_select(
                    low,
                    high,
                    low_inclusive=low_inclusive,
                    high_inclusive=high_inclusive,
                )
            else:
                # CrackStats is mutated in place by the kernels, so one
                # binding suffices for before/after deltas.
                stats = column.crack_stats
                touched_before = stats.tuples_touched
                moved_before = stats.tuples_moved
                result = column.range_select(
                    low,
                    high,
                    low_inclusive=low_inclusive,
                    high_inclusive=high_inclusive,
                )
                introspect.record_query(
                    low,
                    high,
                    result.count,
                    stats.tuples_touched - touched_before,
                    stats.tuples_moved - moved_before,
                    len(column),
                )
            if self.snapshot_results:
                result = result.snapshot()
        finally:
            lock.release_write()
        return result

    def attach_column(self, table: str, attr: str, column: CrackedColumn) -> None:
        """Register a pre-built cracked column (the warm-restart path).

        The persistence layer restores cracker state from a snapshot and
        re-attaches it here, so the first post-restore query finds its
        piece boundaries instead of re-paying the cracking burn-in.
        Refuses to replace a live column: that would silently discard
        pieces (and pending updates) the running store has accumulated.
        The cut-off given at open wins over the checkpointed one.
        """
        key = (table, attr)
        with self._registry_lock:
            if key in self._columns:
                raise PlanError(
                    f"cracker for {table}.{attr} already attached; "
                    "warm restore must target a fresh database"
                )
            column.crack_threshold = self.crack_threshold
            self._columns[key] = column
            self._locks.setdefault(key, ReadWriteLock())
            if self.profile:
                self._attach_introspection(key, column)

    def has_column(self, table: str, attr: str) -> bool:
        with self._registry_lock:
            return (table, attr) in self._columns

    def piece_count(self, table: str, attr: str) -> int:
        with self._registry_lock:
            column = self._columns.get((table, attr))
        if column is None:
            return 1
        with self.lock_for(table, attr).read_locked():
            return column.piece_count

    def columns(self) -> dict[tuple[str, str], CrackedColumn]:
        """Snapshot of the registry (for monitoring and test validation)."""
        with self._registry_lock:
            return dict(self._columns)

    def observability(self) -> dict[str, dict]:
        """Per-column crack/pending/piece-size accounting, read-locked.

        Keys are ``table.attr``; values come from each column's
        :meth:`~repro.core.cracked_column.CrackedColumn.observability`.
        Taken under each column's read lock, so a concurrent query may
        proceed on other columns while one is being read.
        """
        out: dict[str, dict] = {}
        for (table, attr), column in self.columns().items():
            with self.lock_for(table, attr).read_locked():
                out[f"{table}.{attr}"] = column.observability()
        return out

    def check_invariants(self) -> None:
        """Validate every cracked column (cheap; used by tests/monitors)."""
        for key, column in self.columns().items():
            with self.lock_for(*key).write_locked():
                column.check_invariants()

    def propagate_insert(
        self, table: str, relation: Relation, first_oid: int, rows: list[tuple]
    ) -> int:
        """Feed freshly inserted tuples to the table's crackers.

        The §7 "updates" extension: instead of dropping the cracker index
        on insert, the new values join the pending area of every cracked
        column of the table and are merged piece-wise on the next query.
        Each cracker's append happens under its write lock, so an
        interleaved query merges either all of these tuples or none.

        Returns:
            the number of cracked columns updated.
        """
        updated = 0
        names = relation.schema.names()
        oids = list(range(first_oid, first_oid + len(rows)))
        for (table_name, attr), column in self.columns().items():
            if table_name != table:
                continue
            index = names.index(attr)
            with self.lock_for(table_name, attr).write_locked():
                column.append([row[index] for row in rows], oids=oids)
            updated += 1
        return updated

    def propagate_delete(self, table: str, positions: np.ndarray) -> int:
        """Feed deleted storage positions to the table's crackers.

        Every cracker of the table buffers the oids (cracker oids *are*
        storage positions) and merges the removals out piece-wise on its
        next query; an oid still sitting in a pending-insert buffer is
        purged eagerly.  Returns the number of crackers notified.
        """
        updated = 0
        positions = np.asarray(positions, dtype=np.int64)
        for (table_name, attr), column in self.columns().items():
            if table_name != table:
                continue
            with self.lock_for(table_name, attr).write_locked():
                column.delete(positions)
            updated += 1
        return updated

    def propagate_update(
        self, table: str, positions: np.ndarray, assignments: dict
    ) -> int:
        """Feed in-place value rewrites to the crackers of assigned columns.

        Only crackers over attributes named in ``assignments`` are
        touched — an update leaves every other column's values (and all
        oids) unchanged, so those cracker indexes stay exactly valid.
        Returns the number of crackers updated.
        """
        updated = 0
        positions = np.asarray(positions, dtype=np.int64)
        for (table_name, attr), column in self.columns().items():
            if table_name != table or attr not in assignments:
                continue
            values = np.full(
                len(positions), assignments[attr], dtype=column.values.dtype
            )
            with self.lock_for(table_name, attr).write_locked():
                column.update(positions, values)
            updated += 1
        return updated

    def drop_table(self, table: str) -> None:
        """Forget all crackers of a dropped/replaced table."""
        with self._registry_lock:
            stale = [key for key in self._columns if key[0] == table]
            for key in stale:
                del self._columns[key]
                self._locks.pop(key, None)
                self._introspections.pop(key, None)

    def introspection_for(self, table: str, attr: str):
        """The column's introspection object, or None (profiler off /
        column never touched)."""
        with self._registry_lock:
            return self._introspections.get((table, attr))

    def introspections(self) -> dict[tuple[str, str], object]:
        """Snapshot of every attached introspection object."""
        with self._registry_lock:
            return dict(self._introspections)




def build_plan(
    query: AnalyzedQuery,
    catalog: Catalog,
    cracker: CrackerProvider | None = None,
    join_budget: int = 10_000,
    tracker=None,
    mode: str = "tuple",
) -> Operator | VecOperator:
    """Assemble the physical plan for an analyzed query.

    ``mode`` selects the executor: ``"tuple"`` builds the Volcano
    iterator tree, ``"vector"`` the batch tree.  Both trees are built
    from the same analyzed normal form and produce identical result sets.
    """
    if mode not in PLAN_MODES:
        raise PlanError(f"unknown execution mode {mode!r}; have {PLAN_MODES}")
    fast_count = _cracked_count_plan(query, catalog, cracker)
    if fast_count is not None:
        return fast_count
    vector = mode == "vector"
    needed = _needed_columns(query) if vector else None
    base_ops: dict[str, Operator | VecOperator] = {}
    remaining_selections: list[RangePredicate] = []
    selections_by_binding: dict[str, list[RangePredicate]] = {}
    for predicate in query.selections:
        selections_by_binding.setdefault(predicate.binding, []).append(predicate)

    for ref in query.tables:
        relation = catalog.table(ref.name)
        binding = ref.binding
        predicates = selections_by_binding.get(binding, [])
        columns = None if needed is None else needed.get(binding, ())
        crackable = _pick_crackable(predicates, relation, cracker)
        if crackable is not None and cracker is not None:
            result = cracker.range_select(
                relation,
                crackable.attr,
                crackable.low,
                crackable.high,
                low_inclusive=crackable.low_inclusive,
                high_inclusive=crackable.high_inclusive,
            )
            if vector:
                # The cracked span is the pipeline's first batch, zero-copy.
                base_ops[binding] = VecCrackedScan(
                    relation, crackable.attr, result, alias=binding,
                    needed=columns,
                )
            else:
                base_ops[binding] = PositionalScan(relation, result.oids, binding)
            remaining_selections.extend(p for p in predicates if p is not crackable)
        else:
            base_ops[binding] = (
                VecScan(relation, alias=binding, needed=columns)
                if vector
                else Scan(relation, alias=binding)
            )
            remaining_selections.extend(predicates)

    tree = _join_tree(query, base_ops, catalog, join_budget, vector)
    for predicate in remaining_selections:
        if vector:
            tree = VecSelect(
                tree,
                f"{predicate.binding}.{predicate.attr}",
                _vec_range_mask(predicate),
            )
        else:
            tree = Select(tree, _range_closure(tree, predicate))
    for residual in query.residuals:
        if vector:
            value = residual.value
            tree = VecSelect(
                tree,
                f"{residual.binding}.{residual.attr}",
                lambda values, v=value: values != v,
            )
        else:
            index = tree.column_index(f"{residual.binding}.{residual.attr}")
            value = residual.value
            tree = Select(tree, lambda row, i=index, v=value: row[i] != v)
    # ORDER BY: with aggregates the sort keys are group columns and must
    # apply to the γ output; otherwise sorting happens before projection
    # so non-projected columns remain orderable.  Reversed stacking of
    # stable sorts preserves multi-key significance order.
    aggregate_op = VecAggregate if vector else Aggregate
    sort_op = VecSort if vector else Sort
    if query.aggregates:
        tree = aggregate_op(tree, query.group_by, query.aggregates)
        for name, descending in reversed(query.order_by):
            tree = sort_op(tree, name, descending=descending)
    else:
        for name, descending in reversed(query.order_by):
            tree = sort_op(tree, name, descending=descending)
        if query.projections:
            tree = (VecProject if vector else Project)(tree, query.projections)
    if query.limit is not None:
        tree = (VecLimit if vector else Limit)(tree, query.limit)
    if query.into is not None:
        tree = (VecMaterialize if vector else Materialize)(
            tree, query.into, tracker=tracker
        )
    return tree


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
    pairs += [(p.binding, p.attr) for p in query.selections]
    pairs += [(r.binding, r.attr) for r in query.residuals]
    for join in query.joins:
        pairs.append((join.left_binding, join.left_attr))
        pairs.append((join.right_binding, join.right_attr))
    needed: dict[str, set[str]] = {}
    for binding, attr in pairs:
        needed.setdefault(binding, set()).add(attr)
    return needed


def _vec_range_mask(predicate: RangePredicate):
    """A vectorized mask function evaluating one range predicate."""
    low, high = predicate.low, predicate.high
    low_inc, high_inc = predicate.low_inclusive, predicate.high_inclusive

    def mask(values: np.ndarray) -> np.ndarray:
        keep = np.ones(len(values), dtype=bool)
        if low is not None:
            keep &= np.asarray(
                values >= low if low_inc else values > low, dtype=bool
            )
        if high is not None:
            keep &= np.asarray(
                values <= high if high_inc else values < high, dtype=bool
            )
        return keep

    return mask


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


def _range_closure(tree: Operator, predicate: RangePredicate):
    index = tree.column_index(f"{predicate.binding}.{predicate.attr}")
    low, high = predicate.low, predicate.high
    low_inc, high_inc = predicate.low_inclusive, predicate.high_inclusive

    def check(row: tuple) -> bool:
        value = row[index]
        if low is not None:
            if low_inc:
                if value < low:
                    return False
            elif value <= low:
                return False
        if high is not None:
            if high_inc:
                if value > high:
                    return False
            elif value >= high:
                return False
        return True

    return check


def _join_tree(
    query: AnalyzedQuery,
    base_ops: dict[str, Operator | VecOperator],
    catalog: Catalog,
    join_budget: int,
    vector: bool = False,
) -> Operator | VecOperator:
    bindings = [ref.binding for ref in query.tables]
    if len(bindings) == 1:
        return base_ops[bindings[0]]
    if not query.joins:
        raise PlanError(
            "multi-table query without join predicates (cross products are "
            "not supported)"
        )
    index_of = {binding: i for i, binding in enumerate(bindings)}
    cardinalities = [len(catalog.table(ref.name)) for ref in query.tables]
    edges = []
    for join in query.joins:
        if join.left_binding not in index_of or join.right_binding not in index_of:
            raise PlanError(f"join references unknown binding: {join.describe()}")
        edges.append(
            JoinEdge(
                left_rel=index_of[join.left_binding],
                right_rel=index_of[join.right_binding],
                left_col=f"{join.left_binding}.{join.left_attr}",
                right_col=f"{join.right_binding}.{join.right_attr}",
            )
        )
    graph = JoinGraph(cardinalities=cardinalities, edges=edges)
    try:
        plan = optimize_join_order(graph, budget=join_budget)
    except PlanError:
        plan = default_plan(graph)
    first = plan.steps[0]
    tree = base_ops[bindings[first.relation]]
    joined = {first.relation}
    for step in plan.steps[1:]:
        right = base_ops[bindings[step.relation]]
        edge = step.edge
        if edge is None:
            raise PlanError("fallback plan encountered a disconnected join")
        if edge.right_rel == step.relation:
            left_col, right_col = edge.left_col, edge.right_col
        else:
            left_col, right_col = edge.right_col, edge.left_col
        if vector:
            # The batch executor always joins with the sort-merge kernel —
            # the nested-loop collapse of Figure 9 is a tuple-engine cost
            # profile the vectorized discipline does not exhibit.
            tree = VecHashJoin(tree, right, left_col, right_col)
        elif step.method == "nested_loop":
            tree = NestedLoopJoin(tree, right, left_col, right_col)
        else:
            tree = HashJoin(tree, right, left_col, right_col)
        joined.add(step.relation)
    return tree
