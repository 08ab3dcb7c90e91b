"""Compiled statements: one class per statement kind.

The parser builds them and the plan cache keeps them;
``Database.compile`` returns one and ``Database._run`` executes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from repro.errors import SQLAnalysisError
from repro.obs import trace as obs_trace
from repro.sql.analyzer import AnalyzedDML, analyze, analyze_dml, stored_value
from repro.sql.ast_nodes import Assignment, ColRef, Const, OrderItem, TableRef
from repro.sql.planner import build_plan
from repro.sql.result import QueryResult
from repro.storage.bat import TAIL_DTYPES
from repro.storage.table import Column, Relation, Schema
from repro.volcano.vectorized import VecOperator, concat_batches


def _where_literals(where: list) -> list:
    """A WHERE conjunction's literals in clause order (BETWEEN: low, high)."""
    return [value for condition in where for value in condition.literals()]


class Statement:
    """What the session asks of every statement kind.

    ``kind`` is the per-kind metrics label (SELECT … INTO counts as a
    select).  ``mutates`` and ``target`` say whether it changes state,
    and which table, for the transaction barrier, the durability guard
    and the WAL.  ``literals()`` gives its constants in source order and
    ``bind(literals)`` a copy with others in their place: the template
    contract of the plan cache; ``literals()`` is None for a statement
    no template stands for.  ``run(db)`` executes it.  Statements are
    never mutated once the plan cache has published them.
    """

    kind = "other"
    mutates = False
    target = None
    #: Where a SELECT publishes its analysis in the plan cache's exact
    #: level: its text, or ``(template key, literals)`` for a prepared
    #: execution.  None publishes nothing.
    key = None

    def literals(self) -> tuple | None:
        return None

    def fits(self, literals: tuple) -> bool:
        """True when ``literals`` (of the same template key) can bind."""
        return True


class _Mutation(Statement):
    """A statement that writes the table named by its ``table`` field."""

    mutates = True

    @property
    def target(self) -> str:
        return self.table


# ---------------------------------------------------------------------- #
# SELECT
# ---------------------------------------------------------------------- #


@dataclass
class SelectStmt(Statement):
    """A SELECT query in the paper's normal form π-γ-σ-⋈ (Eq. 1)."""

    items: list  # list of Star | ColRef | AggCall
    tables: list[TableRef]
    where: list  # conjunction of Comparison | Between
    group_by: list[ColRef] = field(default_factory=list)
    order_by: list[OrderItem] = field(default_factory=list)
    into: str | None = None
    limit: int | None = None

    kind = "select"
    #: The analysed form, once this statement has run.
    query = None

    def literals(self) -> tuple:
        """WHERE conditions in clause order, then the LIMIT count."""
        literals = _where_literals(self.where)
        if self.limit is not None:
            literals.append(self.limit)
        return tuple(literals)

    def fits(self, literals: tuple) -> bool:
        """A LIMIT (the last literal) takes only an integer."""
        return self.limit is None or isinstance(literals[-1], Integral)

    def bind(self, literals: tuple) -> "SelectStmt":
        """A fresh statement; name-only structure is shared, which is
        safe because statements are never mutated once published."""
        values = iter(literals)
        return SelectStmt(
            items=self.items,
            tables=self.tables,
            where=[condition.bind(values) for condition in self.where],
            group_by=self.group_by,
            order_by=self.order_by,
            limit=None if self.limit is None else int(next(values)),
        )

    def analyze(self, db):
        """Analyse against ``db``'s catalog; publish under :attr:`key`.

        The table epochs are captured before the analysis runs: a DDL or
        DML racing the compile then leaves the entry already stale,
        instead of stamping a pre-DDL analysis as current.
        """
        cache = db._plan_cache
        key = self.key
        if key is not None:
            epochs = cache.epochs_for(ref.name for ref in self.tables)
        with obs_trace.span("analyze"):
            query = analyze(self, db.catalog)
        if key is not None:
            self.query = query
            cache.store_exact(key, self, epochs)
        return query

    def run(self, db) -> QueryResult:
        """Plan and gather.  The physical plan is rebuilt every time,
        even on a cache hit: the cracked range answer it embeds is
        per-execution state, and the join planner reads live
        cardinalities from the catalog."""
        query = self.query
        if query is None:
            query = self.analyze(db)
        elif db._in_transaction:
            # A transaction batch compiles before it runs: the analysis
            # may predate a schema change made earlier in the batch.
            query = analyze(self, db.catalog)
        with obs_trace.span("plan"):
            plan = build_plan(
                query, db.catalog, cracker=db._cracker, tracker=db.tracker
            )
        if self.mutates:
            return self._materialise(db, plan, query)
        columns = list(plan.columns)
        with obs_trace.span("gather"):
            if not isinstance(plan, VecOperator):
                return QueryResult(columns, list(plan), query=query)
            batch = concat_batches(plan)
            # The result owns its data.  The cracked answer already does
            # (it left the column lock as a copy); what can still view
            # storage is a full-scan slice of a BAT, which UPDATE writes
            # in place, so that is copied once here.
            if batch is None:  # the empty result, which is row-native
                return QueryResult(columns, query=query)
            arrays = {
                name: array if array.flags.owndata else array.copy()
                for name, array in zip(columns, batch.arrays)
            }
            codes = {
                columns[index]: (ids if ids.flags.owndata else ids.copy(), atoms)
                for index, (ids, atoms) in batch.coded.items()
            }
        return QueryResult(columns, arrays=arrays, query=query, codes=codes)


class SelectInto(SelectStmt):
    """SELECT … INTO name: materialise the answer as table ``name``,
    replacing any table of that name.  DDL, so never templated."""

    mutates = True

    @property
    def target(self) -> str:
        return self.into

    def literals(self) -> None:
        return None

    def _materialise(self, db, plan, query) -> QueryResult:
        relation = plan.run()
        with db._catalog_lock:
            if db.catalog.has_table(relation.name):
                db.catalog.drop_table(relation.name)
                if db._cracker is not None:
                    # Crackers of the replaced table index dead storage.
                    db._cracker.drop_table(relation.name)
            db.catalog.create_table(relation)
        db._plan_cache.invalidate_table(relation.name)
        return QueryResult(
            columns=plan.columns, rows=[], affected=len(relation), query=query
        )


# ---------------------------------------------------------------------- #
# CREATE TABLE / INSERT
# ---------------------------------------------------------------------- #


@dataclass
class CreateTableStmt(_Mutation):
    """CREATE TABLE table (col type, ...)."""

    table: str
    columns: list[tuple[str, str]]  # (name, repro col_type)

    kind = "create"

    def run(self, db) -> QueryResult:
        schema = Schema([Column(name, col_type) for name, col_type in self.columns])
        with db._catalog_lock:
            db.catalog.create_table(Relation(self.table, schema))
        db._plan_cache.invalidate_table(self.table)
        return QueryResult(columns=[], rows=[], affected=0)


#: Value types a column takes as they are; any other value goes
#: through :func:`~repro.sql.analyzer.stored_value`.
_PLAIN_TYPES = {"str": {str}, "int": {int}, "float": {int, float}}


def _insert(db, relation: Relation, rows: list) -> QueryResult:
    """Append ``rows`` to ``relation`` and its crackers, all or nothing.

    Every value of every row is checked against the schema before the
    first append, by UPDATE's rule (:func:`stored_value`): a row of the
    wrong width or a value the column cannot store raises
    :class:`SQLAnalysisError` with every BAT unchanged.  A template hit
    is checked too (``'x'`` and ``5`` key alike), so the check lives
    here rather than in the parser.  The arrays the check builds are
    what the BATs and the crackers receive, column by column.
    """
    width = len(relation.schema)
    for row in rows:
        if len(row) != width:
            raise SQLAnalysisError(
                f"table {relation.name!r} has {width} columns; "
                f"a row has {len(row)} values"
            )
    columns = []
    for index, column in enumerate(relation.schema):
        values = [row[index] for row in rows]
        if not set(map(type, values)) <= _PLAIN_TYPES[column.col_type]:
            values = [  # 3.0 reaches the BATs and crackers as 3
                stored_value(column.name, column.col_type, value)
                for value in values
            ]
        if column.col_type != "str":
            try:  # the numbers fit the tail dtype
                values = np.asarray(values, dtype=TAIL_DTYPES[column.col_type])
            except OverflowError as exc:
                raise SQLAnalysisError(
                    f"column {column.name!r} is {column.col_type}: {exc}"
                ) from None
        columns.append(values)
    # Atomic oid claim + append + cracker propagation: a cracker created
    # concurrently would otherwise snapshot the base rows *and* receive
    # them again as pending updates.
    with relation.write_lock:
        first_oid = len(relation)
        inserted = relation.insert_many(columns)
        if db._cracker is not None:
            # Merge-on-query (§7's updates): the crackers queue the new
            # values instead of being dropped.
            db._cracker.propagate_insert(relation.name, relation, first_oid, columns)
    db._plan_cache.invalidate_table(relation.name)
    return QueryResult(columns=[], rows=[], affected=inserted)


@dataclass
class InsertValuesStmt(_Mutation):
    """INSERT INTO name VALUES (...), (...)."""

    table: str
    rows: list[tuple]

    kind = "insert"

    def literals(self) -> tuple:
        """Every row's values, row by row."""
        return tuple(value for row in self.rows for value in row)

    def bind(self, literals: tuple) -> "InsertValuesStmt":
        values = iter(literals)
        return InsertValuesStmt(
            table=self.table,
            rows=[tuple(next(values) for _ in row) for row in self.rows],
        )

    def run(self, db) -> QueryResult:
        return _insert(db, db.catalog.table(self.table), self.rows)


@dataclass
class InsertSelectStmt(_Mutation):
    """INSERT INTO name SELECT ... (the paper's benchmark query form)."""

    table: str
    select: SelectStmt

    kind = "insert"

    def run(self, db) -> QueryResult:
        result = self.select.run(db)
        with db._catalog_lock:
            # Paper's benchmark form: INSERT INTO newR SELECT * FROM R ...
            # creates the target on the fly with the source schema.
            exists = db.catalog.has_table(self.table)
            schema = db.catalog.table(
                self.table if exists else self.select.tables[0].name
            ).schema
            if len(schema) != len(result.columns):
                raise SQLAnalysisError(
                    f"table {self.table!r} has {len(schema)} columns; the "
                    f"SELECT gives {len(result.columns)}"
                )
            if not exists:
                db.catalog.create_table(Relation(self.table, schema))
            relation = db.catalog.table(self.table)
        return _insert(db, relation, result.rows)


# ---------------------------------------------------------------------- #
# UPDATE / DELETE
# ---------------------------------------------------------------------- #


def _column_values(relation: Relation, attr: str, start: int, stop: int):
    return relation.column(attr).decoded_array(slice(start, stop))[0]


def _match_positions(relation: Relation, plan: AnalyzedDML) -> np.ndarray:
    """Storage positions of live rows satisfying a DML WHERE clause,
    ascending.

    Evaluated vectorised over the base column arrays — never through
    the cracker (the matcher must see updated values immediately, and a
    DML statement should not crack as a side effect) — inside one storage
    window: the intersection of the :meth:`~repro.storage.bat.BAT.window`
    of every predicate on an ascending column, else the whole table.  The
    window's tombstones, the other predicates and the ``<>`` residuals
    are evaluated on the window's slice of each column.
    """
    start, stop = 0, len(relation)
    scanned = []
    for predicate in plan.selections:
        window = relation.column(predicate.attr).window(
            predicate.low, predicate.high,
            predicate.low_inclusive, predicate.high_inclusive,
        )
        if window is None:
            scanned.append(predicate)
        else:
            start, stop = max(start, window[0]), min(stop, window[1])
    if start >= stop:
        return np.empty(0, dtype=np.int64)
    keep = relation.live_mask(start, stop)
    for predicate in scanned:
        values = _column_values(relation, predicate.attr, start, stop)
        if predicate.low is not None:
            keep &= (
                values >= predicate.low
                if predicate.low_inclusive
                else values > predicate.low
            )
        if predicate.high is not None:
            keep &= (
                values <= predicate.high
                if predicate.high_inclusive
                else values < predicate.high
            )
    for residual in plan.residuals:
        values = _column_values(relation, residual.attr, start, stop)
        keep &= values != residual.value
    return start + np.flatnonzero(keep)


@dataclass
class UpdateStmt(_Mutation):
    """UPDATE name SET col = literal, ... [WHERE conjunction]."""

    table: str
    assignments: list[Assignment]
    where: list  # conjunction of Comparison | Between (empty = all rows)

    kind = "update"

    def literals(self) -> tuple:
        """The SET values, then the WHERE literals."""
        return tuple(
            [assignment.value.value for assignment in self.assignments]
            + _where_literals(self.where)
        )

    def bind(self, literals: tuple) -> "UpdateStmt":
        values = iter(literals)
        assignments = [
            Assignment(column=assignment.column, value=Const(next(values)))
            for assignment in self.assignments
        ]
        return UpdateStmt(
            table=self.table,
            assignments=assignments,
            where=[condition.bind(values) for condition in self.where],
        )

    def run(self, db) -> QueryResult:
        plan = analyze_dml(self, db.catalog)
        relation = db.catalog.table(plan.table)
        # Atomic match + in-place rewrite + cracker propagation, mirroring
        # the insert path: a cracker created concurrently snapshots either
        # the old or the new values, never a half-applied mix.
        with relation.write_lock:
            positions = _match_positions(relation, plan)
            if positions.size:
                # Crackers find a changed row by its value, so read the
                # old ones before the rewrite.
                old_values = {
                    column: relation.column(column).tail_array()[positions]
                    for column, _ in plan.assignments
                }
                relation.update_positions(
                    positions,
                    {
                        column: [value] * len(positions)
                        for column, value in plan.assignments
                    },
                )
                if db._cracker is not None:
                    db._cracker.propagate_update(
                        plan.table, positions, dict(plan.assignments),
                        old_values,
                    )
        db._plan_cache.invalidate_table(plan.table)
        return QueryResult(columns=[], rows=[], affected=int(positions.size))


@dataclass
class DeleteStmt(_Mutation):
    """DELETE FROM name [WHERE conjunction]."""

    table: str
    where: list  # conjunction of Comparison | Between (empty = all rows)

    kind = "delete"

    def literals(self) -> tuple:
        return tuple(_where_literals(self.where))

    def bind(self, literals: tuple) -> "DeleteStmt":
        values = iter(literals)
        return DeleteStmt(
            table=self.table, where=[condition.bind(values) for condition in self.where]
        )

    def run(self, db) -> QueryResult:
        plan = analyze_dml(self, db.catalog)
        relation = db.catalog.table(plan.table)
        with relation.write_lock:
            positions = _match_positions(relation, plan)
            affected = relation.delete_positions(positions)
            if affected and db._cracker is not None:
                db._cracker.propagate_delete(plan.table, relation, positions)
        db._plan_cache.invalidate_table(plan.table)
        return QueryResult(columns=[], rows=[], affected=affected)


# ---------------------------------------------------------------------- #
# EXPLAIN INDEX
# ---------------------------------------------------------------------- #


def _explain_number(value) -> str:
    """Render one EXPLAIN INDEX detail value (floats abbreviated)."""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)



@dataclass
class ExplainIndexStmt(Statement):
    """EXPLAIN INDEX table(col): the cracker-index introspection surface."""

    table: str
    column: str

    def run(self, db) -> QueryResult:
        rows = list(self._rows(db))
        return QueryResult(columns=["section", "entry", "detail"], rows=rows)

    def _rows(self, db):
        """The cracker index narrated as ``(section, entry, detail)`` rows.

        Always returns rows — engines without cracking, columns no query
        has touched and databases without the profiler each get a status
        row saying so instead of an error, so monitoring scripts can
        probe any configuration with the same statement.  Unknown tables
        and columns still raise, like any other statement.
        """
        with db._catalog_lock:
            relation = db.catalog.table(self.table)
            if self.column not in relation.schema.names():
                raise SQLAnalysisError(
                    f"table {self.table!r} has no column {self.column!r}"
                )
        if db._cracker is None:
            yield ("index", "status", "cracking off: no cracker index")
            return
        column = db._cracker.columns().get((self.table, self.column))
        if column is None:
            yield (
                "index", "status",
                "not cracked yet: no range predicate has touched this column",
            )
            return
        with db._cracker.lock_for(self.table, self.column).read_locked():
            info = column.observability()
        yield ("index", "status", "cracked")
        for key in sorted(info):
            value = info[key]
            if isinstance(value, dict):
                detail = " ".join(
                    f"{k}={_explain_number(v)}" for k, v in sorted(value.items())
                )
            elif isinstance(value, (list, tuple)):
                detail = " ".join(_explain_number(v) for v in value)
            else:
                detail = _explain_number(value)
            yield ("index", key, detail)
        introspection = db._cracker.introspection_for(self.table, self.column)
        if introspection is None:
            yield (
                "profiler", "status",
                "off: enable with Database(profile=True)",
            )
            return
        snap = introspection.snapshot()
        lineage = snap["lineage"]
        yield (
            "lineage", "events",
            f"{lineage['total_events']} total, "
            f"last {len(lineage['events'])} retained "
            f"(capacity {lineage['capacity']})",
        )
        yield (
            "lineage", "op_counts",
            " ".join(
                f"{op}={count}" for op, count in sorted(lineage["op_counts"].items())
            ) or "none",
        )
        for event in lineage["events"][-16:]:
            if "bounds" in event:
                detail = (
                    f"bounds={event['bounds']} pieces={event['pieces']} "
                    f"moved={event['moved']} stmt={event['statement']}"
                )
            else:
                detail = f"tuples={event['tuples']} stmt={event['statement']}"
            yield ("lineage", f"#{event['seq']} {event['op']}", detail)
        workload = snap["workload"]
        yield ("workload", "queries", str(workload["queries"]))
        yield (
            "workload", "domain",
            f"[{_explain_number(workload['domain'][0])}, "
            f"{_explain_number(workload['domain'][1])}] "
            f"bucket_width={_explain_number(workload['bucket_width'])}",
        )
        yield (
            "workload", "histogram",
            " ".join(str(count) for count in workload["histogram"]),
        )
        yield (
            "workload", "selectivity",
            f"mean={_explain_number(workload['selectivity']['mean'])} "
            f"last={_explain_number(workload['selectivity']['last'])}",
        )
        hot = workload["hot_range"]
        if hot is not None:
            yield (
                "workload", "hot_range",
                f"[{_explain_number(hot['low'])}, "
                f"{_explain_number(hot['high'])}) x{hot['count']}",
            )
        convergence = snap["convergence"]
        yield ("convergence", "queries", str(convergence["queries"]))
        for key in ("last", "recent_mean", "savings"):
            yield (
                "convergence", key,
                "n/a" if convergence[key] is None
                else _explain_number(convergence[key]),
            )
        yield (
            "convergence", "cost_totals",
            f"crack={_explain_number(convergence['crack_cost_total'])} "
            f"scan={_explain_number(convergence['scan_cost_total'])}",
        )
