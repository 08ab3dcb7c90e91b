"""Compiled statements: one class per statement kind.

The parser builds them and the plan cache keeps them;
``Database.compile`` returns one and ``Database._run`` executes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from repro import governor
from repro.errors import SQLAnalysisError
from repro.obs import trace as obs_trace
from repro.sql.analyzer import AnalyzedDML, resolve_dml, resolve_query, stored_value
from repro.sql.ast_nodes import (
    Assignment, Between, ColRef, Comparison, Const, OrderItem, TableRef,
)
from repro.sql.planner import build_plan
from repro.sql.result import QueryResult
from repro.storage.bat import TAIL_DTYPES
from repro.storage.table import Column, Relation, Schema
from repro.volcano.vectorized import VecOperator, concat_batches, conjunction_mask


def _where_literals(where: list) -> list:
    """A WHERE conjunction's literals in clause order (BETWEEN: low, high)."""
    return [value for condition in where for value in condition.literals()]


class Statement:
    """What the session asks of every statement kind.

    ``kind`` is the per-kind metrics label (SELECT … INTO counts as a
    select).  ``mutates`` and ``target`` say whether it changes state,
    and which table, for a transaction's undo and the WAL.
    ``literals()`` gives its constants in source order and
    ``bind(literals)`` a copy with others in their place: the template
    contract of the plan cache, for the kinds that are ``templated``.
    ``run(db)`` executes it.  Statements are never mutated once the
    plan cache has published them, but for a template's cached
    resolution (:class:`_Templated`), which is replaced whole.
    """

    kind = "other"
    mutates = False
    target = None
    templated = False
    #: Where a SELECT publishes its analysis in the plan cache's exact
    #: level: its text, or ``(template key, literals)`` for a prepared
    #: execution.  None publishes nothing.
    key = None

    def fits(self, literals: tuple) -> bool:
        """True when ``literals`` (of the same template key) can bind."""
        return True


class _Mutation(Statement):
    """A statement that writes the table named by its ``table`` field."""

    mutates = True

    @property
    def target(self) -> str:
        return self.table


def _bound(template: "_Templated", literals: tuple, **fields) -> "_Templated":
    """A statement of ``template``'s kind with ``literals`` and ``fields``,
    built without its literal-holding fields (see :class:`_Templated`)."""
    stmt = object.__new__(type(template))
    stmt.__dict__.update(fields, template=template, params=literals)
    return stmt


class _Templated(Statement):
    """A SELECT, UPDATE or DELETE: analysed as *resolve* plus *fold*.

    ``bind(literals)`` gives a statement that shares its template's
    fields and keeps ``literals`` as ``params``; ``where`` and UPDATE's
    ``assignments`` are built from them only when something reads them.
    Analysis never does: it folds ``params`` into :meth:`resolution`,
    the template's resolve step, cached on the template (plan cache on)
    while no DDL has bumped its tables' epochs.
    """

    templated = True
    #: The parsed statement this one was bound from; None when parsed.
    template = None
    #: A bound statement's literals, in source order.
    params = None
    #: On a template: ``(resolution, table epochs)``, or None.
    resolved = None

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: on a bound
        # statement, a literal-holding field not read before.
        template = self.__dict__.get("template")
        if template is None:
            raise AttributeError(name)
        fields = template._literal_fields(iter(self.params))
        if name not in fields:
            raise AttributeError(name)
        self.__dict__.update(fields)
        return fields[name]

    def literals(self) -> tuple:
        """UPDATE's SET values, the WHERE literals in clause order, then
        SELECT's LIMIT count."""
        if self.params is not None:
            return self.params
        fields = self.__dict__
        literals = [assignment.value.value for assignment in fields.get("assignments", ())]
        literals += _where_literals(self.where)
        if fields.get("limit") is not None:
            literals.append(self.limit)
        return tuple(literals)

    def _literal_fields(self, values) -> dict:
        """This template's literal-holding fields with ``values`` in them,
        in source order: UPDATE's SET values, then the WHERE clause."""
        fields = {}
        assignments = self.__dict__.get("assignments")
        if assignments is not None:
            fields["assignments"] = [
                Assignment(column=assignment.column, value=Const(next(values)))
                for assignment in assignments
            ]
        fields["where"] = where = []
        for condition in self.where:
            if isinstance(condition, Between):
                condition = Between(condition.col, Const(next(values)), Const(next(values)))
            elif isinstance(condition.right, Const):
                condition = Comparison(condition.left, condition.op, Const(next(values)))
            where.append(condition)
        return fields

    def resolution(self, db) -> tuple:
        """``(resolution, table epochs)`` of this statement's template:
        cached while current, else resolved now (the ``analyze`` span)."""
        template = self if self.template is None else self.template
        cache = db._plan_cache
        resolved = template.resolved
        if resolved is None or not cache.current(resolved[1]):
            epochs = cache.epochs_for(template.table_names()) if cache.enabled else ()
            with obs_trace.span("analyze"):
                resolved = (template.resolve(db.catalog), epochs)
            if cache.enabled:
                template.resolved = resolved
        return resolved

    def analysis(self, db):
        """This statement's literals folded into :meth:`resolution`."""
        return self.resolution(db)[0].fold(self.literals())


# ---------------------------------------------------------------------- #
# SELECT
# ---------------------------------------------------------------------- #


@dataclass
class SelectStmt(_Templated):
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

    def fits(self, literals: tuple) -> bool:
        """A LIMIT (the last literal) takes only an integer."""
        return self.limit is None or isinstance(literals[-1], Integral)

    def bind(self, literals: tuple) -> "SelectStmt":
        """This statement with ``literals``; name-only structure is
        shared, which is safe because statements are never mutated once
        published."""
        template = self if self.template is None else self.template
        return _bound(
            template, literals,
            items=template.items,
            tables=template.tables,
            group_by=template.group_by,
            order_by=template.order_by,
            limit=None if template.limit is None else int(literals[-1]),
        )

    def table_names(self) -> list[str]:
        return [ref.name for ref in self.tables]

    def resolve(self, catalog):
        return resolve_query(self, catalog)

    def analyze(self, db):
        """Analyse against ``db``'s catalog, folding this statement's
        literals into its template's resolution; publish under
        :attr:`key` with the epochs that resolution was made under."""
        resolution, epochs = self.resolution(db)
        query = resolution.fold(self.literals())
        if self.key is not None:
            self.query = query
            db._plan_cache.store_exact(self.key, self, epochs)
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
            query = self.analysis(db)
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
            # (it left the cracker as a copy); what can still view
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
    templated = False

    @property
    def target(self) -> str:
        return self.into

    def _materialise(self, db, plan, query) -> QueryResult:
        relation = plan.run()
        governor.check()  # the answer is built; the catalog is untouched
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
        db.catalog.create_table(Relation(self.table, schema))
        db._plan_cache.invalidate_table(self.table)
        return QueryResult(columns=[], rows=[], affected=0)


#: Value types a column takes as they are; any other value goes
#: through :func:`~repro.sql.analyzer.stored_value`.
_PLAIN_TYPES = {"str": {str}, "int": {int}, "float": {int, float}}

#: Array dtype kinds a column takes with one ``astype``.
_PLAIN_KINDS = {"str": "", "int": "i", "float": "if"}


def _stored_columns(schema: Schema, columns: list) -> list:
    """``columns`` (one value sequence per column, in schema order) as
    the BATs store them, checked before anything is written.

    A numeric array whose dtype the column takes is cast whole.  Every
    other value is checked by UPDATE's rule (:func:`stored_value`): a
    value the column cannot store raises :class:`SQLAnalysisError`.  A
    template hit is checked too (``'x'`` and ``5`` key alike), so the
    check lives here rather than in the parser.  The arrays the check
    builds are what the BATs and the crackers receive, column by column.
    """
    columns = list(columns)
    for index, column in enumerate(schema):
        values = columns[index]
        if isinstance(values, np.ndarray):
            if values.dtype.kind in _PLAIN_KINDS[column.col_type]:
                columns[index] = values.astype(TAIL_DTYPES[column.col_type])
                continue
            values = values.tolist()  # plain values, checked one by one
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
        columns[index] = values
    return columns


def _insert(db, relation: Relation, columns: list) -> QueryResult:
    """Append stored ``columns`` (see :func:`_stored_columns`) to
    ``relation`` and its crackers."""
    first_oid = len(relation)
    inserted = relation.insert_many(columns)
    if db._cracker is not None:
        # Merge-on-query (§7's updates): the crackers queue the new
        # values instead of being dropped.
        db._cracker.propagate_insert(relation.name, relation, first_oid, columns)
    return QueryResult(columns=[], rows=[], affected=inserted)


@dataclass
class InsertValuesStmt(_Mutation):
    """INSERT INTO name VALUES (...), (...): the values in source order
    and each row's width, so a template hit binds its literal tuple
    whole and each column is one stride of it."""

    table: str
    values: tuple
    widths: tuple

    kind = "insert"
    templated = True

    def literals(self) -> tuple:
        """Every row's values, row by row."""
        return self.values

    def bind(self, literals: tuple) -> "InsertValuesStmt":
        return InsertValuesStmt(self.table, literals, self.widths)

    def run(self, db) -> QueryResult:
        relation = db.catalog.table(self.table)
        width = len(relation.schema)
        for count in self.widths:  # checked before the first append
            if count != width:
                raise SQLAnalysisError(
                    f"table {relation.name!r} has {width} columns; "
                    f"a row has {count} values"
                )
        columns = [self.values[i::width] for i in range(width)]
        return _insert(db, relation, _stored_columns(relation.schema, columns))


@dataclass
class InsertSelectStmt(_Mutation):
    """INSERT INTO name SELECT ... (the paper's benchmark query form)."""

    table: str
    select: SelectStmt

    kind = "insert"

    def run(self, db) -> QueryResult:
        result = self.select.run(db)
        governor.check()  # the SELECT is done; nothing is written yet
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
        arrays = result.arrays
        columns = _stored_columns(schema, [arrays[name] for name in result.columns])
        governor.check()  # the rows are converted; nothing is written yet
        if not exists:
            db.catalog.create_table(Relation(self.table, schema))
            db._plan_cache.invalidate_table(self.table)
        return _insert(db, db.catalog.table(self.table), columns)


# ---------------------------------------------------------------------- #
# UPDATE / DELETE
# ---------------------------------------------------------------------- #


def _match_positions(relation: Relation, plan: AnalyzedDML) -> np.ndarray:
    """Storage positions of live rows satisfying a DML WHERE clause,
    ascending.

    Evaluated vectorised over the base column arrays — never through
    the cracker (the matcher must see updated values immediately, and a
    DML statement should not crack as a side effect) — inside one storage
    window: the intersection of the :meth:`~repro.storage.bat.BAT.window`
    of every predicate on an ascending column, else the whole table.  The
    window's tombstones, the other predicates and the ``<>`` residuals
    are evaluated on the window's slice of each column, by the evaluator
    a SELECT's filters use (:func:`~repro.volcano.vectorized.conjunction_mask`).
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
    keep = conjunction_mask(
        [((p.attr,), p.mask) for p in (*scanned, *plan.residuals)],
        lambda attr: relation.column(attr).decoded_array(slice(start, stop))[0],
        relation.live_mask(start, stop),
    )
    return start + np.flatnonzero(keep)


class _Write(_Templated, _Mutation):
    """An UPDATE or DELETE of one table.  Its analysis is an
    :class:`~repro.sql.analyzer.AnalyzedDML`, redone every execution:
    a fold into the template's resolution on a template hit."""

    def bind(self, literals: tuple) -> "_Write":
        template = self if self.template is None else self.template
        return _bound(template, literals, table=template.table)

    def table_names(self) -> list[str]:
        return [self.table]

    def resolve(self, catalog):
        return resolve_dml(self, catalog)


@dataclass
class UpdateStmt(_Write):
    """UPDATE name SET col = literal, ... [WHERE conjunction]."""

    table: str
    assignments: list[Assignment]
    where: list  # conjunction of Comparison | Between (empty = all rows)

    kind = "update"

    def run(self, db) -> QueryResult:
        plan = self.analysis(db)
        relation = db.catalog.table(plan.table)
        positions = _match_positions(relation, plan)
        governor.check()  # matched; nothing is written yet
        if positions.size:
            # Crackers find a changed row by its value, so read the old
            # ones before the rewrite.  Each column's new values are
            # built once, for its BAT and its cracker.
            old_values, values = {}, {}
            for column, value in plan.assignments:
                bat = relation.column(column)
                old_values[column] = bat.tail_array()[positions]
                values[column] = (
                    [value] * len(positions) if bat.tail_type == "str"
                    else np.full(len(positions), value, dtype=TAIL_DTYPES[bat.tail_type])
                )
            relation.update_positions(positions, values)
            if db._cracker is not None:
                db._cracker.propagate_update(plan.table, positions, values, old_values)
        return QueryResult(columns=[], rows=[], affected=int(positions.size))


@dataclass
class DeleteStmt(_Write):
    """DELETE FROM name [WHERE conjunction]."""

    table: str
    where: list  # conjunction of Comparison | Between (empty = all rows)

    kind = "delete"

    def run(self, db) -> QueryResult:
        plan = self.analysis(db)
        relation = db.catalog.table(plan.table)
        positions = _match_positions(relation, plan)
        governor.check()  # matched; nothing is written yet
        affected = relation.delete_positions(positions)
        if affected and db._cracker is not None:
            db._cracker.propagate_delete(plan.table, relation, positions)
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
