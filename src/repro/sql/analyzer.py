"""Semantic analysis into the paper's normal form, plus cracker extraction.

§3.1: "database crackers ... are derived during the first step of query
optimization, i.e. the translation of an SQL statement into a relational
algebra expression" of the form π γ σ (R1 ⋈ ... ⋈ Rm) (Eq. 1).

:func:`analyze` resolves names against the catalog, folds comparison
conjunctions into range predicates, classifies join predicates, and keeps
what the *cracker advice* needs — the list of Ξ/Ψ/^/Ω operations the
query suggests, which :func:`extract_crackers` formats on first read.
The advice is what the paper's architecture inserts "between the semantic
analyzer and the query optimizer" (§3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real
from typing import TYPE_CHECKING

from repro.errors import SQLAnalysisError
from repro.sql.ast_nodes import (
    AggCall,
    Between,
    ColRef,
    Comparison,
    Const,
    Star,
    TableRef,
)
from repro.storage.catalog import Catalog

if TYPE_CHECKING:
    from repro.sql.statements import DeleteStmt, SelectStmt, UpdateStmt


@dataclass
class RangePredicate:
    """A (possibly one-sided) range condition on one attribute.

    ``low``/``high`` of None mean an open side; a point selection is
    ``low == high`` with both sides inclusive (the paper treats
    point-selections as double-sided ranges with low = high).
    """

    binding: str
    table: str
    attr: str
    low: float | None = None
    high: float | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    def describe(self) -> str:
        left = "" if self.low is None else (
            f"{self.low} {'<=' if self.low_inclusive else '<'} "
        )
        right = "" if self.high is None else (
            f" {'<=' if self.high_inclusive else '<'} {self.high}"
        )
        return f"{left}{self.binding}.{self.attr}{right}"


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join condition between two table bindings."""

    left_binding: str
    left_attr: str
    right_binding: str
    right_attr: str

    def describe(self) -> str:
        return (
            f"{self.left_binding}.{self.left_attr} = "
            f"{self.right_binding}.{self.right_attr}"
        )


@dataclass(frozen=True)
class ResidualPredicate:
    """A non-crackable condition, evaluated after the scans (e.g. <>)."""

    binding: str
    attr: str
    op: str
    value: object


@dataclass(frozen=True)
class CrackerAdvice:
    """One suggested cracker application (the §3 extraction output)."""

    op: str  # Ξ, Ψ, ^, Ω
    params: str


@dataclass
class AnalyzedQuery:
    """The resolved π-γ-σ-⋈ normal form of one SELECT."""

    tables: list[TableRef]
    projections: list[str] | None  # qualified names; None = SELECT *
    aggregates: list[tuple[str, str | None]]  # (fn, qualified col or None)
    group_by: list[str]
    selections: list[RangePredicate]
    joins: list[JoinPredicate]
    residuals: list[ResidualPredicate]
    into: str | None
    limit: int | None
    order_by: list[tuple[str, bool]] = field(default_factory=list)  # (qualified, desc)
    # Column counts of the projected bindings' tables, as analyzed (Ψ).
    widths: dict[str, int] = field(default_factory=dict)

    @cached_property
    def advice(self) -> list[CrackerAdvice]:
        """The cracker advice, formatted on first read (few ever read it)."""
        return extract_crackers(self)


def analyze(stmt: SelectStmt, catalog: Catalog) -> AnalyzedQuery:
    """Resolve and normalise ``stmt`` against ``catalog``."""
    if not stmt.tables:
        raise SQLAnalysisError("query references no tables")
    bindings: dict[str, TableRef] = {}
    for ref in stmt.tables:
        if not catalog.has_table(ref.name):
            raise SQLAnalysisError(f"unknown table {ref.name!r}")
        if ref.binding in bindings:
            raise SQLAnalysisError(f"duplicate table binding {ref.binding!r}")
        bindings[ref.binding] = ref

    def resolve(col: ColRef) -> tuple[str, str]:
        """(binding, attr) for a column reference."""
        if col.table is not None:
            ref = bindings.get(col.table)
            if ref is None:
                raise SQLAnalysisError(f"unknown table binding {col.table!r}")
            schema = catalog.table(ref.name).schema
            if col.column not in schema:
                raise SQLAnalysisError(
                    f"table {ref.name!r} has no column {col.column!r}"
                )
            return col.table, col.column
        owners = [
            binding
            for binding, ref in bindings.items()
            if col.column in catalog.table(ref.name).schema
        ]
        if not owners:
            raise SQLAnalysisError(f"unknown column {col.column!r}")
        if len(owners) > 1:
            raise SQLAnalysisError(
                f"ambiguous column {col.column!r}; qualifies tables {owners}"
            )
        return owners[0], col.column

    selections: dict[tuple[str, str], RangePredicate] = {}
    joins: list[JoinPredicate] = []
    residuals: list[ResidualPredicate] = []
    for condition in stmt.where:
        _fold_condition(condition, resolve, bindings, selections, joins, residuals)

    projections, aggregates = _resolve_items(stmt, resolve)
    group_by = [f"{b}.{a}" for b, a in (resolve(col) for col in stmt.group_by)]
    if aggregates and projections:
        non_grouped = [name for name in projections if name not in group_by]
        if non_grouped:
            raise SQLAnalysisError(
                f"columns {non_grouped} appear outside aggregates without GROUP BY"
            )

    order_by = []
    for item in stmt.order_by:
        binding, attr = resolve(item.col)
        qualified = f"{binding}.{attr}"
        if aggregates and group_by and qualified not in group_by:
            raise SQLAnalysisError(
                f"ORDER BY column {qualified!r} must appear in GROUP BY"
            )
        order_by.append((qualified, item.descending))

    widths = {
        binding: len(catalog.table(bindings[binding].name).schema)
        for binding in {name.split(".", 1)[0] for name in projections}
    }
    return AnalyzedQuery(
        tables=stmt.tables,
        projections=projections if projections else None,
        aggregates=aggregates,
        group_by=group_by,
        selections=list(selections.values()),
        joins=joins,
        residuals=residuals,
        into=stmt.into,
        limit=stmt.limit,
        order_by=order_by,
        widths=widths,
    )


def stored_value(column: str, col_type: str, value):
    """``value`` as column ``column`` of type ``col_type`` stores it.

    The one rule INSERT (both forms) and UPDATE share: a text column
    takes only text, a numeric column only numbers, and an integer
    column stores an integral float (``3.0``) as its int and rejects
    any other float.

    Raises:
        SQLAnalysisError: if the column cannot store ``value``.
    """
    if col_type == "str":
        if not isinstance(value, str):
            raise SQLAnalysisError(f"column {column!r} is text; got {value!r}")
        return value
    if not isinstance(value, Real):
        raise SQLAnalysisError(f"column {column!r} is numeric; got {value!r}")
    if col_type == "float":
        return float(value)
    if isinstance(value, Integral):
        return int(value)
    if not float(value).is_integer():
        raise SQLAnalysisError(f"column {column!r} is integer; got {value!r}")
    return int(value)


@dataclass
class AnalyzedDML:
    """The resolved form of one UPDATE or DELETE (single-table σ)."""

    table: str
    assignments: list[tuple[str, object]]  # (column, new value); empty = DELETE
    selections: list[RangePredicate]
    residuals: list[ResidualPredicate]


def analyze_dml(stmt: UpdateStmt | DeleteStmt, catalog: Catalog) -> AnalyzedDML:
    """Resolve an UPDATE/DELETE against ``catalog``.

    DML targets exactly one table, so the WHERE clause folds through the
    same range/residual machinery as SELECT but with a single binding and
    no join predicates.
    """
    if not catalog.has_table(stmt.table):
        raise SQLAnalysisError(f"unknown table {stmt.table!r}")
    schema = catalog.table(stmt.table).schema
    bindings = {stmt.table: TableRef(name=stmt.table)}

    def resolve(col: ColRef) -> tuple[str, str]:
        if col.table is not None and col.table != stmt.table:
            raise SQLAnalysisError(
                f"unknown table binding {col.table!r}; "
                f"DML targets only {stmt.table!r}"
            )
        if col.column not in schema:
            raise SQLAnalysisError(
                f"table {stmt.table!r} has no column {col.column!r}"
            )
        return stmt.table, col.column

    selections: dict[tuple[str, str], RangePredicate] = {}
    joins: list[JoinPredicate] = []
    residuals: list[ResidualPredicate] = []
    for condition in stmt.where:
        _fold_condition(condition, resolve, bindings, selections, joins, residuals)
    if joins:
        raise SQLAnalysisError(
            "DML WHERE cannot compare columns (joins are not allowed)"
        )

    assignments: list[tuple[str, object]] = []
    for assignment in getattr(stmt, "assignments", ()):
        if assignment.column not in schema:
            raise SQLAnalysisError(
                f"table {stmt.table!r} has no column {assignment.column!r}"
            )
        col_type = schema.column(assignment.column).col_type
        value = stored_value(assignment.column, col_type, assignment.value.value)
        assignments.append((assignment.column, value))

    return AnalyzedDML(
        table=stmt.table,
        assignments=assignments,
        selections=list(selections.values()),
        residuals=residuals,
    )


def _fold_condition(condition, resolve, bindings, selections, joins, residuals) -> None:
    if isinstance(condition, Between):
        binding, attr = resolve(condition.col)
        _merge_range(
            selections, bindings, binding, attr,
            low=condition.low.value, high=condition.high.value,
            low_inclusive=True, high_inclusive=True,
        )
        return
    if not isinstance(condition, Comparison):  # pragma: no cover - defensive
        raise SQLAnalysisError(f"unsupported condition {condition!r}")
    if isinstance(condition.right, ColRef):
        left_binding, left_attr = resolve(condition.left)
        right_binding, right_attr = resolve(condition.right)
        if condition.op != "=":
            raise SQLAnalysisError(
                f"only equi-joins are supported, got {condition.op!r}"
            )
        if left_binding == right_binding:
            raise SQLAnalysisError(
                "column-to-column comparison within one table is not supported"
            )
        joins.append(
            JoinPredicate(left_binding, left_attr, right_binding, right_attr)
        )
        return
    binding, attr = resolve(condition.left)
    value = condition.right.value
    op = condition.op
    if op == "=":
        _merge_range(selections, bindings, binding, attr, low=value, high=value,
                     low_inclusive=True, high_inclusive=True)
    elif op == "<":
        _merge_range(selections, bindings, binding, attr, high=value,
                     high_inclusive=False)
    elif op == "<=":
        _merge_range(selections, bindings, binding, attr, high=value,
                     high_inclusive=True)
    elif op == ">":
        _merge_range(selections, bindings, binding, attr, low=value,
                     low_inclusive=False)
    elif op == ">=":
        _merge_range(selections, bindings, binding, attr, low=value,
                     low_inclusive=True)
    elif op in ("<>", "!="):
        residuals.append(ResidualPredicate(binding, attr, "!=", value))
    else:  # pragma: no cover - parser restricts ops
        raise SQLAnalysisError(f"unsupported operator {op!r}")


def _merge_range(
    selections, bindings, binding, attr,
    low=None, high=None, low_inclusive=True, high_inclusive=True,
) -> None:
    key = (binding, attr)
    predicate = selections.get(key)
    if predicate is None:
        predicate = RangePredicate(
            binding=binding, table=bindings[binding].name, attr=attr
        )
        selections[key] = predicate
    if low is not None:
        if predicate.low is None or low > predicate.low or (
            low == predicate.low and not low_inclusive
        ):
            predicate.low = low
            predicate.low_inclusive = low_inclusive
    if high is not None:
        if predicate.high is None or high < predicate.high or (
            high == predicate.high and not high_inclusive
        ):
            predicate.high = high
            predicate.high_inclusive = high_inclusive
    if (
        predicate.low is not None
        and predicate.high is not None
        and predicate.low > predicate.high
    ):
        # Contradictory conjunction: keep it (it selects nothing) — the
        # planner will produce an empty result, which is correct.
        pass


def _resolve_items(stmt: SelectStmt, resolve):
    projections: list[str] = []
    aggregates: list[tuple[str, str | None]] = []
    saw_star = False
    for item in stmt.items:
        if isinstance(item, Star):
            saw_star = True
        elif isinstance(item, AggCall):
            if isinstance(item.arg, Star):
                aggregates.append((item.fn, None))
            else:
                binding, attr = resolve(item.arg)
                aggregates.append((item.fn, f"{binding}.{attr}"))
        elif isinstance(item, ColRef):
            binding, attr = resolve(item)
            projections.append(f"{binding}.{attr}")
        else:  # pragma: no cover - defensive
            raise SQLAnalysisError(f"unsupported select item {item!r}")
    if saw_star:
        if projections or aggregates:
            raise SQLAnalysisError("cannot mix * with explicit select items")
        return [], aggregates
    return projections, aggregates


def extract_crackers(query: AnalyzedQuery) -> list[CrackerAdvice]:
    """The cracker extraction stage (§3): one advice entry per operator.

    * every range selection suggests a Ξ crack;
    * every equi-join suggests a ^ crack;
    * a GROUP BY suggests an Ω crack;
    * a projection onto a strict subset of a table's columns suggests Ψ.
    """
    advice: list[CrackerAdvice] = []
    for predicate in query.selections:
        advice.append(CrackerAdvice(op="Ξ", params=predicate.describe()))
    for join in query.joins:
        advice.append(CrackerAdvice(op="^", params=join.describe()))
    if query.group_by:
        advice.append(CrackerAdvice(op="Ω", params=f"group by {', '.join(query.group_by)}"))
    if query.projections:
        by_binding: dict[str, list[str]] = {}
        for name in query.projections:
            binding, attr = name.split(".", 1)
            by_binding.setdefault(binding, []).append(attr)
        for binding, attrs in by_binding.items():
            if len(attrs) < query.widths[binding]:
                advice.append(
                    CrackerAdvice(op="Ψ", params=f"π[{', '.join(attrs)}]({binding})")
                )
    return advice
