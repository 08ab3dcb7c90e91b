"""Semantic analysis into the paper's normal form, plus cracker extraction.

§3.1: "database crackers ... are derived during the first step of query
optimization, i.e. the translation of an SQL statement into a relational
algebra expression" of the form π γ σ (R1 ⋈ ... ⋈ Rm) (Eq. 1).

:func:`analyze` is two steps.  *Resolve* (:func:`resolve_query`,
:func:`resolve_dml`) reads no literal: it resolves names against the
catalog, classifies join predicates and notes the column each condition
bounds.  *Fold* folds a literal tuple into range predicates, so
statements that differ only in literals share one resolution.  The
analysed query keeps what the *cracker advice* needs — the Ξ/Ψ/^/Ω
operations the query suggests, formatted on first read by
:func:`extract_crackers`, which the paper's architecture inserts
"between the semantic analyzer and the query optimizer" (§3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real
from typing import TYPE_CHECKING

import numpy as np

from repro.core.bounds import EMPTY, INT64_MAX, INT64_MIN, typed_bound
from repro.errors import SQLAnalysisError
from repro.sql.ast_nodes import (
    AggCall,
    Between,
    ColRef,
    Comparison,
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
    point-selections as double-sided ranges with low = high).  Bounds
    are in the column's type (:func:`_fold` takes them from
    :func:`~repro.core.bounds.typed_bound`), so the scan's mask, a DML
    window and the cracker all compare like with like.
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

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Which ``values`` lie in the range (NaN lies in none)."""
        keep = np.ones(len(values), dtype=bool)
        if self.low is not None:
            keep &= values >= self.low if self.low_inclusive else values > self.low
        if self.high is not None:
            keep &= values <= self.high if self.high_inclusive else values < self.high
        return keep


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
    """A non-crackable condition (``<>``), evaluated at its binding's scan."""

    binding: str
    attr: str
    op: str
    value: object

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Which ``values`` differ from the literal.  NaN is SQL's NULL
        (sqlite stores it so): a NaN on either side qualifies no row.  A
        ``value`` of None is a literal no value of the column equals."""
        if self.value is None:
            return values == values
        return (values != self.value) & (values == values) & (self.value == self.value)


@dataclass(frozen=True)
class CrackerAdvice:
    """One suggested cracker application (the §3 extraction output)."""

    op: str  # Ξ, Ψ, ^, Ω
    params: str


@dataclass
class AnalyzedQuery:
    """The resolved π-γ-σ-⋈ normal form of one SELECT.

    :func:`resolve_query` gives it with no literal folded in (no
    selections or residuals, no LIMIT) and with ``slots``: one
    ``(binding, table, attr, op, column type)`` per condition that takes
    literals, in clause order (a BETWEEN takes two).  :meth:`fold` gives a
    copy with a literal tuple folded in, so statements that differ only in
    their literals share one resolution.
    """

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
    slots: list[tuple] = field(default_factory=list)
    limited: bool = False  # the last literal is the LIMIT count

    @cached_property
    def advice(self) -> list[CrackerAdvice]:
        """The cracker advice, formatted on first read (few ever read it)."""
        return extract_crackers(self)

    def fold(self, literals: tuple) -> "AnalyzedQuery":
        """This resolution with ``literals`` (the statement's, in source
        order) in its slots and its LIMIT."""
        query = object.__new__(AnalyzedQuery)  # a shallow copy, built fast
        query.__dict__.update(self.__dict__)
        values = iter(literals)
        query.selections, query.residuals = _fold(self.slots, values)
        if self.limited:
            query.limit = int(next(values))
        return query


def analyze(stmt: SelectStmt, catalog: Catalog) -> AnalyzedQuery:
    """Resolve ``stmt`` against ``catalog`` and fold its literals."""
    return resolve_query(stmt, catalog).fold(stmt.literals())


def resolve_query(stmt: SelectStmt, catalog: Catalog) -> AnalyzedQuery:
    """The resolve step of a SELECT against ``catalog``."""
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

    def col_type(binding: str, attr: str) -> str:
        return catalog.table(bindings[binding].name).schema.column(attr).col_type

    slots, joins = _resolve_where(stmt.where, resolve, bindings, col_type)
    projections, aggregates = _resolve_items(stmt, resolve, col_type)
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
        selections=[],
        joins=joins,
        residuals=[],
        into=stmt.into,
        limit=None,
        order_by=order_by,
        widths=widths,
        slots=slots,
        limited=stmt.limit is not None,
    )


def stored_value(column: str, col_type: str, value):
    """``value`` as column ``column`` of type ``col_type`` stores it.

    The one rule INSERT (both forms) and UPDATE share: a text column
    takes only text, a numeric column only numbers, and an integer
    column stores an integral float (``3.0``) as its int and rejects
    any other float and any number outside the int64 range.

    Raises:
        SQLAnalysisError: if the column cannot store ``value``.
    """
    value = _operand(column, col_type, value)
    if col_type == "str":
        return value
    if col_type == "float":
        try:
            return float(value)
        except OverflowError:  # an int past the float64 range
            raise SQLAnalysisError(f"column {column!r} is float; got {value!r}") from None
    if not isinstance(value, Integral) and not float(value).is_integer():
        raise SQLAnalysisError(f"column {column!r} is integer; got {value!r}")
    if not INT64_MIN <= int(value) <= INT64_MAX:
        raise SQLAnalysisError(f"column {column!r} is integer; {value!r} is outside int64")
    return int(value)


@dataclass
class AnalyzedDML:
    """The resolved form of one UPDATE or DELETE (single-table σ).

    :func:`resolve_dml` gives it unfolded, with each SET column's type in
    ``columns`` and the WHERE ``slots`` (see :class:`AnalyzedQuery`).
    """

    table: str
    assignments: list[tuple[str, object]]  # (column, new value); empty = DELETE
    selections: list[RangePredicate]
    residuals: list[ResidualPredicate]
    columns: list[tuple[str, str]] = field(default_factory=list)  # (SET column, type)
    slots: list[tuple] = field(default_factory=list)

    def fold(self, literals: tuple) -> "AnalyzedDML":
        """This resolution with ``literals``: the SET values first, each
        checked by :func:`stored_value`, then the WHERE literals."""
        values = iter(literals)
        assignments = [
            (column, stored_value(column, col_type, next(values)))
            for column, col_type in self.columns
        ]
        return AnalyzedDML(
            self.table, assignments, *_fold(self.slots, values), self.columns, self.slots
        )


def resolve_dml(stmt: UpdateStmt | DeleteStmt, catalog: Catalog) -> AnalyzedDML:
    """The resolve step of an UPDATE/DELETE.

    DML targets exactly one table, so the WHERE clause resolves through
    the same slots as SELECT but with a single binding and no join
    predicates.
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

    slots, joins = _resolve_where(
        stmt.where, resolve, bindings, lambda binding, attr: schema.column(attr).col_type
    )
    if joins:
        raise SQLAnalysisError(
            "DML WHERE cannot compare columns (joins are not allowed)"
        )
    columns = []
    for assignment in getattr(stmt, "assignments", ()):
        if assignment.column not in schema:
            raise SQLAnalysisError(
                f"table {stmt.table!r} has no column {assignment.column!r}"
            )
        columns.append((assignment.column, schema.column(assignment.column).col_type))
    return AnalyzedDML(stmt.table, [], [], [], columns, slots)


#: A condition's bounds: (sets low, sets high, inclusive).
_BOUNDS = {
    "between": (True, True, True),
    "=": (True, True, True),
    "<": (False, True, False),
    "<=": (False, True, True),
    ">": (True, False, False),
    ">=": (True, False, True),
}


def _resolve_where(where, resolve, bindings, col_type) -> tuple[list, list]:
    """The slots and the join predicates of a WHERE conjunction."""
    slots: list[tuple] = []
    joins: list[JoinPredicate] = []
    for condition in where:
        if isinstance(condition, Between):
            binding, attr = resolve(condition.col)
            slots.append(
                (binding, bindings[binding].name, attr, "between", col_type(binding, attr))
            )
            continue
        if not isinstance(condition, Comparison):  # pragma: no cover - defensive
            raise SQLAnalysisError(f"unsupported condition {condition!r}")
        op = condition.op
        if isinstance(condition.right, ColRef):
            left_binding, left_attr = resolve(condition.left)
            right_binding, right_attr = resolve(condition.right)
            if op != "=":
                raise SQLAnalysisError(
                    f"only equi-joins are supported, got {op!r}"
                )
            if left_binding == right_binding:
                raise SQLAnalysisError(
                    "column-to-column comparison within one table is not supported"
                )
            joins.append(
                JoinPredicate(left_binding, left_attr, right_binding, right_attr)
            )
            continue
        binding, attr = resolve(condition.left)
        if op == "<>":
            op = "!="
        elif op != "!=" and op not in _BOUNDS:  # pragma: no cover - parser restricts ops
            raise SQLAnalysisError(f"unsupported operator {op!r}")
        slots.append((binding, bindings[binding].name, attr, op, col_type(binding, attr)))
    return slots, joins


def _fold(slots: list, values) -> tuple[list, list]:
    """The range and residual predicates of ``slots``, each taking its
    literals from the iterator ``values`` in clause order, each literal
    checked against and typed in its column's type."""
    selections: dict[tuple[str, str], RangePredicate] = {}
    residuals: list[ResidualPredicate] = []
    for binding, table, attr, op, col_type in slots:
        value = next(values)
        if op == "!=":
            residuals.append(ResidualPredicate(binding, attr, "!=", _point(attr, col_type, value)))
            continue
        sets_low, sets_high, inclusive = _BOUNDS[op]
        high = next(values) if op == "between" else value
        _merge_range(
            selections, binding, table, attr,
            _bound(attr, col_type, value, "low", inclusive) if sets_low else None,
            _bound(attr, col_type, high, "high", inclusive) if sets_high else None,
        )
    return list(selections.values()), residuals


def _merge_range(selections, binding, table, attr, low, high) -> None:
    """Narrow ``binding.attr``'s range by one pair of typed bounds, each
    ``(value, inclusive)``, None (open) or ``EMPTY``.

    An empty side makes the range ``0 < attr <= 0``, which no value
    passes and no later bound widens (0 compares exactly with either
    numeric type).  A contradictory conjunction stays as it is: it
    selects nothing, and the planner gives the empty answer.
    """
    key = (binding, attr)
    predicate = selections.get(key)
    if predicate is None:
        predicate = selections[key] = RangePredicate(binding, table, attr)
    if low is EMPTY or high is EMPTY:
        predicate.low, predicate.low_inclusive, predicate.high, predicate.high_inclusive = (
            0, False, 0, True
        )
        return
    if low is not None:
        value, inclusive = low
        if predicate.low is None or value > predicate.low or (
            value == predicate.low and not inclusive
        ):
            predicate.low, predicate.low_inclusive = low
    if high is not None:
        value, inclusive = high
        if predicate.high is None or value < predicate.high or (
            value == predicate.high and not inclusive
        ):
            predicate.high, predicate.high_inclusive = high


def _operand(column: str, col_type: str, value):
    """``value``, if column ``column`` of ``col_type`` can store or
    compare with it: text for a varchar column, a number for a numeric
    one."""
    if col_type == "str":
        if isinstance(value, str):
            return value
        raise SQLAnalysisError(f"column {column!r} is text; got {value!r}")
    if type(value) is int or isinstance(value, Real):
        return value
    raise SQLAnalysisError(f"column {column!r} is numeric; got {value!r}")


def _bound(attr: str, col_type: str, value, side: str, inclusive: bool):
    """``attr θ value`` as the ``side`` bound in the column's type
    (:func:`~repro.core.bounds.typed_bound`; a varchar's as it is),
    once :func:`_operand` accepts ``value``."""
    if type(value) is int and col_type == "int" and INT64_MIN <= value <= INT64_MAX:
        return value, inclusive  # the common case, unchanged
    value = _operand(attr, col_type, value)
    if col_type == "str":
        return value, inclusive
    return typed_bound(value, side, inclusive, col_type == "int")


def _point(attr: str, col_type: str, value):
    """The value of the column's type equal to ``value``: ``value``
    itself for varchar and NaN, None when the column holds no value
    equal to it (``5.5`` on an int column)."""
    value = _operand(attr, col_type, value)
    if col_type == "str" or value != value:
        return value
    point = _bound(attr, col_type, value, "low", True)
    return point[0] if point == _bound(attr, col_type, value, "high", True) else None


def _resolve_items(stmt: SelectStmt, resolve, col_type):
    projections: list[str] = []
    aggregates: list[tuple[str, str | None]] = []
    saw_star = False
    for item in stmt.items:
        if isinstance(item, Star):
            saw_star = True
        elif isinstance(item, AggCall):
            if isinstance(item.arg, Star):
                if item.fn != "count":
                    raise SQLAnalysisError(f"{item.fn}(*) is not supported; only count(*)")
                aggregates.append((item.fn, None))
            else:
                binding, attr = resolve(item.arg)
                if item.fn in ("sum", "avg") and col_type(binding, attr) == "str":
                    raise SQLAnalysisError(
                        f"{item.fn}({attr}) needs a numeric column; {attr!r} is text"
                    )
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
