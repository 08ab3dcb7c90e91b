"""Abstract syntax tree for the SQL subset: the parts of a statement.

The statements themselves are :mod:`repro.sql.statements`."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ColRef:
    """A (possibly table-qualified) column reference."""

    table: str | None
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Const:
    """A literal constant (int, float or str)."""

    value: object


@dataclass(frozen=True)
class Star:
    """SELECT * (optionally table-qualified)."""

    table: str | None = None


@dataclass(frozen=True)
class AggCall:
    """An aggregate call, e.g. count(*), sum(a)."""

    fn: str
    arg: ColRef | Star


@dataclass(frozen=True)
class Comparison:
    """``left op right`` where op ∈ {=, <>, !=, <, <=, >, >=}."""

    left: ColRef
    op: str
    right: ColRef | Const

    def literals(self) -> tuple:
        return (self.right.value,) if isinstance(self.right, Const) else ()


@dataclass(frozen=True)
class Between:
    """``col BETWEEN low AND high`` (inclusive on both sides)."""

    col: ColRef
    low: Const
    high: Const

    def literals(self) -> tuple:
        return (self.low.value, self.high.value)


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause entry with an optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias if self.alias else self.name


@dataclass
class OrderItem:
    """One ORDER BY entry: a column and a direction."""

    col: ColRef
    descending: bool = False


@dataclass(frozen=True)
class Assignment:
    """One ``col = literal`` entry of an UPDATE's SET list."""

    column: str
    value: Const
