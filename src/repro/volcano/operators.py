"""Volcano-style iterator operators (Graefe's model, paper §3.4.1).

"Most systems use a Volcano-like query evaluation scheme.  Tuples are read
from source relations and passed up the tree through filter-, join-, and
projection-nodes."  This module implements that scheme tuple-at-a-time —
deliberately, because it is the cost profile of the traditional engines
the paper measures (MySQL/PostgreSQL/SQLite class).

Each operator exposes ``columns`` (qualified output column names) and is
iterable, yielding plain tuples.  These are the scans, filters and joins
of :class:`~repro.engines.rowstore.RowStoreEngine` (and the row-store
side of :class:`~repro.engines.sql_cracking.SQLCrackingEngine`); the SQL
planner builds the batch tree of :mod:`repro.volcano.vectorized`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.errors import ExecutionError
from repro.storage.table import Relation


def resolve_column(columns: list[str], name: str) -> int:
    """Index of ``name`` among qualified ``columns``.

    Accepts both qualified (``R.a``) and bare (``a``) names; bare names
    must be unambiguous.  Shared by the tuple and vectorized operators so
    both resolve (and report) column references identically.
    """
    if name in columns:
        return columns.index(name)
    matches = [i for i, c in enumerate(columns) if c.split(".")[-1] == name]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ExecutionError(f"unknown column {name!r}; have {columns}")
    raise ExecutionError(f"ambiguous column {name!r}; have {columns}")


class Operator:
    """Base class: an iterable of tuples with named output columns."""

    columns: list[str]

    def column_index(self, name: str) -> int:
        """Index of ``name`` in the output tuples (bare names allowed)."""
        return resolve_column(self.columns, name)


class Scan(Operator):
    """Sequential scan of a relation, tuple-at-a-time."""

    def __init__(self, relation: Relation, alias: str | None = None) -> None:
        self.relation = relation
        prefix = alias if alias is not None else relation.name
        self.columns = [f"{prefix}.{name}" for name in relation.schema.names()]

    def __iter__(self) -> Iterator[tuple]:
        return relation_rows(self.relation)


def relation_rows(relation: Relation) -> Iterator[tuple]:
    """Yield the visible rows of a relation positionally (row-store path)."""
    arrays = []
    for column in relation.schema:
        bat = relation.bats[column.name]
        if column.col_type == "str":
            arrays.append(bat.tail_values())
        else:
            arrays.append(bat.tail_array())
    if relation.deleted_count:
        total = min(len(a) for a in arrays) if arrays else 0
        live = relation.live_positions(total)
        arrays = [
            [a[i] for i in live] if isinstance(a, list) else a[live]
            for a in arrays
        ]
    yield from zip(*arrays)


class Select(Operator):
    """Filter: passes tuples satisfying ``predicate(row)``."""

    def __init__(self, child: Operator, predicate: Callable[[tuple], bool]) -> None:
        self.child = child
        self.predicate = predicate
        self.columns = list(child.columns)

    def __iter__(self) -> Iterator[tuple]:
        predicate = self.predicate
        for row in self.child:
            if predicate(row):
                yield row


class NestedLoopJoin(Operator):
    """Equi-join by nested loops — the optimizer's fallback plan.

    This is what Figure 9 shows row engines collapsing to when the join
    optimizer exhausts its search budget: cost O(|L| · |R|).
    The right input is buffered (it is re-read once per left tuple).
    """

    def __init__(
        self, left: Operator, right: Operator, left_col: str, right_col: str
    ) -> None:
        self.left = left
        self.right = right
        self._left_idx = left.column_index(left_col)
        self._right_idx = right.column_index(right_col)
        self.columns = list(left.columns) + list(right.columns)

    def __iter__(self) -> Iterator[tuple]:
        right_rows = list(self.right)
        left_idx = self._left_idx
        right_idx = self._right_idx
        for left_row in self.left:
            key = left_row[left_idx]
            for right_row in right_rows:
                if right_row[right_idx] == key:
                    yield left_row + right_row


class HashJoin(Operator):
    """Equi-join building a hash table on the right input: O(|L| + |R|)."""

    def __init__(
        self, left: Operator, right: Operator, left_col: str, right_col: str
    ) -> None:
        self.left = left
        self.right = right
        self._left_idx = left.column_index(left_col)
        self._right_idx = right.column_index(right_col)
        self.columns = list(left.columns) + list(right.columns)

    def __iter__(self) -> Iterator[tuple]:
        table: dict = {}
        right_idx = self._right_idx
        for right_row in self.right:
            table.setdefault(right_row[right_idx], []).append(right_row)
        left_idx = self._left_idx
        for left_row in self.left:
            for right_row in table.get(left_row[left_idx], ()):
                yield left_row + right_row


class PrintSink:
    """Format rows into an in-memory text sink (Figure 1b's delivery mode)."""

    def __init__(self) -> None:
        self.lines = 0
        self.bytes_written = 0

    def drain(self, operator: Iterable[tuple]) -> int:
        """Format every row; returns the row count."""
        for row in operator:
            text = "|".join(str(value) for value in row)
            self.lines += 1
            self.bytes_written += len(text) + 1
        return self.lines
