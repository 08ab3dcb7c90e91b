"""The n-ary relational layer over BATs.

MonetDB's SQL compiler maps an n-ary table into one ``[oid, value]`` BAT
per attribute, all head-aligned on the same dense oid sequence (paper
§3.4.2).  :class:`Relation` reproduces that mapping and is the unit the
engines, the SQL front-end and the crackers operate on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import BATAlignmentError, CatalogError, StorageError
from repro.storage.bat import BAT, TAIL_DTYPES


@dataclass(frozen=True)
class Column:
    """Schema entry: attribute ``name`` of ``col_type``.

    ``col_type`` is one of the BAT tail types: 'int', 'float', 'str'.
    """

    name: str
    col_type: str

    def __post_init__(self) -> None:
        if self.col_type not in TAIL_DTYPES or self.col_type == "oid":
            raise CatalogError(f"unsupported column type {self.col_type!r}")


class Schema:
    """An ordered collection of :class:`Column` definitions."""

    def __init__(self, columns: Sequence[Column]) -> None:
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in schema: {names}")
        self.columns = list(columns)
        self._by_name = {column.name: column for column in columns}

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                f"unknown column {name!r}; schema has {[c.name for c in self.columns]}"
            ) from None

    def names(self) -> list[str]:
        """Column names in schema order."""
        return [column.name for column in self.columns]

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema restricted to ``names`` (in the given order)."""
        return Schema([self.column(name) for name in names])


class Relation:
    """An n-ary table stored as head-aligned BATs, one per column.

    The oids are dense (void heads), so reconstructing a tuple is a
    positional lookup across the column BATs — the 1:1 surrogate join the
    paper's Ψ-cracker relies on.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self.bats: dict[str, BAT] = {
            column.name: BAT(f"{name}.{column.name}", tail_type=column.col_type)
            for column in schema
        }
        # Serialises writers (reentrant, so callers can bundle "read the
        # row count, then insert" into one atomic section).  Readers are
        # lock-free: BAT appends publish the new count last, so a
        # concurrent scan sees either the pre- or post-insert snapshot.
        self.write_lock = threading.RLock()
        # DELETE tombstones: sorted storage positions that are logically
        # gone.  Oids are dense void heads referenced by the crackers, so
        # storage is never compacted and oids are never reused — a deleted
        # position simply stops being visible to scans.
        self._deleted: np.ndarray = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_columns(
        cls, name: str, schema: Schema, column_data: dict[str, Sequence]
    ) -> "Relation":
        """Bulk-build a relation from per-column value sequences."""
        missing = [c.name for c in schema if c.name not in column_data]
        if missing:
            raise CatalogError(f"missing data for columns {missing}")
        lengths = {key: len(values) for key, values in column_data.items()}
        if len(set(lengths.values())) > 1:
            raise BATAlignmentError(f"ragged column data: {lengths}")
        relation = cls(name, schema)
        for column in schema:
            relation.bats[column.name] = BAT.from_values(
                f"{name}.{column.name}",
                column_data[column.name],
                tail_type=column.col_type,
            )
        return relation

    @classmethod
    def from_rows(
        cls, name: str, schema: Schema, rows: Iterable[Sequence]
    ) -> "Relation":
        """Bulk-build a relation from an iterable of row tuples."""
        rows = list(rows)
        columns = {c.name: [row[i] for row in rows] for i, c in enumerate(schema)}
        return cls.from_columns(name, schema, columns)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(next(iter(self.bats.values()))) if self.bats else 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Relation({self.name!r}, {self.schema.names()}, rows={len(self)})"

    @property
    def nbytes(self) -> int:
        """Active bytes across all column BATs."""
        return sum(bat.nbytes for bat in self.bats.values())

    @property
    def tuple_bytes(self) -> int:
        """Width of one n-ary tuple in bytes (sum of column widths)."""
        return sum(bat.tail_array().itemsize for bat in self.bats.values()) or 8

    def column(self, name: str) -> BAT:
        """The BAT backing column ``name``."""
        self.schema.column(name)  # validates
        return self.bats[name]

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def insert(self, row: Sequence) -> int:
        """Append one tuple; returns its oid."""
        if len(row) != len(self.schema):
            raise BATAlignmentError(
                f"row has {len(row)} values, schema has {len(self.schema)} columns"
            )
        with self.write_lock:
            oid = len(self)
            for value, column in zip(row, self.schema):
                self.bats[column.name].append(value)
        return oid

    def insert_many(self, rows: Iterable[Sequence]) -> int:
        """Append many tuples; returns the count inserted."""
        rows = list(rows)
        if not rows:
            return 0
        with self.write_lock:
            for i, column in enumerate(self.schema):
                self.bats[column.name].append_many([row[i] for row in rows])
        return len(rows)

    def delete_positions(self, positions: np.ndarray) -> int:
        """Tombstone the rows at ``positions``; returns how many were live.

        Idempotent per position: re-deleting a tombstoned row is a no-op
        (and not counted).  Storage is untouched — visibility changes only.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return 0
        with self.write_lock:
            if positions.size and (
                positions.min() < 0 or positions.max() >= len(self)
            ):
                raise StorageError(
                    f"delete position out of range 0..{len(self) - 1}"
                )
            # ``_deleted`` stays sorted and unique: two binary searches
            # find the positions not yet in it, one insert places them.
            positions = np.sort(positions)
            deleted = self._deleted
            at = deleted.searchsorted(positions)
            fresh = at == deleted.searchsorted(positions, "right")
            fresh[1:] &= positions[1:] != positions[:-1]
            if fresh.any():
                self._deleted = np.insert(deleted, at[fresh], positions[fresh])
            return int(np.count_nonzero(fresh))

    def update_positions(self, positions: np.ndarray, assignments: dict) -> int:
        """Overwrite columns in place at ``positions`` (UPDATE path).

        ``assignments`` maps column name -> per-row value array (aligned
        with ``positions``).  Returns the row count touched.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return 0
        with self.write_lock:
            for name, values in assignments.items():
                self.column(name).set_many(positions, values)
        return int(positions.size)

    @property
    def deleted_count(self) -> int:
        return int(self._deleted.size)

    @property
    def live_count(self) -> int:
        """Visible rows: physical count minus tombstones."""
        return len(self) - self.deleted_count

    def deleted_positions(self) -> np.ndarray:
        """Sorted tombstoned positions (a copy; snapshot/rollback payload)."""
        return self._deleted.copy()

    def set_deleted_positions(self, positions: np.ndarray) -> None:
        """Replace the tombstone set (recovery and transaction rollback)."""
        with self.write_lock:
            self._deleted = np.unique(np.asarray(positions, dtype=np.int64))

    def live_mask(self, total: int | None = None) -> np.ndarray:
        """Boolean visibility mask over positions ``[0, total)``."""
        if total is None:
            total = len(self)
        mask = np.ones(total, dtype=bool)
        deleted = self._deleted
        if deleted.size:
            mask[deleted[deleted < total]] = False
        return mask

    def live_positions(self, total: int | None = None) -> np.ndarray:
        """Storage positions of the visible rows, ascending."""
        return np.flatnonzero(self.live_mask(total))

    # ------------------------------------------------------------------ #
    # Tuple access
    # ------------------------------------------------------------------ #

    def row_at(self, position: int) -> tuple:
        """Reconstruct the tuple at storage ``position``."""
        if not 0 <= position < len(self):
            raise StorageError(f"row position {position} out of range 0..{len(self) - 1}")
        values = []
        for column in self.schema:
            bat = self.bats[column.name]
            if column.col_type == "str":
                assert bat.heap is not None
                values.append(bat.heap.get(int(bat.tail_array()[position])))
            else:
                values.append(bat.tail_array()[position])
        return tuple(values)

    def rows_at(self, positions: np.ndarray) -> list[tuple]:
        """Reconstruct tuples at the given storage positions (vectorised)."""
        columns = []
        for column in self.schema:
            bat = self.bats[column.name]
            raw = bat.tail_array()[positions]
            if column.col_type == "str":
                assert bat.heap is not None
                columns.append(bat.heap.get_many(raw))
            else:
                columns.append(raw)
        return list(zip(*columns)) if columns else []

    def iter_rows(self) -> Iterator[tuple]:
        """Tuple-at-a-time iteration over the *visible* rows."""
        if self.deleted_count == 0:
            for position in range(len(self)):
                yield self.row_at(position)
            return
        for position in self.live_positions():
            yield self.row_at(int(position))

    def column_values(self, name: str) -> np.ndarray | list:
        """All decoded values of one column."""
        return self.column(name).tail_values()

    def column_arrays(
        self,
        names: Sequence[str] | None = None,
        positions: np.ndarray | None = None,
    ) -> list[np.ndarray]:
        """Batch accessor: one decoded array per column, schema order.

        Numeric columns alias BAT storage when ``positions`` is None (the
        zero-copy scan path of the vectorized executor); with positions the
        gather is one fancy-index per column.

        Full scans are clamped to the shortest column: a concurrent
        INSERT publishes the column BATs one after another, so a scan
        racing it could otherwise pair a column that already holds the
        new rows with one that does not.  Clamping yields only fully
        published rows — the pre-insert snapshot for the in-flight ones.
        """
        chosen = self.schema.names() if names is None else list(names)
        arrays = [self.column(name).decoded_array(positions) for name in chosen]
        if positions is None and len(arrays) > 1:
            shortest = min(len(array) for array in arrays)
            if any(len(array) != shortest for array in arrays):
                arrays = [array[:shortest] for array in arrays]
        return arrays

    # ------------------------------------------------------------------ #
    # Fragmentation primitives (substrate for the crackers)
    # ------------------------------------------------------------------ #

    def vertical_fragment(
        self, names: Sequence[str], fragment_name: str | None = None
    ) -> "Relation":
        """Ψ substrate: a new relation holding only ``names`` (+ implicit oid).

        The fragment shares the dense oid domain with the source, so a 1:1
        surrogate join reconstructs the original table.
        """
        target = fragment_name if fragment_name is not None else f"{self.name}#v"
        schema = self.schema.project(names)
        fragment = Relation(target, schema)
        for column in schema:
            source = self.bats[column.name]
            fragment.bats[column.name] = BAT.from_values(
                f"{target}.{column.name}",
                source.tail_values()
                if column.col_type == "str"
                else source.tail_array(),
                tail_type=column.col_type,
            )
        return fragment

    def horizontal_fragment(
        self, positions: np.ndarray, fragment_name: str | None = None
    ) -> "Relation":
        """Ξ substrate: a new relation holding the tuples at ``positions``."""
        target = fragment_name if fragment_name is not None else f"{self.name}#h"
        fragment = Relation(target, self.schema)
        positions = np.asarray(positions, dtype=np.int64)
        for column in self.schema:
            source = self.bats[column.name]
            raw = source.tail_array()[positions]
            values = (
                source.heap.get_many(raw)
                if column.col_type == "str" and source.heap is not None
                else raw
            )
            fragment.bats[column.name] = BAT.from_values(
                f"{target}.{column.name}", values, tail_type=column.col_type
            )
        return fragment
