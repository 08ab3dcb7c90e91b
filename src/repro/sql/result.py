"""The result of a completed statement: :class:`QueryResult`."""

from __future__ import annotations

import numpy as np

from repro.errors import SQLAnalysisError
from repro.sql.analyzer import AnalyzedQuery, RangeCount


def _column_array(values) -> np.ndarray:
    """One column of row values as an array: a numeric dtype when every
    value has one, else object (varchar, NULLs, mixed types)."""
    try:
        array = np.asarray(values)
    except (ValueError, OverflowError):  # ragged or oversized cells
        array = None
    if array is not None and array.ndim == 1 and array.dtype.kind in "biuf":
        return array
    return np.fromiter(values, dtype=object, count=len(values))


class QueryResult:
    """Column names and data of a completed statement — one result, two faces.

    A result is built from whichever form its producer has, and derives
    the other on first access, cached:

    * ``rows`` — ``list[tuple]``.  Primary for row-native results (COUNT
      pushdown, DML, EXPLAIN); for a columnar result it is built with
      ``tolist()`` per column on first read.  Either way the rows hold
      plain ``int``/``float``/``str``/``None``, never numpy scalars.
    * ``arrays`` — ``{column name: ndarray}``, object dtype for varchar,
      NULL-bearing and mixed-type columns.  Primary for every other
      SELECT and for bulk replies decoded by the client, which are
      never turned into tuples unless ``rows`` is read.

    ``codes`` maps a varchar column's name to the heap codes its values
    were decoded from, ``(codes, atoms)`` with ``atoms[codes]`` equal to
    ``arrays[name]``, for each column whose codes survived the plan
    (see :class:`~repro.volcano.vectorized.ColumnBatch`); the wire
    encoder ships those codes as they are.  Empty otherwise.

    The result owns its data: no array is a view of cracker or BAT
    storage, so a held result never changes under a later crack, merge
    or update and keeps no storage generation alive.  The codes are
    fresh gathers, and an atoms array is never written once a heap has
    handed it out.
    """

    def __init__(
        self,
        columns: list[str],
        rows: list[tuple] | None = None,
        affected: int = 0,
        query: AnalyzedQuery | RangeCount | None = None,
        arrays: dict[str, np.ndarray] | None = None,
        codes: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> None:
        self.columns = columns
        self.codes = {} if codes is None else codes
        self.affected = affected
        self._query = query
        self._arrays = arrays
        self._rows = [] if rows is None and arrays is None else rows

    def __repr__(self) -> str:
        return (
            f"QueryResult(columns={self.columns!r}, rows={self.row_count}, "
            f"affected={self.affected})"
        )

    @property
    def rows(self) -> list[tuple]:
        if self._rows is None:
            self._rows = list(
                zip(*[self._arrays[name].tolist() for name in self.columns])
            )
        return self._rows

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        if self._arrays is None:
            cells = list(zip(*self._rows)) or [()] * len(self.columns)
            self._arrays = {
                name: _column_array(values)
                for name, values in zip(self.columns, cells)
            }
        return self._arrays

    @property
    def advice(self) -> list:
        """The producing SELECT's cracker advice, formatted on first read."""
        return [] if self._query is None else self._query.advice

    @property
    def row_count(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._arrays[self.columns[0]]) if self.columns else 0

    def scalar(self):
        """The single value of a 1×1 result (e.g. SELECT count(*) ...)."""
        if self.row_count != 1 or len(self.rows[0]) != 1:
            raise SQLAnalysisError(
                f"scalar() needs a 1x1 result, got {self.row_count} rows"
            )
        return self.rows[0][0]
