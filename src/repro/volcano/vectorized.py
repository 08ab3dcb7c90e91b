"""Vectorized batch executor: the columnar peer of the Volcano pipeline.

The tuple-at-a-time operators in :mod:`repro.volcano.operators` model the
traditional engines the paper measures against; this module is the engine
the paper *argues for*: operators exchange :class:`ColumnBatch` objects
(one numpy array per column plus an optional selection vector) so joins,
aggregates and sorts run as array kernels instead of per-row interpreter
work.  Crucially, a cracked range selection enters the pipeline zero-copy:
:class:`VecCrackedScan` passes the ``SelectionResult`` span of the cracker
column straight through as the first batch (§3.4.2 — "the MonetDB BATviews
provide a cheap representation of the newly created table").

Both executors produce identical result sets; the differential test suite
asserts it query-by-query.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.storage.table import Column, Relation, Schema
from repro.volcano.operators import resolve_column

#: Rows per scan batch; large enough to amortise dispatch, small enough to
#: stay cache-resident for the common 8-byte column.
DEFAULT_BATCH_ROWS = 65_536


def vector_equi_join(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All (left_index, right_index) pairs with equal keys (inner join).

    Sort-merge with duplicate handling: right keys are sorted once; for
    each left key the matching run is located by binary search, and runs
    are expanded with ``np.repeat``.  O((|L|+|R|) log |R|) — the BAT-join
    discipline that keeps Figure 9's MonetDB line flat.

    Output order is left-major with right matches in storage order, the
    same order the tuple-mode :class:`~repro.volcano.operators.HashJoin`
    produces.
    """
    order = np.argsort(right_keys, kind="stable")
    return join_probe(left_keys, right_keys[order], order)


def join_probe(
    left_keys: np.ndarray, sorted_right: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The probe half of :func:`vector_equi_join`, given a pre-sorted right
    side — lets a join operator sort the build side once and probe it with
    many left batches."""
    starts = np.searchsorted(sorted_right, left_keys, side="left")
    stops = np.searchsorted(sorted_right, left_keys, side="right")
    run_lengths = stops - starts
    matched = run_lengths > 0
    left_idx = np.repeat(np.flatnonzero(matched), run_lengths[matched])
    if len(left_idx) == 0:
        return left_idx.astype(np.int64), np.empty(0, dtype=np.int64)
    offsets = np.concatenate(
        [np.arange(s, e) for s, e in zip(starts[matched], stops[matched])]
    )
    right_idx = order[offsets]
    return left_idx.astype(np.int64), right_idx.astype(np.int64)


class ColumnBatch:
    """A batch of rows in columnar form.

    ``arrays`` holds one aligned numpy array per entry of ``columns``
    (int64/float64 for numeric columns, object arrays of decoded strings).
    ``sel`` is an optional selection vector: positions into the arrays
    that are logically present.  Filters compose selection vectors instead
    of gathering, so a chain of selections costs one gather at the first
    operator that needs contiguous data.
    """

    __slots__ = ("columns", "arrays", "sel")

    def __init__(
        self,
        columns: list[str],
        arrays: list[np.ndarray],
        sel: np.ndarray | None = None,
    ) -> None:
        self.columns = columns
        self.arrays = arrays
        self.sel = sel

    def __len__(self) -> int:
        if self.sel is not None:
            return len(self.sel)
        return len(self.arrays[0]) if self.arrays else 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ColumnBatch({self.columns}, rows={len(self)})"

    def column(self, index: int) -> np.ndarray:
        """The logical values of one column (selection vector applied)."""
        array = self.arrays[index]
        return array if self.sel is None else array[self.sel]

    def compact(self) -> "ColumnBatch":
        """Apply the selection vector, making every array contiguous."""
        if self.sel is None:
            return self
        return ColumnBatch(self.columns, [a[self.sel] for a in self.arrays])

    def rows(self) -> Iterator[tuple]:
        """Decode into row tuples (the mode boundary, for delivery only)."""
        compacted = self.compact()
        if not compacted.arrays:
            return iter(())
        return zip(*compacted.arrays)


class VecOperator:
    """Base class: a stream of :class:`ColumnBatch` with named columns.

    Iterating a vectorized operator yields row tuples (decoding each batch
    at the boundary), so result delivery is interchangeable with the tuple
    pipeline.
    """

    columns: list[str]

    def batches(self) -> Iterator[ColumnBatch]:  # pragma: no cover - abstract
        raise NotImplementedError

    def column_index(self, name: str) -> int:
        """Index of ``name`` in the output columns (bare names allowed)."""
        return resolve_column(self.columns, name)

    def __iter__(self) -> Iterator[tuple]:
        for batch in self.batches():
            yield from batch.rows()


def concat_batches(operator: VecOperator) -> ColumnBatch | None:
    """Drain an operator into one compacted batch (None when empty).

    This is the batch-mode pipeline breaker used by sort, aggregation and
    the build side of joins.
    """
    parts = [batch.compact() for batch in operator.batches()]
    parts = [batch for batch in parts if len(batch)]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    arrays = [
        np.concatenate([part.arrays[i] for part in parts])
        for i in range(len(parts[0].arrays))
    ]
    return ColumnBatch(parts[0].columns, arrays)


def count_batch_rows(operator: VecOperator) -> int:
    """Drain an operator counting rows without decoding tuples."""
    return sum(len(batch) for batch in operator.batches())


def _scan_names(
    relation: Relation, needed: Sequence[str] | None, carrier: str | None = None
) -> list[str]:
    """The columns a scan delivers, in schema order (``needed`` None = all).

    A scan nothing above it reads (a bare ``count(*)``) still has to
    carry the row count: it keeps ``carrier``, else the first column
    that needs no varchar decode.
    """
    names = relation.schema.names()
    if needed is None:
        return names
    keep = set(needed)
    kept = [name for name in names if name in keep]
    if kept:
        return kept
    if carrier is None:
        carrier = min(names, key=lambda n: relation.column(n).tail_type == "str")
    return [carrier]


class VecScan(VecOperator):
    """Sequential scan delivering the ``needed`` columns in batches."""

    def __init__(
        self,
        relation: Relation,
        alias: str | None = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        needed: Sequence[str] | None = None,
    ) -> None:
        if batch_rows < 1:
            raise ExecutionError(f"batch_rows must be >= 1, got {batch_rows}")
        self.relation = relation
        self.batch_rows = batch_rows
        self._names = _scan_names(relation, needed)
        prefix = alias if alias is not None else relation.name
        self.columns = [f"{prefix}.{name}" for name in self._names]

    def batches(self) -> Iterator[ColumnBatch]:
        arrays = self.relation.column_arrays(self._names)
        # Row count from the gathered snapshot, not the live relation: a
        # concurrent insert may have grown the BATs since the gather.
        total = len(arrays[0]) if arrays else 0
        if self.relation.deleted_count:
            # DELETE tombstones: gather only the visible rows once, so
            # downstream operators never see a dead tuple.
            live = self.relation.live_positions(total)
            arrays = [a[live] for a in arrays]
            total = len(live)
        for start in range(0, total, self.batch_rows):
            stop = min(start + self.batch_rows, total)
            yield ColumnBatch(self.columns, [a[start:stop] for a in arrays])


class VecCrackedScan(VecOperator):
    """The cracked answer as the pipeline's first batch — zero-copy.

    ``result.values`` (the contiguous span of the cracker column) is
    passed through as the predicate column's array without copying; the
    sibling columns in ``needed`` (None = all) are fetched with one bulk
    gather each at ``result.oids`` (dense void heads make oids storage
    positions), and the rest are never reconstructed.  There is no
    per-row work anywhere.
    """

    def __init__(
        self,
        relation: Relation,
        attr: str,
        result,
        alias: str | None = None,
        needed: Sequence[str] | None = None,
    ) -> None:
        prefix = alias if alias is not None else relation.name
        self.relation = relation
        self.attr = attr
        self.result = result
        self._names = _scan_names(relation, needed, carrier=attr)
        self.columns = [f"{prefix}.{name}" for name in self._names]

    def batches(self) -> Iterator[ColumnBatch]:
        result = self.result
        positions = np.asarray(result.oids, dtype=np.int64)
        arrays = []
        for name in self._names:
            if name == self.attr:
                arrays.append(result.values)
            else:
                arrays.append(self.relation.column(name).decoded_array(positions))
        yield ColumnBatch(self.columns, arrays)


class VecSelect(VecOperator):
    """Filter composing selection vectors — no gathering, no row loop."""

    def __init__(
        self,
        child: VecOperator,
        name: str,
        mask_fn: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        self.child = child
        self._index = child.column_index(name)
        self.mask_fn = mask_fn
        self.columns = list(child.columns)

    def batches(self) -> Iterator[ColumnBatch]:
        for batch in self.child.batches():
            values = batch.column(self._index)
            mask = np.asarray(self.mask_fn(values), dtype=bool)
            hits = np.flatnonzero(mask)
            if len(hits) == 0:
                continue
            sel = hits if batch.sel is None else batch.sel[hits]
            yield ColumnBatch(batch.columns, batch.arrays, sel)


class VecProject(VecOperator):
    """Projection: reorders the array list; zero-copy per batch."""

    def __init__(self, child: VecOperator, names: list[str]) -> None:
        self.child = child
        self._indices = [child.column_index(name) for name in names]
        self.columns = [child.columns[i] for i in self._indices]

    def batches(self) -> Iterator[ColumnBatch]:
        for batch in self.child.batches():
            yield ColumnBatch(
                self.columns, [batch.arrays[i] for i in self._indices], batch.sel
            )


class VecHashJoin(VecOperator):
    """Batch equi-join: drain the right input once, then join each left
    batch with the sort-merge kernel.

    Output order matches the tuple-mode HashJoin exactly: left-major,
    with each left row's right matches in right storage order (the kernel
    uses a stable sort of the right keys).
    """

    def __init__(
        self, left: VecOperator, right: VecOperator, left_col: str, right_col: str
    ) -> None:
        self.left = left
        self.right = right
        self._left_idx = left.column_index(left_col)
        self._right_idx = right.column_index(right_col)
        self.columns = list(left.columns) + list(right.columns)

    def batches(self) -> Iterator[ColumnBatch]:
        right_batch = concat_batches(self.right)
        if right_batch is None:
            return
        # Build once: sort the right keys a single time, probe per batch.
        right_keys = right_batch.arrays[self._right_idx]
        order = np.argsort(right_keys, kind="stable")
        sorted_right = right_keys[order]
        for batch in self.left.batches():
            batch = batch.compact()
            if len(batch) == 0:
                continue
            left_idx, right_idx = join_probe(
                batch.arrays[self._left_idx], sorted_right, order
            )
            if len(left_idx) == 0:
                continue
            arrays = [a[left_idx] for a in batch.arrays]
            arrays += [a[right_idx] for a in right_batch.arrays]
            yield ColumnBatch(self.columns, arrays)


class VecSort(VecOperator):
    """Full sort on one column (pipeline breaker), stable like the tuple
    Sort so stacked multi-key sorts agree between modes."""

    def __init__(self, child: VecOperator, name: str, descending: bool = False) -> None:
        self.child = child
        self._index = child.column_index(name)
        self.descending = descending
        self.columns = list(child.columns)

    def batches(self) -> Iterator[ColumnBatch]:
        batch = concat_batches(self.child)
        if batch is None:
            return
        values = batch.arrays[self._index]
        if not self.descending:
            order = np.argsort(values, kind="stable")
        else:
            # Stable descending (ties keep input order, like
            # sorted(reverse=True)): stable-sort the reversed array, map
            # back to original indices, then reverse.
            n = len(values)
            order = (n - 1 - np.argsort(values[::-1], kind="stable"))[::-1]
        yield ColumnBatch(self.columns, [a[order] for a in batch.arrays])


class VecLimit(VecOperator):
    """Pass at most ``n`` rows, stopping the batch stream early."""

    def __init__(self, child: VecOperator, n: int) -> None:
        if n < 0:
            raise ExecutionError(f"LIMIT must be >= 0, got {n}")
        self.child = child
        self.n = n
        self.columns = list(child.columns)

    def batches(self) -> Iterator[ColumnBatch]:
        remaining = self.n
        if remaining == 0:
            return
        for batch in self.child.batches():
            size = len(batch)
            if size == 0:
                continue
            if size <= remaining:
                yield batch
                remaining -= size
            else:
                batch = batch.compact()
                yield ColumnBatch(
                    batch.columns, [a[:remaining] for a in batch.arrays]
                )
                remaining = 0
            if remaining == 0:
                return


#: Aggregate functions supported by :class:`VecAggregate` (the same set as
#: the tuple-mode registry).
VEC_AGGREGATES = ("count", "sum", "min", "max", "avg")

#: Final value of each aggregate over an empty input (tuple-mode parity).
_EMPTY_FINAL = {"count": 0, "sum": 0, "min": None, "max": None, "avg": None}


def _segment_reduce(
    fn: str, values: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """Reduce contiguous segments ``[starts[i], stops[i])`` of ``values``.

    Segments partition the array, so ``np.ufunc.reduceat(values, starts)``
    is exactly the per-segment reduction; reduceat accumulates
    left-to-right, matching the tuple engine's sequential fold even for
    floats.
    """
    if values.dtype == object:
        slices = [values[s:e] for s, e in zip(starts, stops)]
        if fn == "min":
            return np.array([min(part.tolist()) for part in slices], dtype=object)
        if fn == "max":
            return np.array([max(part.tolist()) for part in slices], dtype=object)
        if fn == "sum":
            return np.array([sum(part.tolist()) for part in slices], dtype=object)
        # avg
        return np.array(
            [sum(part.tolist()) / len(part) for part in slices], dtype=object
        )
    if fn == "sum":
        return np.add.reduceat(values, starts)
    if fn == "min":
        return np.minimum.reduceat(values, starts)
    if fn == "max":
        return np.maximum.reduceat(values, starts)
    # avg
    return np.add.reduceat(values, starts) / (stops - starts)


class VecAggregate(VecOperator):
    """Grouped aggregation (γ) over sorted runs — no per-row hash table.

    Rows are clustered by a stable multi-key sort of the group columns
    (the Ω discipline of §3.4.2), then every aggregate is one segmented
    ``reduceat``.  Output rows come out in ascending group-key order,
    identical to the tuple-mode Aggregate.
    """

    def __init__(
        self,
        child: VecOperator,
        group_names: list[str],
        aggs: list[tuple[str, str | None]],
    ) -> None:
        self.child = child
        self._group_indices = [child.column_index(n) for n in group_names]
        self._agg_specs: list[tuple[str, int | None]] = []
        for fn_name, col_name in aggs:
            if fn_name not in VEC_AGGREGATES:
                raise ExecutionError(
                    f"unknown aggregate {fn_name!r}; have {sorted(VEC_AGGREGATES)}"
                )
            index = None if col_name is None else child.column_index(col_name)
            self._agg_specs.append((fn_name, index))
        self.columns = [child.columns[i] for i in self._group_indices] + [
            f"{fn}({'*' if idx is None else child.columns[idx]})"
            for fn, idx in self._agg_specs
        ]

    def batches(self) -> Iterator[ColumnBatch]:
        batch = concat_batches(self.child)
        if batch is None:
            if self._group_indices:
                return
            # Aggregate over an empty input still produces one row.
            yield ColumnBatch(
                self.columns,
                [
                    np.array([_EMPTY_FINAL[fn]], dtype=object)
                    for fn, _ in self._agg_specs
                ],
            )
            return
        total = len(batch)
        if self._group_indices:
            keys = [batch.arrays[i] for i in self._group_indices]
            # Stable lexicographic sort, first group column most
            # significant — the order sorted(group_tuples) produces.
            order = np.arange(total)
            for key in reversed(keys):
                order = order[np.argsort(key[order], kind="stable")]
            sorted_keys = [key[order] for key in keys]
            change = np.zeros(total - 1, dtype=bool)
            for key in sorted_keys:
                change |= np.asarray(key[1:] != key[:-1], dtype=bool)
            starts = np.concatenate([[0], np.flatnonzero(change) + 1])
            stops = np.concatenate([starts[1:], [total]])
            out = [key[starts] for key in sorted_keys]
        else:
            order = np.arange(total)
            starts = np.array([0])
            stops = np.array([total])
            out = []
        for fn, index in self._agg_specs:
            if fn == "count":
                out.append(stops - starts)
            else:
                values = batch.arrays[index][order]
                out.append(_segment_reduce(fn, values, starts, stops))
        yield ColumnBatch(self.columns, out)


def _dtype_col_type(array: np.ndarray) -> str:
    """Infer a BAT tail type from a batch array."""
    if array.dtype == object:
        for value in array:
            if isinstance(value, str):
                return "str"
            if isinstance(value, float):
                return "float"
            return "int"
        return "int"
    if np.issubdtype(array.dtype, np.floating):
        return "float"
    return "int"


class VecMaterialize(VecOperator):
    """Pipeline breaker writing the batch stream into a new Relation.

    The columnar twin of the tuple-mode Materialize: columns are built
    with bulk appends instead of per-tuple inserts.
    """

    def __init__(
        self,
        child: VecOperator,
        name: str,
        tracker=None,
        col_types: list[str] | None = None,
    ) -> None:
        self.child = child
        self.name = name
        self.tracker = tracker
        self.columns = list(child.columns)
        self._col_types = col_types
        self.result: Relation | None = None

    def run(self) -> Relation:
        """Drain the child into a fresh relation and return it."""
        batch = concat_batches(self.child)
        arrays = (
            batch.arrays
            if batch is not None
            else [np.empty(0, dtype=np.int64) for _ in self.columns]
        )
        types = self._col_types
        if types is None:
            types = [_dtype_col_type(array) for array in arrays]
        schema = Schema(
            [
                Column(name.split(".")[-1], col_type)
                for name, col_type in zip(self.columns, types)
            ]
        )
        column_data = {
            column.name: array for column, array in zip(schema, arrays)
        }
        relation = Relation.from_columns(self.name, schema, column_data)
        if self.tracker is not None:
            tuple_bytes = relation.tuple_bytes
            rows = len(relation)
            self.tracker.log_tuples(rows, tuple_bytes)
            self.tracker.write_bytes(self.name, rows * tuple_bytes)
        self.result = relation
        return relation

    def batches(self) -> Iterator[ColumnBatch]:
        relation = self.run()
        yield from VecScan(relation, alias=None).batches()
