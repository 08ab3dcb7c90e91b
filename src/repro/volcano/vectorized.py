"""Vectorized batch executor: the engine every SQL statement runs on.

The tuple-at-a-time operators in :mod:`repro.volcano.operators` model the
traditional engines the paper measures against; this module is the engine
the paper *argues for*: operators exchange :class:`ColumnBatch` objects
(one numpy array per column plus an optional selection vector) so joins,
aggregates and sorts run as array kernels instead of per-row interpreter
work.  A cracked range selection enters the pipeline as it left the
cracker, a copy of one span of the cracker column (§3.4.2 — "the MonetDB
BATviews provide a cheap representation of the newly created table"):
:class:`VecCrackedScan` passes it through as the first batch.

The test suite checks its answers query by query against stdlib
``sqlite3``; where they may differ is the ``DIALECT`` table of the
suite's ``oracle.py``.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro import governor
from repro.errors import ExecutionError
from repro.storage.table import Column, Relation, Schema
from repro.volcano.operators import resolve_column

#: Rows per scan batch; large enough to amortise dispatch, small enough to
#: stay cache-resident for the common 8-byte column.  Read per scan.
BATCH_ROWS = 65_536


def join_probe(
    left_keys: np.ndarray, sorted_right: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All (left_index, right_index) pairs with equal keys (inner join).

    The probe half of a sort-merge join: ``sorted_right`` is the right
    keys sorted by the stable permutation ``order``, so a join operator
    sorts its build side once and probes it with many left batches.  Each
    left key's matching run is located by binary search and expanded
    without a per-key loop.  O((|L|+|R|) log |R|) — the BAT-join
    discipline that keeps Figure 9's MonetDB line flat.

    Output order is left-major with right matches in storage order.
    """
    starts = np.searchsorted(sorted_right, left_keys, side="left")
    runs = np.searchsorted(sorted_right, left_keys, side="right") - starts
    left_idx = np.repeat(np.arange(len(left_keys), dtype=np.int64), runs)
    # Output row j of a run sits at the run's start plus j's rank in it.
    run_offsets = np.cumsum(runs) - runs
    offsets = np.arange(len(left_idx)) + np.repeat(starts - run_offsets, runs)
    return left_idx, order[offsets]


class ColumnBatch:
    """A batch of rows in columnar form.

    ``arrays`` holds one aligned numpy array per entry of ``columns``
    (int64/float64 for numeric columns, object arrays of decoded strings).
    ``sel`` is an optional selection vector: positions into the arrays
    that are logically present.  Filters compose selection vectors instead
    of gathering, so a chain of selections costs one gather at the first
    operator that needs contiguous data.

    ``coded`` maps a column index to the heap codes of a varchar column,
    ``(codes, atoms)`` with ``atoms[codes]`` equal to that column's
    array.  Scans fill it and operators that only move rows carry it;
    any other operator drops it, which is always correct.
    """

    __slots__ = ("columns", "arrays", "sel", "coded")

    def __init__(
        self,
        columns: list[str],
        arrays: list[np.ndarray],
        sel: np.ndarray | None = None,
        coded: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> None:
        self.columns = columns
        self.arrays = arrays
        self.sel = sel
        self.coded = {} if coded is None else coded

    def __len__(self) -> int:
        if self.sel is not None:
            return len(self.sel)
        return len(self.arrays[0]) if self.arrays else 0

    def column(self, index: int) -> np.ndarray:
        """The logical values of one column (selection vector applied)."""
        array = self.arrays[index]
        return array if self.sel is None else array[self.sel]

    def take(self, rows) -> "ColumnBatch":
        """The ``rows`` (a slice or positions) of every array, codes too."""
        return ColumnBatch(
            self.columns,
            [array[rows] for array in self.arrays],
            coded={
                index: (codes[rows], atoms)
                for index, (codes, atoms) in self.coded.items()
            },
        )

    def compact(self) -> "ColumnBatch":
        """Apply the selection vector, making every array contiguous."""
        if self.sel is None:
            return self
        return self.take(self.sel)


class VecOperator:
    """Base class: a stream of :class:`ColumnBatch` with named columns.

    A subclass implements ``batches()``, yielding the stream; the
    session drains it in batches and never decodes row by row.
    """

    columns: list[str]

    def column_index(self, name: str) -> int:
        """Index of ``name`` in the output columns (bare names allowed)."""
        return resolve_column(self.columns, name)



def concat_batches(operator: VecOperator) -> ColumnBatch | None:
    """Drain an operator into one compacted batch (None when empty).

    This is the batch-mode pipeline breaker used by sort, aggregation and
    the build side of joins.  A column keeps its codes when every part
    has them over the same atoms.
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
    coded = {}
    for index, (_, atoms) in parts[0].coded.items():
        pairs = [part.coded.get(index) for part in parts]
        if all(pair is not None and pair[1] is atoms for pair in pairs):
            coded[index] = (np.concatenate([codes for codes, _ in pairs]), atoms)
    return ColumnBatch(parts[0].columns, arrays, coded=coded)


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
        needed: Sequence[str] | None = None,
    ) -> None:
        self.relation = relation
        self._names = _scan_names(relation, needed)
        prefix = alias if alias is not None else relation.name
        self.columns = [f"{prefix}.{name}" for name in self._names]

    def batches(self) -> Iterator[ColumnBatch]:
        columns = self.relation.column_arrays(self._names)
        whole = ColumnBatch(
            self.columns,
            [values for values, _ in columns],
            coded={i: pair for i, (_, pair) in enumerate(columns) if pair},
        )
        # Row count from the gathered snapshot, not the live relation: a
        # concurrent insert may have grown the BATs since the gather.
        total = len(whole)
        if self.relation.deleted_count:
            # DELETE tombstones: gather only the visible rows once, so
            # downstream operators never see a dead tuple.
            whole = whole.take(self.relation.live_positions(total))
            total = len(whole)
        for start in range(0, total, BATCH_ROWS):
            yield whole.take(slice(start, min(start + BATCH_ROWS, total)))


class VecCrackedScan(VecOperator):
    """The cracked answer as the pipeline's first batch.

    ``result.values`` (the column's copy of its contiguous span) is
    passed through as the predicate column's array without another
    copy; the sibling columns in ``needed`` (None = all) are fetched
    with one bulk gather each at ``result.oids`` (dense void heads make
    oids storage positions), and the rest are never reconstructed.
    There is no per-row work anywhere.
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
        arrays, coded = [], {}
        for index, name in enumerate(self._names):
            if name == self.attr:
                arrays.append(result.values)
                continue
            values, pair = self.relation.column(name).decoded_array(positions)
            arrays.append(values)
            if pair is not None:
                coded[index] = pair
        yield ColumnBatch(self.columns, arrays, coded=coded)


def conjunction_mask(conjunction, column, keep: np.ndarray) -> np.ndarray:
    """``keep`` ANDed in place with each ``(keys, condition)`` entry's
    ``condition(column(key), ...)``: the one evaluator of a WHERE
    conjunction, per batch in :class:`VecSelect` and in the DML matcher."""
    for keys, condition in conjunction:
        keep &= condition(*[column(key) for key in keys])
    return keep


class VecSelect(VecOperator):
    """Filter by a conjunction of ``(column names, condition)`` pairs
    (:func:`conjunction_mask`) in one operator, composing selection
    vectors — no gathering, no row loop."""

    def __init__(
        self,
        child: VecOperator,
        conjunction: Sequence[tuple[Sequence[str], Callable[..., np.ndarray]]],
    ) -> None:
        self.child = child
        self._conjunction = [
            ([child.column_index(name) for name in names], condition)
            for names, condition in conjunction
        ]
        self.columns = list(child.columns)

    def batches(self) -> Iterator[ColumnBatch]:
        for batch in self.child.batches():
            keep = np.ones(len(batch), dtype=bool)
            hits = np.flatnonzero(conjunction_mask(self._conjunction, batch.column, keep))
            if len(hits) == 0:
                continue
            sel = hits if batch.sel is None else batch.sel[hits]
            yield ColumnBatch(batch.columns, batch.arrays, sel, batch.coded)


class VecProject(VecOperator):
    """Projection: reorders the array list; zero-copy per batch."""

    def __init__(self, child: VecOperator, names: list[str]) -> None:
        self.child = child
        self._indices = [child.column_index(name) for name in names]
        self.columns = [child.columns[i] for i in self._indices]

    def batches(self) -> Iterator[ColumnBatch]:
        for batch in self.child.batches():
            coded = {
                new: batch.coded[old]
                for new, old in enumerate(self._indices)
                if old in batch.coded
            }
            yield ColumnBatch(
                self.columns, [batch.arrays[i] for i in self._indices],
                batch.sel, coded,
            )


class VecHashJoin(VecOperator):
    """Batch equi-join: drain the right input once, then join each left
    batch with the sort-merge kernel.

    Output order is left-major, with each left row's right matches in
    right storage order (the kernel uses a stable sort of the right
    keys).
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
        governor.check()
        right_keys = right_batch.arrays[self._right_idx]
        order = np.argsort(right_keys, kind="stable")
        sorted_right = right_keys[order]
        for batch in self.left.batches():
            batch = batch.compact()
            if len(batch) == 0:
                continue
            governor.check()
            left_idx, right_idx = join_probe(
                batch.arrays[self._left_idx], sorted_right, order
            )
            if len(left_idx) == 0:
                continue
            arrays = [a[left_idx] for a in batch.arrays]
            arrays += [a[right_idx] for a in right_batch.arrays]
            yield ColumnBatch(self.columns, arrays)


class VecSort(VecOperator):
    """Full sort on one column (pipeline breaker), stable so that stacked
    single-key sorts give a multi-key order."""

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
                yield batch.compact().take(slice(0, remaining))
                remaining = 0
            if remaining == 0:
                return


#: Aggregate functions supported by :class:`VecAggregate`.
VEC_AGGREGATES = ("count", "sum", "min", "max", "avg")

#: Final value of each aggregate over an empty input.  ``sum`` gives 0
#: where SQL (and sqlite) give NULL: a listed ``DIALECT`` difference.
_EMPTY_FINAL = {"count": 0, "sum": 0, "min": None, "max": None, "avg": None}


def _segment_reduce(
    fn: str, values: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """Reduce contiguous segments ``[starts[i], stops[i])`` of ``values``.

    Segments partition the array, so ``np.ufunc.reduceat(values, starts)``
    is exactly the per-segment reduction; reduceat accumulates
    left-to-right, a sequential fold even for floats.
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
    ``reduceat``.  Output rows come out in ascending group-key order;
    over an empty input without GROUP BY the one row holds
    :data:`_EMPTY_FINAL`.
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


class VecMaterialize(VecOperator):
    """Pipeline breaker writing the batch stream into a new Relation.

    The expensive delivery mode of Figure 1a: columns are built with
    bulk appends, logged as one WAL record.
    """

    def __init__(
        self,
        child: VecOperator,
        name: str,
        col_types: list[str],
        tracker=None,
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
        schema = Schema(
            [
                Column(name.split(".")[-1], col_type)
                for name, col_type in zip(self.columns, self._col_types)
            ]
        )
        column_data = {
            column.name: array for column, array in zip(schema, arrays)
        }
        relation = Relation.from_columns(self.name, schema, column_data)
        if self.tracker is not None:
            tuple_bytes = relation.tuple_bytes
            rows = len(relation)
            self.tracker.log_bulk(rows, tuple_bytes)
            self.tracker.write_bytes(self.name, rows * tuple_bytes)
        self.result = relation
        return relation
