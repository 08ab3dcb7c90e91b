"""The sort-upfront baseline engine (the "sort" line of Figure 11).

"An alternative strategy (and optimal in read-only settings) would be to
completely sort or index the table upfront, which would require N·log(N)
writes.  This investment would be recovered after log(N) queries.
Beware, however, that this only works in the limited case where the query
sequence filters against the same attribute set" (§2.2).

On the first query against an attribute this engine pays the full sort
(building a :class:`~repro.storage.accelerators.SortedAccelerator`,
charged as a read plus log-factor writes of the column); afterwards every
range query is two binary searches, delivered by position.
"""

from __future__ import annotations

import math

from repro.engines.base import (
    DELIVERY_COUNT,
    DELIVERY_PRINT,
    Engine,
    rendered_bytes,
)
from repro.storage.accelerators import SortedAccelerator


class SortedEngine(Engine):
    """Column store that fully sorts an attribute on first touch."""

    name = "sorted"

    def __init__(self) -> None:
        super().__init__()
        self._accelerators: dict[tuple[str, str], SortedAccelerator] = {}

    def accelerator_for(self, table: str, attr: str) -> SortedAccelerator:
        """The (lazily built) sorted accelerator of ``table.attr``."""
        key = (table, attr)
        accelerator = self._accelerators.get(key)
        if accelerator is None:
            relation = self.table(table)
            bat = relation.column(attr)
            # Upfront investment: read the column, write ~N log N granules.
            self.tracker.read_bytes(bat.name, bat.nbytes)
            log_factor = max(1, int(math.ceil(math.log2(max(len(bat), 2)))))
            self.tracker.write_bytes(f"{bat.name}#sorted", bat.nbytes * log_factor)
            self.tracker.counters.tuples_read += len(bat)
            accelerator = SortedAccelerator(bat)
            self._accelerators[key] = accelerator
        return accelerator

    def _execute_range(
        self,
        table: str,
        attr: str,
        low,
        high,
        delivery: str,
        low_inclusive: bool,
        high_inclusive: bool,
        target_name: str | None,
    ) -> tuple[int, dict]:
        relation = self.table(table)
        positions = self.accelerator_for(table, attr).range_positions(
            low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
        )
        rows = len(positions)
        item_bytes = relation.column(attr).tail_array().itemsize
        # Index lookup reads only the qualifying run of the sorted column.
        self.tracker.read_bytes(f"{table}.{attr}#sorted", rows * item_bytes)
        self.tracker.counters.tuples_read += rows
        if delivery == DELIVERY_COUNT:
            return rows, {}
        # The sibling columns are read only at the qualifying positions.
        tuple_bytes = relation.tuple_bytes
        self.tracker.read_bytes(table, rows * tuple_bytes)
        if delivery == DELIVERY_PRINT:
            arrays = [
                values for values, _ in relation.column_arrays(positions=positions)
            ]
            return rows, {"bytes_printed": rendered_bytes(arrays)}
        name = target_name or self.fresh_temp_name(f"{table}_tmp")
        self.drop_if_exists(name)
        # Bulk gather of the qualifying tuples, one WAL record.
        fragment = relation.horizontal_fragment(positions, name)
        self.tracker.log_bulk(rows, tuple_bytes)
        self.tracker.write_bytes(name, rows * tuple_bytes)
        self.tracker.counters.tuples_written += rows
        self.catalog.create_table(fragment)
        return rows, {"target": name}
