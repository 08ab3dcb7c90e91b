"""MonetDB with the cracker module on or off (§5.2), as one engine.

:class:`DatabaseEngine` serves the :class:`~repro.engines.base.Engine`
interface with SQL on the shipped :class:`~repro.sql.Database` — the
vector executor with an unbounded cracker (``crack_threshold=0``, the
paper's prototype), so the figures measure the planner and executor that
``repro serve`` runs.  The three deliveries of Figure 1 map to
``SELECT count(*)``, ``SELECT *`` and ``SELECT * INTO``.

Cost accounting follows the paper's column store: without cracking every
query reads the predicate column once ("nocrack" in Figures 10/11, any
gain coming from the buffer pool); with cracking the first query copies
the column into the cracker column, and each query then reads the pieces
it inspected and writes the tuples it moved, read from the column's
``crack_stats`` — the investment Figures 2/3 analyse.

Join chains (Figure 9) stay a loop of pairwise sort-merge joins: the
planner's join-order search is super-linear in the chain length, which is
Figure 9's row-store failure, not the column store's.
"""

from __future__ import annotations

import numpy as np

from repro.engines.base import (
    DELIVERY_COUNT,
    DELIVERY_MATERIALISE,
    Engine,
    rendered_bytes,
)
from repro.sql import Database
from repro.volcano.vectorized import vector_equi_join


class DatabaseEngine(Engine):
    """The column store, cracking or not: SQL on a vector ``Database``."""

    def __init__(self, cracking: bool) -> None:
        super().__init__()
        self.name = "cracking" if cracking else "columnstore"
        self.db = Database(cracking=cracking, mode="vector", crack_threshold=0)
        self.catalog = self.db.catalog
        self.tracker = self.db.tracker

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
        bat = relation.column(attr)
        column = self.db.cracked_columns().get((table, attr))
        if not self.db.cracking:
            # Only the predicate column is read — columnar storage.
            self.tracker.read_bytes(bat.name, bat.nbytes)
            self.tracker.counters.tuples_read += len(bat)
        elif column is None:
            # First touch: the cracker column is a copy of the BAT — one
            # sequential read plus one sequential write.
            self.tracker.read_bytes(bat.name, bat.nbytes)
            self.tracker.write_bytes(f"{bat.name}#cracker", bat.nbytes)
        touched_before = column.crack_stats.tuples_touched if column else 0
        moved_before = column.crack_stats.tuples_moved if column else 0

        bounds = []
        if low is not None:
            bounds.append(f"{attr} {'>=' if low_inclusive else '>'} {low}")
        if high is not None:
            bounds.append(f"{attr} {'<=' if high_inclusive else '<'} {high}")
        where = f" WHERE {' AND '.join(bounds)}" if bounds else ""
        extra: dict = {}
        if delivery == DELIVERY_COUNT:
            rows = self.db.execute(f"SELECT count(*) FROM {table}{where}").scalar()
        elif delivery == DELIVERY_MATERIALISE:
            name = target_name or self.fresh_temp_name(f"{table}_tmp")
            rows = self.db.execute(f"SELECT * INTO {name} FROM {table}{where}").affected
            extra["target"] = name
        else:
            result = self.db.execute(f"SELECT * FROM {table}{where}")
            rows = result.row_count
            extra["bytes_printed"] = rendered_bytes(list(result.arrays.values()))

        column = self.db.cracked_columns().get((table, attr))
        if column is not None:
            moved = column.crack_stats.tuples_moved - moved_before
            touched = column.crack_stats.tuples_touched - touched_before
            item_bytes = column.values.itemsize + column.oids.itemsize
            # Reads: the pieces the cracker had to inspect; writes: the
            # tuples it shuffled to their new location.
            self.tracker.read_bytes(f"{bat.name}#cracker", max(touched, rows) * item_bytes)
            self.tracker.counters.tuples_read += max(touched, rows)
            if moved:
                self.tracker.write_bytes(f"{bat.name}#cracker", moved * item_bytes)
            extra.update(
                pieces=column.piece_count, tuples_moved=moved, tuples_touched=touched
            )
        if delivery != DELIVERY_COUNT:
            # The sibling columns are read only at the qualifying positions.
            self.tracker.read_bytes(table, rows * relation.tuple_bytes)
        if delivery == DELIVERY_MATERIALISE:
            self.tracker.counters.tuples_written += rows
        return rows, extra

    def _execute_join_chain(
        self,
        table: str,
        length: int,
        from_attr: str,
        to_attr: str,
        timeout_s: float | None,
    ) -> tuple[int, bool, dict]:
        relation = self.table(table)
        from_keys = relation.column(from_attr).tail_array()
        to_keys = relation.column(to_attr).tail_array()
        self.tracker.read_bytes(f"{table}.{from_attr}", from_keys.nbytes * length)
        self.tracker.counters.tuples_read += len(relation) * length
        # Left-deep pairwise joins: frontier holds the positions of the
        # rightmost relation instance reached so far.
        frontier = np.arange(len(relation), dtype=np.int64)
        for _ in range(length - 1):
            _, frontier = vector_equi_join(from_keys[frontier], to_keys)
        return len(frontier), False, {"plan": "pairwise_merge"}
