"""The vectorized cracking engine: cracked spans into the batch executor.

:class:`VectorizedCrackedEngine` is the cracking engine with delivery
routed through the shared batch executor of
:mod:`repro.volcano.vectorized`: the ``SelectionResult`` span enters the
pipeline as a zero-copy :class:`~repro.volcano.vectorized.ColumnBatch`
(no per-row gather anywhere), sibling columns are fetched with one bulk
gather per column, and materialisation / printing are array kernels.

This is the engine configuration the paper's architecture implies but
never benchmarks directly: adaptive cracking *and* a vectorized execution
layer.  It participates in the experiment sweeps next to the row store,
the column store and the tuple-delivery cracking engine.
"""

from __future__ import annotations

import numpy as np

from repro.engines.base import DELIVERY_COUNT, DELIVERY_PRINT
from repro.engines.columnstore import render_columns_bytes
from repro.engines.cracked import CrackingEngine
from repro.storage.table import Relation
from repro.volcano.vectorized import ColumnBatch, VecCrackedScan, VecMaterialize


class VectorizedCrackedEngine(CrackingEngine):
    """Cracking engine whose delivery paths run on the batch executor."""

    name = "vectorized"

    def _deliver_selection(
        self,
        relation: Relation,
        attr: str,
        result,
        delivery: str,
        target_name: str | None,
    ) -> tuple[int, dict]:
        if delivery == DELIVERY_COUNT:
            # The span bounds already carry the count; nothing to gather.
            return result.count, {}
        scan = VecCrackedScan(relation, attr, result, alias=relation.name)
        if delivery == DELIVERY_PRINT:
            bytes_printed = 0
            rows = 0
            for batch in scan.batches():
                rows += len(batch)
                bytes_printed += self._render_batch(batch)
            self.tracker.read_bytes(relation.name, rows * relation.tuple_bytes)
            return rows, {"bytes_printed": bytes_printed}
        name = target_name or self.fresh_temp_name(f"{relation.name}_tmp")
        self.drop_if_exists(name)
        # Preserve the source schema: inferring types from data would
        # default every column of an empty answer to int.
        col_types = [column.col_type for column in relation.schema]
        fragment = VecMaterialize(scan, name, col_types=col_types).run()
        rows = len(fragment)
        tuple_bytes = relation.tuple_bytes
        self.tracker.read_bytes(relation.name, rows * tuple_bytes)
        self.tracker.log_bulk(rows, tuple_bytes)
        self.tracker.write_bytes(name, rows * tuple_bytes)
        self.tracker.counters.tuples_written += rows
        self.catalog.create_table(fragment)
        return rows, {"target": name}

    @staticmethod
    def _render_batch(batch: ColumnBatch) -> int:
        """Format one batch for the front-end; returns bytes rendered."""
        compacted = batch.compact()
        if len(compacted) == 0:
            return 0
        rendered = [
            array.astype("U") if array.dtype == object else array.astype("U21")
            for array in compacted.arrays
        ]
        return render_columns_bytes(rendered)
