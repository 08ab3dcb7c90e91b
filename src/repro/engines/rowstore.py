"""The traditional n-ary row-store engine (MySQL/PostgreSQL/SQLite class).

Tuple-at-a-time Volcano evaluation over the full n-ary tuple: a range scan
reads *every column* of *every tuple* (there is no projection pushdown to
storage in a row store), predicate evaluation happens per tuple, and
materialisation pays per-tuple WAL appends plus page writes — the cost
structure behind Figure 1's expensive ``SELECT INTO`` line and §5.1's
verdict that SQL-level cracking "does not seem prudent".

The join optimizer has a bounded search budget (Figure 9): beyond it, the
engine falls back to the default nested-loop plan.
"""

from __future__ import annotations

import time

from repro.engines.base import (
    DELIVERY_COUNT,
    DELIVERY_MATERIALISE,
    DELIVERY_PRINT,
    ChainTimeout,
    Engine,
)
from repro.errors import ExecutionError
from repro.storage.table import Relation
from repro.volcano.operators import PrintSink, Scan, Select
from repro.volcano.plans import plan_join_chain


def _range_predicate(index: int, low, high, low_inclusive: bool, high_inclusive: bool):
    """Build the per-tuple predicate closure for a range condition."""

    def predicate(row: tuple) -> bool:
        value = row[index]
        if low is not None:
            if low_inclusive:
                if value < low:
                    return False
            elif value <= low:
                return False
        if high is not None:
            if high_inclusive:
                if value > high:
                    return False
            elif value >= high:
                return False
        return True

    return predicate


class RowStoreEngine(Engine):
    """N-ary tuple-at-a-time engine with transactional materialisation."""

    name = "rowstore"

    def __init__(self, join_budget: int = 400) -> None:
        super().__init__()
        self.join_budget = join_budget

    # ------------------------------------------------------------------ #
    # Range queries
    # ------------------------------------------------------------------ #

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
        # A row store reads the whole tuple for every row it inspects.
        self.tracker.read_bytes(table, relation.nbytes)
        self.tracker.counters.tuples_read += len(relation)
        scan = Scan(relation, alias=table)
        predicate = _range_predicate(
            scan.column_index(f"{table}.{attr}"), low, high, low_inclusive,
            high_inclusive,
        )
        selected = Select(scan, predicate)
        if delivery == DELIVERY_COUNT:
            rows = sum(1 for _ in selected)
            return rows, {}
        if delivery == DELIVERY_PRINT:
            sink = PrintSink()
            rows = sink.drain(selected)
            return rows, {"bytes_printed": sink.bytes_written}
        return self._materialise(relation, selected, target_name)

    def _materialise(
        self, source: Relation, operator, target_name: str | None
    ) -> tuple[int, dict]:
        name = target_name or self.fresh_temp_name(f"{source.name}_tmp")
        self.drop_if_exists(name)
        result = Relation(name, source.schema)
        tuple_bytes = source.tuple_bytes
        rows = 0
        for row in operator:
            result.insert(row)
            # Traditional engines ensure transaction behaviour per tuple.
            self.tracker.wal.append(tuple_bytes)
            rows += 1
        self.tracker.write_bytes(name, rows * tuple_bytes)
        self.tracker.counters.tuples_written += rows
        self.catalog.create_table(result)
        return rows, {"target": name}

    # ------------------------------------------------------------------ #
    # Join chains (Figure 9)
    # ------------------------------------------------------------------ #

    def _execute_join_chain(
        self,
        table: str,
        length: int,
        from_attr: str,
        to_attr: str,
        timeout_s: float | None,
    ) -> tuple[int, bool, dict]:
        relation = self.table(table)
        relations = [relation] * length
        aliases = [f"{table}{i}" for i in range(length)]
        key_pairs = [
            (f"{aliases[i]}.{from_attr}", f"{aliases[i + 1]}.{to_attr}")
            for i in range(length - 1)
        ]
        tree, used_fallback = plan_join_chain(
            relations, key_pairs, aliases=aliases, budget=self.join_budget
        )
        self.tracker.read_bytes(table, relation.nbytes * length)
        self.tracker.counters.tuples_read += len(relation) * length
        rows = self._drain_with_timeout(tree, timeout_s)
        return rows, used_fallback, {"plan": "nested_loop" if used_fallback else "hash"}

    @staticmethod
    def _drain_with_timeout(tree, timeout_s: float | None) -> int:
        if timeout_s is None:
            return sum(1 for _ in tree)
        deadline = time.perf_counter() + timeout_s
        rows = 0
        for _ in tree:
            rows += 1
            if rows % 256 == 0 and time.perf_counter() > deadline:
                raise ChainTimeout(
                    f"join chain exceeded {timeout_s:.1f}s after {rows} rows"
                )
        return rows

    # ------------------------------------------------------------------ #
    # SQL-style helpers used by the §5.1 experiment
    # ------------------------------------------------------------------ #

    def select_into(
        self,
        target_name: str,
        table: str,
        attr: str,
        predicate,
    ) -> int:
        """``SELECT INTO target ... WHERE predicate(attr)`` — one full scan.

        Returns the number of tuples written.  This is the primitive the
        §5.1 SQL-level cracker is built from: one scan per output piece.
        """
        relation = self.table(table)
        self.tracker.read_bytes(table, relation.nbytes)
        self.tracker.counters.tuples_read += len(relation)
        scan = Scan(relation, alias=table)
        index = scan.column_index(f"{table}.{attr}")
        selected = Select(scan, lambda row: predicate(row[index]))
        rows, _ = self._materialise(relation, selected, target_name)
        return rows
