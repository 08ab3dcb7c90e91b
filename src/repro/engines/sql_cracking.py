"""SQL-level cracking on a traditional engine (§5.1 of the paper).

"To peek into the future with little cost, we analyze the crackers using
an independent component at the SQL level using the database engine as a
black box."  A Ξ crack becomes one ``SELECT INTO`` per output piece (SQL
cannot route one scan into multiple result tables), each piece becomes a
catalog-registered fragment, and result construction unions fragments.

The point of this engine is to *measure the overhead honestly*: per-piece
full scans, per-tuple transactional materialisation, and catalog DDL on
every crack.  §5.1 concludes the approach costs ~20× a plain query on a
traditional engine — this reproduction lets you watch that happen.

The fragment bookkeeping assumes an integer-valued attribute (the
tapestry benchmark domain), using half-open ``[lo, hi)`` intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engines.base import (
    DELIVERY_COUNT,
    DELIVERY_MATERIALISE,
    DELIVERY_PRINT,
    Engine,
)
from repro.engines.rowstore import RowStoreEngine
from repro.errors import ExecutionError
from repro.storage.table import Relation

_NEG_INF = -math.inf
_POS_INF = math.inf


@dataclass
class Fragment:
    """One SQL-level piece: table ``name`` holds values in ``[lo, hi)``."""

    name: str
    lo: float
    hi: float

    def overlaps(self, lo: float, hi: float) -> bool:
        return self.lo < hi and lo < self.hi

    def inside(self, lo: float, hi: float) -> bool:
        return lo <= self.lo and self.hi <= hi


class SQLCrackingEngine(Engine):
    """Cracking simulated with SELECT INTO fragments on a row store."""

    name = "sql_cracking"

    def __init__(self) -> None:
        super().__init__()
        self._store = RowStoreEngine()
        # Share catalog and tracker so all costs accumulate in one place.
        self._store.catalog = self.catalog
        self._store.tracker = self.tracker
        self._fragments: dict[tuple[str, str], list[Fragment]] = {}
        self._piece_counter = 0

    def on_load(self, relation: Relation) -> None:
        # Integer attributes only; validated lazily on first query.
        return None

    # ------------------------------------------------------------------ #
    # Fragment administration
    # ------------------------------------------------------------------ #

    def fragments_of(self, table: str, attr: str) -> list[Fragment]:
        """Current fragments of ``table.attr`` (created on first use)."""
        key = (table, attr)
        fragments = self._fragments.get(key)
        if fragments is None:
            fragments = [Fragment(name=table, lo=_NEG_INF, hi=_POS_INF)]
            self._fragments[key] = fragments
        return fragments

    def _fresh_piece_name(self, table: str) -> str:
        self._piece_counter += 1
        return f"frag{self._piece_counter:03d}_{table}"

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
        if low is None or high is None:
            raise ExecutionError("SQL-level cracking expects a double-sided range")
        # Normalise the inclusive integer range [low, high] to [lo, hi).
        lo = float(low if low_inclusive else low + 1)
        hi = float(high + 1 if high_inclusive else high)
        fragments = self.fragments_of(table, attr)
        cracks = 0
        scans = 0
        updated: list[Fragment] = []
        qualifying: list[Fragment] = []
        for fragment in fragments:
            if not fragment.overlaps(lo, hi):
                updated.append(fragment)
                continue
            if fragment.inside(lo, hi):
                updated.append(fragment)
                qualifying.append(fragment)
                continue
            pieces, piece_scans = self._crack_fragment(fragment, table, attr, lo, hi)
            cracks += 1
            scans += piece_scans
            for piece in pieces:
                updated.append(piece)
                if piece.inside(lo, hi):
                    qualifying.append(piece)
        self._fragments[(table, attr)] = updated
        rows = self._deliver(qualifying, delivery, table, target_name)
        return rows, {
            "fragments": len(updated),
            "cracks": cracks,
            "piece_scans": scans,
            "ddl_mutations": self.catalog.stats.ddl_mutations,
        }

    def _crack_fragment(
        self, fragment: Fragment, table: str, attr: str, lo: float, hi: float
    ) -> tuple[list[Fragment], int]:
        """Split one fragment with one SELECT INTO per output piece."""
        bounds = sorted({fragment.lo, max(fragment.lo, lo), min(fragment.hi, hi), fragment.hi})
        intervals = [
            (left, right)
            for left, right in zip(bounds, bounds[1:])
            if left < right
        ]
        pieces: list[Fragment] = []
        scans = 0
        for left, right in intervals:
            name = self._fresh_piece_name(table)

            def predicate(value, left=left, right=right):
                return left <= value < right

            self._store.select_into(name, fragment.name, attr, predicate)
            scans += 1
            piece_relation = self.catalog.table(name)
            # select_into created the table; re-register it as a fragment
            # of the logical parent so the DDL/plan-invalidation cost of
            # partition administration is charged (the paper's complaint).
            self.catalog.drop_table(name)
            self.catalog.register_fragment(table, piece_relation, f"{left} <= {attr} < {right}")
            pieces.append(Fragment(name=name, lo=left, hi=right))
        if fragment.name != table:
            # Old non-base fragments are replaced by their pieces.
            self.catalog.unregister_fragment(table, fragment.name)
        return pieces, scans

    def _deliver(
        self,
        qualifying: list[Fragment],
        delivery: str,
        table: str,
        target_name: str | None,
    ) -> int:
        names = [fragment.name for fragment in qualifying]
        if delivery in (DELIVERY_COUNT, DELIVERY_PRINT):
            # A count reads the qualifying fragments like a print does.
            total = 0
            for name in names:
                relation = self.catalog.table(name)
                self.tracker.read_bytes(name, relation.nbytes)
                from repro.volcano.operators import PrintSink, Scan

                sink = PrintSink()
                total += sink.drain(Scan(relation, alias=name))
            return total
        # Materialise the union into one result table.
        name = target_name or self.fresh_temp_name(f"{table}_result")
        self.drop_if_exists(name)
        rows = 0
        result: Relation | None = None
        for fragment_name in names:
            relation = self.catalog.table(fragment_name)
            self.tracker.read_bytes(fragment_name, relation.nbytes)
            if result is None:
                result = Relation(name, relation.schema)
            for row in relation.iter_rows():
                result.insert(row)
                self.tracker.wal.append(relation.tuple_bytes)
                rows += 1
        if result is not None:
            self.tracker.write_bytes(name, rows * result.tuple_bytes)
            self.catalog.create_table(result)
        return rows
