"""Common engine interface and query outcome records.

The paper compares MonetDB, MySQL, PostgreSQL and SQLite on three delivery
modes of the same range query (Figure 1): (a) materialisation into a
temporary table, (b) sending output to the front-end, (c) counting.  Every
engine in this package implements the same :class:`Engine` interface so
the experiments can sweep engines × delivery modes × selectivities, and
report wall-clock seconds alongside deterministic cost-model counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CatalogError, ExecutionError
from repro.storage.catalog import Catalog
from repro.storage.pages import IOCounters, IOTracker
from repro.storage.table import Relation

#: Delivery modes of Figure 1.
DELIVERY_MATERIALISE = "materialise"
DELIVERY_PRINT = "print"
DELIVERY_COUNT = "count"
DELIVERIES = (DELIVERY_MATERIALISE, DELIVERY_PRINT, DELIVERY_COUNT)


def rendered_bytes(arrays: list[np.ndarray]) -> int:
    """Bytes of the '|'-joined, newline-terminated rendering of row columns.

    The shared print-delivery kernel over decoded column arrays (object
    dtype for varchar): every columnar engine that reports
    ``bytes_printed`` counts with the same formatting, or the
    cross-engine comparisons of Figure 1 skew.
    """
    if not arrays or len(arrays[0]) == 0:
        return 0
    rendered = [
        array.astype("U") if array.dtype == object else array.astype("U21")
        for array in arrays
    ]
    lines = rendered[0]
    for column in rendered[1:]:
        lines = np.char.add(np.char.add(lines, "|"), column)
    return int(np.char.str_len(lines).sum()) + len(lines)


@dataclass
class QueryOutcome:
    """Result record of one query run by an engine.

    Attributes:
        engine: engine name.
        delivery: one of ``materialise``, ``print``, ``count``.
        rows: number of qualifying tuples.
        elapsed_s: wall-clock time of the query.
        io: cost-model counters accumulated by the query.
        fallback: True if the engine degraded (e.g. nested-loop fallback).
        extra: free-form engine-specific details.
    """

    engine: str
    delivery: str
    rows: int
    elapsed_s: float
    io: IOCounters
    fallback: bool = False
    extra: dict = field(default_factory=dict)


class Engine:
    """Abstract engine: load relations, run range queries and join chains.

    A subclass implements ``_execute_range`` (and ``_execute_join_chain``
    to run join chains), with the arguments and results the template
    methods :meth:`range_query` and :meth:`join_chain` pass and expect.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.catalog = Catalog()
        self.tracker = IOTracker()
        self._temp_counter = 0

    # ------------------------------------------------------------------ #
    # Data loading
    # ------------------------------------------------------------------ #

    def load(self, relation: Relation) -> None:
        """Register a base table with the engine."""
        self.catalog.create_table(relation)
        self.on_load(relation)

    def on_load(self, relation: Relation) -> None:
        """Hook for engine-specific load work (indexes, copies...)."""

    def table(self, name: str) -> Relation:
        """Look up a loaded table."""
        return self.catalog.table(name)

    # ------------------------------------------------------------------ #
    # Queries (template methods)
    # ------------------------------------------------------------------ #

    def range_query(
        self,
        table: str,
        attr: str,
        low,
        high,
        delivery: str = DELIVERY_COUNT,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        target_name: str | None = None,
    ) -> QueryOutcome:
        """Run ``SELECT * FROM table WHERE low θ attr θ high``.

        The default bounds are inclusive on both sides, matching the
        paper's Ξ-cracker range form ``attr ∈ [low, high]``.
        """
        if delivery not in DELIVERIES:
            raise ExecutionError(
                f"unknown delivery {delivery!r}; expected one of {DELIVERIES}"
            )
        before = self.tracker.counters.snapshot()
        started = time.perf_counter()
        rows, extra = self._execute_range(
            table, attr, low, high, delivery, low_inclusive, high_inclusive,
            target_name,
        )
        elapsed = time.perf_counter() - started
        io = self.tracker.counters.diff(before)
        return QueryOutcome(
            engine=self.name,
            delivery=delivery,
            rows=rows,
            elapsed_s=elapsed,
            io=io,
            extra=extra,
        )

    def join_chain(
        self,
        table: str,
        length: int,
        from_attr: str = "a",
        to_attr: str = "k",
        timeout_s: float | None = None,
    ) -> QueryOutcome:
        """Run the Figure 9 experiment: a ``length``-way linear self-join.

        The chain unrolls the reachability relation of the random integer
        pairs: ``R1.a = R2.k AND R2.a = R3.k AND ...``.
        """
        if length < 1:
            raise ExecutionError(f"join chain length must be >= 1, got {length}")
        before = self.tracker.counters.snapshot()
        started = time.perf_counter()
        rows, fallback, extra = self._execute_join_chain(
            table, length, from_attr, to_attr, timeout_s
        )
        elapsed = time.perf_counter() - started
        io = self.tracker.counters.diff(before)
        return QueryOutcome(
            engine=self.name,
            delivery=DELIVERY_COUNT,
            rows=rows,
            elapsed_s=elapsed,
            io=io,
            fallback=fallback,
            extra=extra,
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def fresh_temp_name(self, hint: str) -> str:
        """A unique name for a temporary/materialised table."""
        self._temp_counter += 1
        candidate = f"{hint}_{self._temp_counter}"
        while self.catalog.has_table(candidate):
            self._temp_counter += 1
            candidate = f"{hint}_{self._temp_counter}"
        return candidate

    def drop_if_exists(self, name: str) -> None:
        """Drop a table, ignoring absence."""
        try:
            self.catalog.drop_table(name)
        except CatalogError:
            pass


class ChainTimeout(ExecutionError):
    """Raised internally when a join chain exceeds its timeout."""
