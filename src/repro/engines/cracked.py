"""The cracking engine: MonetDB plus the cracker module (§5.2).

Identical to :class:`~repro.engines.columnstore.ColumnStoreEngine` except
range selections route through a per-(table, attribute)
:class:`~repro.core.cracked_column.CrackedColumn`.  The first query on an
attribute copies the column (the cracker column); every query then cracks
at most two pieces and answers with a zero-copy view.  Cost accounting
charges reads for the pieces inspected and writes for the tuples the crack
moved — the investment Figures 2/3 analyse and Figures 10/11 measure.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from repro.core.cracked_column import CrackedColumn
from repro.engines.columnstore import ColumnStoreEngine, vector_equi_join
from repro.storage.table import Relation


@dataclass
class OmegaState:
    """Cached Ω-crack of a grouping column.

    Attributes:
        positions: base-table positions, clustered by group value.
        group_values: distinct group values, ascending.
        piece_starts / piece_stops: slice bounds of each group's run
            inside ``positions``.
    """

    positions: np.ndarray
    group_values: np.ndarray
    piece_starts: np.ndarray
    piece_stops: np.ndarray

    @property
    def group_count(self) -> int:
        return len(self.group_values)


@dataclass
class WedgeState:
    """Cached ^-crack of a join pair: semijoin match positions per side.

    §3.4.2: "Instead of producing a separate table with the tuples being
    join-compatible, we shuffle the tuples around such that both operands
    have a consecutive area with matching tuples."  We keep the match
    positions (the piece locations); the first join pays the split, later
    joins feed only the matching pieces to the join kernel.
    """

    left_matched: np.ndarray
    left_unmatched: np.ndarray
    right_matched: np.ndarray
    right_unmatched: np.ndarray


class CrackingEngine(ColumnStoreEngine):
    """Column store with adaptive cracking on queried attributes.

    Every range query cracks unconditionally (``CrackedColumn``'s default
    ``crack_threshold`` of 0) — the paper's prototype, which Figures
    10/11 measure.
    """

    name = "cracking"

    def __init__(self) -> None:
        super().__init__()
        self._crackers: dict[tuple[str, str], CrackedColumn] = {}
        self._wedges: dict[tuple[str, str, str, str], WedgeState] = {}
        self._omegas: dict[tuple[str, str], OmegaState] = {}

    # ------------------------------------------------------------------ #
    # Cracker management
    # ------------------------------------------------------------------ #

    def cracker_for(self, table: str, attr: str) -> CrackedColumn:
        """The (lazily created) cracker of ``table.attr``."""
        key = (table, attr)
        column = self._crackers.get(key)
        if column is None:
            relation = self.table(table)
            bat = relation.column(attr)
            # First touch: the cracker column is a copy of the BAT — one
            # sequential read plus one sequential write, charged here.
            self.tracker.read_bytes(bat.name, bat.nbytes)
            self.tracker.write_bytes(f"{bat.name}#cracker", bat.nbytes)
            column = self._crackers[key] = CrackedColumn(bat)
        return column

    def has_cracker(self, table: str, attr: str) -> bool:
        """True if ``table.attr`` has been cracked at least once."""
        return (table, attr) in self._crackers

    def piece_count(self, table: str, attr: str) -> int:
        """Pieces currently administered for ``table.attr``."""
        column = self._crackers.get((table, attr))
        return column.piece_count if column is not None else 1

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
        column = self.cracker_for(table, attr)
        moved_before = column.crack_stats.tuples_moved
        touched_before = column.crack_stats.tuples_touched
        result = column.range_select(
            low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
        )
        moved = column.crack_stats.tuples_moved - moved_before
        touched = column.crack_stats.tuples_touched - touched_before
        item_bytes = column.values.itemsize + column.oids.itemsize
        # Reads: the pieces the cracker had to inspect; writes: the tuples
        # it shuffled to their new location.
        self.tracker.read_bytes(f"{table}.{attr}#cracker", max(touched, result.count) * item_bytes)
        self.tracker.counters.tuples_read += max(touched, result.count)
        if moved:
            self.tracker.write_bytes(f"{table}.{attr}#cracker", moved * item_bytes)
        extra: dict = {
            "pieces": column.piece_count,
            "tuples_moved": moved,
            "tuples_touched": touched,
        }
        rows, deliver_extra = self._deliver_selection(
            relation, attr, result, delivery, target_name
        )
        extra.update(deliver_extra)
        return rows, extra

    def _deliver_selection(
        self,
        relation: Relation,
        attr: str,
        result,
        delivery: str,
        target_name: str | None,
    ) -> tuple[int, dict]:
        """Deliver a cracked :class:`SelectionResult`.

        The base engine delivers by oid (positional gather); the
        vectorized subclass overrides this to feed the span into the
        batch executor zero-copy.
        """
        return self._deliver_oids(relation, result.oids, delivery, target_name)

    def _deliver_oids(
        self,
        relation: Relation,
        oids: np.ndarray,
        delivery: str,
        target_name: str | None,
    ) -> tuple[int, dict]:
        """Deliver by oid: dense oids are storage positions in the base."""
        positions = np.asarray(oids, dtype=np.int64)
        return self._deliver(relation, positions, delivery, target_name)

    # ------------------------------------------------------------------ #
    # ^-cracking (adaptive semijoin split, §3.4.2)
    # ------------------------------------------------------------------ #

    def wedge_for(
        self, left_table: str, right_table: str, left_key: str, right_key: str
    ) -> WedgeState:
        """The cached ^-crack of ``left.left_key = right.right_key``.

        The first call pays the semijoin split of both operands (read
        both key columns, write both reorganised); later calls are free.
        """
        cache_key = (left_table, right_table, left_key, right_key)
        state = self._wedges.get(cache_key)
        if state is None:
            left_bat = self.table(left_table).column(left_key)
            right_bat = self.table(right_table).column(right_key)
            left_keys = left_bat.tail_array()
            right_keys = right_bat.tail_array()
            self.tracker.read_bytes(left_bat.name, left_bat.nbytes)
            self.tracker.read_bytes(right_bat.name, right_bat.nbytes)
            left_mask = np.isin(left_keys, right_keys)
            right_mask = np.isin(right_keys, left_keys)
            state = WedgeState(
                left_matched=np.flatnonzero(left_mask),
                left_unmatched=np.flatnonzero(~left_mask),
                right_matched=np.flatnonzero(right_mask),
                right_unmatched=np.flatnonzero(~right_mask),
            )
            # The split writes both operands' shuffled key columns.
            self.tracker.write_bytes(f"{left_bat.name}#wedge", left_bat.nbytes)
            self.tracker.write_bytes(f"{right_bat.name}#wedge", right_bat.nbytes)
            self._wedges[cache_key] = state
        return state

    def has_wedge(self, left_table: str, right_table: str,
                  left_key: str, right_key: str) -> bool:
        """True if this join pair has been ^-cracked."""
        return (left_table, right_table, left_key, right_key) in self._wedges

    def join_query(
        self, left_table: str, right_table: str, left_key: str, right_key: str
    ) -> int:
        """Inner-join cardinality via the ^-crack.

        "The first piece can be used to calculate the join without caring
        about non-matching tuples" (§3.3): only the matched pieces feed
        the join kernel.
        """
        state = self.wedge_for(left_table, right_table, left_key, right_key)
        left_keys = self.table(left_table).column(left_key).tail_array()
        right_keys = self.table(right_table).column(right_key).tail_array()
        item_bytes = left_keys.itemsize
        self.tracker.read_bytes(
            f"{left_table}.{left_key}#wedge", len(state.left_matched) * item_bytes
        )
        self.tracker.read_bytes(
            f"{right_table}.{right_key}#wedge", len(state.right_matched) * item_bytes
        )
        left_idx, _ = vector_equi_join(
            left_keys[state.left_matched], right_keys[state.right_matched]
        )
        return len(left_idx)

    def outer_join_complement(
        self, left_table: str, right_table: str, left_key: str, right_key: str
    ) -> tuple[int, int]:
        """Sizes of the non-matching pieces (the outer-join padding, §3.3)."""
        state = self.wedge_for(left_table, right_table, left_key, right_key)
        return len(state.left_unmatched), len(state.right_unmatched)

    # ------------------------------------------------------------------ #
    # Ω-cracking (adaptive group clustering, §3.1 / §3.4.2)
    # ------------------------------------------------------------------ #

    def omega_for(self, table: str, attr: str) -> "OmegaState":
        """The cached Ω-crack of ``table.attr``: one piece per group value.

        "The Ω operation can be implemented as a variation of the Ξ
        cracker" (§3.4.2): the first grouping query clusters the column
        (sort by group value); afterwards every piece is a contiguous run
        and "subsequent aggregation and filtering are simplified" (§3.3).
        """
        key = (table, attr)
        state = self._omegas.get(key)
        if state is None:
            bat = self.table(table).column(attr)
            values = bat.tail_array()
            self.tracker.read_bytes(bat.name, bat.nbytes)
            # Clustering pass: sort positions by group value — the n-way
            # partition into singleton-value pieces.
            order = np.argsort(values, kind="stable")
            clustered = values[order]
            edges = np.flatnonzero(np.diff(clustered)) + 1
            starts = np.concatenate([[0], edges])
            stops = np.concatenate([edges, [len(clustered)]])
            self.tracker.write_bytes(f"{bat.name}#omega", bat.nbytes)
            state = OmegaState(
                positions=order,
                group_values=clustered[starts],
                piece_starts=starts,
                piece_stops=stops,
            )
            self._omegas[key] = state
        return state

    def group_count(self, table: str, attr: str) -> dict:
        """COUNT(*) per group via the Ω pieces (a positional subtraction)."""
        state = self.omega_for(table, attr)
        sizes = state.piece_stops - state.piece_starts
        return {
            int(value): int(size)
            for value, size in zip(state.group_values, sizes)
        }

    def group_aggregate(self, table: str, group_attr: str, agg_attr: str,
                        fn: str = "sum") -> dict:
        """Grouped aggregation over the Ω pieces (sum/min/max/avg).

        Each group is a contiguous run of the clustered positions, so the
        aggregate is a vectorised reduce per slice — no hash table.
        """
        state = self.omega_for(table, group_attr)
        values = self.table(table).column(agg_attr).tail_array()[state.positions]
        self.tracker.read_bytes(f"{table}.{agg_attr}", values.nbytes)
        reducers = {
            "sum": np.add.reduceat,
            "min": np.minimum.reduceat,
            "max": np.maximum.reduceat,
        }
        if fn == "avg":
            sums = np.add.reduceat(values, state.piece_starts)
            sizes = state.piece_stops - state.piece_starts
            results = sums / sizes
        elif fn in reducers:
            results = reducers[fn](values, state.piece_starts)
        else:
            raise ValueError(f"unsupported aggregate {fn!r}; have sum/min/max/avg")
        return {
            int(value): result.item()
            for value, result in zip(state.group_values, results)
        }
