"""The cracker index: piece administration for a cracked column.

The paper (§3.2) proposes a main-memory *cracker index* instead of catalog
partitions: "for each piece [it] keeps track of the (min,max) bounds of the
(range) attributes, its size, and its location in the database".  MonetDB's
prototype organises it as a decorated interval tree (§5.2).

We represent the index as a sorted sequence of *boundaries*.  A boundary
``(value, kind, position)`` asserts that every tuple stored before
``position`` is on the left of the pivot:

* kind ``'lt'``: positions ``< position`` hold values ``< value``;
* kind ``'le'``: positions ``< position`` hold values ``<= value``.

Consecutive boundaries delimit *pieces*; each piece knows its value range
and its location ``[start, stop)`` inside the cracker column — exactly the
(min,max)/size/location triple of the paper.

Storage is three parallel Python lists (boundary value, kind rank,
storage position) kept sorted by ``(value, rank)``, so the interval-tree
navigation of the paper becomes one ``bisect`` per probe and a new
boundary three ``list.insert`` calls.  The bulk operations (position
shifts, merge bookkeeping, invariant checks, pending-update piece
assignment, snapshots) build the numpy arrays they need once per call —
per merge or checkpoint, not per bound — in the column's own dtype.
:class:`Boundary` (:meth:`CrackerIndex.boundary_at`) is the object view
handed to callers that inspect the index, and :class:`Piece` names a
piece in invariant errors; the query path navigates with
:meth:`CrackerIndex.probe`, which returns plain positions and builds
neither.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.core.crack import KIND_LE, KIND_LT
from repro.errors import CrackerIndexError

#: Sort rank of boundary kinds at equal values: (v,'lt') precedes (v,'le')
#: because the region < v is a prefix of the region <= v.
_KIND_RANK = {KIND_LT: 0, KIND_LE: 1}
_RANK_KIND = (KIND_LT, KIND_LE)


@dataclass(frozen=True)
class Boundary:
    """One crack boundary: left side is ``< value`` (lt) or ``<= value`` (le)."""

    value: float
    kind: str
    position: int


@dataclass(frozen=True)
class Piece:
    """A contiguous piece of the cracker column.

    Attributes:
        start: first storage position of the piece.
        stop: one past the last storage position.
        lower: the boundary on the piece's left, or None at the column head.
        upper: the boundary on the piece's right, or None at the column tail.
    """

    start: int
    stop: int
    lower: Boundary | None
    upper: Boundary | None

    def describes(self) -> str:
        """Human-readable value range (names the piece in invariant errors)."""
        left = "-inf" if self.lower is None else (
            f"{'>=' if self.lower.kind == KIND_LT else '>'}{self.lower.value}"
        )
        right = "+inf" if self.upper is None else (
            f"{'<' if self.upper.kind == KIND_LT else '<='}{self.upper.value}"
        )
        return f"({left}, {right})"


class CrackerIndex:
    """Sorted boundary set over a cracker column of ``column_size`` tuples.

    Internally three parallel lists sorted by ``(value, kind-rank)``:
    ``_exact`` (the boundary values as supplied), ``_ranks`` (0 for
    'lt', 1 for 'le') and ``_positions`` (storage positions).

    Boundary values are values of the column's ``dtype``, the paper's
    "(min,max) bounds of the (range) attributes": Python ints for an
    int64 column, floats for a float64 one, so navigation compares them
    exactly and the bulk passes hold them as an array of that dtype.
    The cracked column folds every bound into its type before it gets
    here (:func:`repro.core.bounds.typed_bound`).  An index built with
    no column (``dtype`` object) holds any Python numbers and compares
    them as Python does, 5 equal to 5.0.
    """

    def __init__(self, column_size: int, dtype=object) -> None:
        if column_size < 0:
            raise CrackerIndexError(f"column_size must be >= 0, got {column_size}")
        self.column_size = column_size
        self.dtype = np.dtype(dtype)
        self._exact: list = []
        self._ranks: list[int] = []
        self._positions: list[int] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of boundaries (pieces - 1 for a non-empty column)."""
        return len(self._positions)

    @property
    def piece_count(self) -> int:
        return len(self._positions) + 1

    def positions(self) -> np.ndarray:
        """Boundary storage positions in boundary order (a fresh array)."""
        return np.array(self._positions, dtype=np.int64)

    def keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact boundary values and kind ranks (0 'lt', 1 'le'), in
        boundary order, for vectorised checks."""
        return np.array(self._exact, dtype=self.dtype), np.array(self._ranks, dtype=np.int8)

    def boundary_at(self, index: int) -> Boundary:
        """The ``index``-th boundary in sorted order."""
        if not 0 <= index < len(self):
            raise CrackerIndexError(
                f"boundary index {index} out of range 0..{len(self) - 1}"
            )
        return Boundary(
            value=self._exact[index],
            kind=_RANK_KIND[self._ranks[index]],
            position=self._positions[index],
        )

    def piece_sizes(self) -> list[int]:
        """Sizes of all pieces, left to right."""
        edges = [0, *self._positions, self.column_size]
        return [stop - start for start, stop in zip(edges, edges[1:])]

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #

    def _locate(self, value, kind: str) -> tuple[int, int]:
        """bisect_left over the composite ``(value, rank)`` keys, and the
        kind's rank."""
        rank = _KIND_RANK.get(kind)
        if rank is None:
            raise CrackerIndexError(f"unknown boundary kind {kind!r}")
        exact, ranks = self._exact, self._ranks
        index = bisect_left(exact, value)
        # At most two boundaries share a value (lt and le), so this walk
        # over the equal-value run is O(1).
        if index < len(ranks) and ranks[index] < rank and exact[index] == value:
            index += 1
        return index, rank

    def probe(self, value, kind: str) -> tuple[int | None, int, int]:
        """One navigation step: ``(position | None, start, stop)``.

        ``position`` is where boundary ``(value, kind)`` sits, or None
        when the index does not hold it; ``[start, stop)`` is the piece
        the boundary would split — when it exists, the piece left of it,
        so ``stop == position`` (empty if the boundary coincides with
        its left neighbour).  One ``bisect`` and no
        :class:`Piece`/:class:`Boundary` objects — this is the call the
        query path makes for every bound.
        """
        try:
            rank = _KIND_RANK[kind]
        except KeyError:
            raise CrackerIndexError(f"unknown boundary kind {kind!r}") from None
        exact, positions = self._exact, self._positions
        index = bisect_left(exact, value)
        start = positions[index - 1] if index else 0
        if index == len(positions):
            return None, start, self.column_size
        stop = positions[index]
        if exact[index] != value:
            return None, start, stop
        ranks = self._ranks
        if ranks[index] < rank:  # (value, 'lt') first: the piece right of it
            index += 1
            start = stop
            if index == len(positions):
                return None, start, self.column_size
            stop = positions[index]
            if exact[index] != value:
                return None, start, stop
        return stop if ranks[index] == rank else None, start, stop

    def piece_assignment(self, values: np.ndarray) -> np.ndarray:
        """Piece index each of ``values`` belongs to (boundary semantics).

        Vectorised: a value belongs right of boundary ``(v, 'lt')`` when
        it is ``>= v`` and right of ``(v, 'le')`` when it is ``> v``, so
        its piece index is ``#(boundaries with value <= it)`` minus the
        'le' boundaries whose value equals it exactly.  Used by the
        merge-on-query update path to scatter pending tuples into their
        pieces without materialising any :class:`Piece` objects.
        """
        n = len(self)
        if n == 0:
            return np.zeros(len(values), dtype=np.int64)
        keys, ranks = self.keys()
        c_left = np.searchsorted(keys, values, side="left")
        c_right = np.searchsorted(keys, values, side="right")
        le_cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(ranks == 1, out=le_cum[1:])
        return (c_right - (le_cum[c_right] - le_cum[c_left])).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, value, kind: str, position: int) -> None:
        """Insert boundary ``(value, kind)`` at storage ``position``.

        Enforces the structural invariant that boundary positions are
        monotonically non-decreasing in boundary order.
        """
        if not 0 <= position <= self.column_size:
            raise CrackerIndexError(
                f"boundary position {position} out of range 0..{self.column_size}"
            )
        if isinstance(value, np.generic):
            value = value.item()
        index, rank = self._locate(value, kind)
        exact, ranks, positions = self._exact, self._ranks, self._positions
        n = len(positions)
        if index < n and ranks[index] == rank and exact[index] == value:
            if positions[index] != position:
                raise CrackerIndexError(
                    f"boundary ({value!r}, {kind!r}) re-added at position {position}, "
                    f"but exists at {positions[index]}"
                )
            return
        if index > 0 and positions[index - 1] > position:
            raise CrackerIndexError(
                f"boundary ({value!r}, {kind!r}) at {position} would precede "
                f"its left neighbour at {positions[index - 1]}"
            )
        if index < n and positions[index] < position:
            raise CrackerIndexError(
                f"boundary ({value!r}, {kind!r}) at {position} would follow "
                f"its right neighbour at {positions[index]}"
            )
        exact.insert(index, value)
        ranks.insert(index, rank)
        positions.insert(index, int(position))

    def merge_shift(self, per_piece_counts: np.ndarray, new_column_size: int) -> None:
        """Shift boundaries for a piece-wise merge of pending tuples.

        ``per_piece_counts[i]`` is piece ``i``'s net change in tuples
        (inserted minus removed); boundary ``b`` (which has pieces
        ``0..b`` on its left) moves by the prefix sum ``counts[0..b]``.
        """
        counts = np.asarray(per_piece_counts, dtype=np.int64)
        if len(counts) != self.piece_count:
            raise CrackerIndexError(
                f"merge_shift got {len(counts)} piece counts for "
                f"{self.piece_count} pieces"
            )
        self._positions = (self.positions() + np.cumsum(counts[:-1])).tolist()
        self.column_size = new_column_size

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """A serialisable snapshot of the boundaries, as arrays; the
        values in the index's dtype."""
        values, ranks = self.keys()
        return {
            "column_size": int(self.column_size),
            "exact_values": values,
            "ranks": ranks,
            "positions": self.positions(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CrackerIndex":
        """Rebuild an index from :meth:`export_state` output.

        The boundary lists are installed wholesale (no per-boundary
        re-add), then validated, so a corrupted snapshot fails loudly
        instead of mis-navigating later probes.
        """
        values = np.asarray(state["exact_values"])
        index = cls(int(state["column_size"]), values.dtype)
        index._exact = values.tolist()
        index._ranks = np.asarray(state["ranks"], dtype=np.int8).tolist()
        index._positions = np.asarray(state["positions"], dtype=np.int64).tolist()
        index.check_invariants()
        return index

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Raise :class:`CrackerIndexError` if structural invariants fail."""
        n = len(self._positions)
        if not len(self._exact) == len(self._ranks) == n:
            raise CrackerIndexError(
                f"boundary lists disagree: {len(self._exact)} values, "
                f"{len(self._ranks)} ranks, {n} positions"
            )
        if n == 0:
            return
        values, ranks = self.keys()
        positions = self.positions()
        same_value = values[:-1] == values[1:]
        out_of_order = (values[:-1] > values[1:]) | (
            same_value & (ranks[:-1] >= ranks[1:])
        )
        if out_of_order.any():
            where = int(np.flatnonzero(out_of_order)[0])
            raise CrackerIndexError(
                f"boundaries out of order: {self.boundary_at(where)} !< "
                f"{self.boundary_at(where + 1)}"
            )
        not_monotone = positions[:-1] > positions[1:]
        if not_monotone.any():
            where = int(np.flatnonzero(not_monotone)[0])
            raise CrackerIndexError(
                f"boundary positions not monotone: {self.boundary_at(where)} vs "
                f"{self.boundary_at(where + 1)}"
            )
        outside = (positions < 0) | (positions > self.column_size)
        if outside.any():
            where = int(np.flatnonzero(outside)[0])
            raise CrackerIndexError(
                f"boundary {self.boundary_at(where)} outside the column"
            )
