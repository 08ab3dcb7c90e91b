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

Storage is a structure-of-arrays: three parallel numpy arrays (boundary
value, kind rank, storage position) kept sorted by ``(value, rank)``, so
the interval-tree navigation of the paper becomes one ``np.searchsorted``
per probe and bulk operations (position shifts, merge bookkeeping,
invariant checks, pending-update piece assignment) are single vectorised
passes instead of Python loops over boundary objects.  :class:`Boundary`
and :class:`Piece` remain the on-demand object views handed to callers
that inspect the index; the query path navigates with
:meth:`CrackerIndex.probe`, which returns plain positions and builds
neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.crack import KIND_LE, KIND_LT
from repro.errors import CrackerIndexError

#: Sort rank of boundary kinds at equal values: (v,'lt') precedes (v,'le')
#: because the region < v is a prefix of the region <= v.
_KIND_RANK = {KIND_LT: 0, KIND_LE: 1}
_RANK_KIND = (KIND_LT, KIND_LE)

#: Initial boundary-array capacity (grown by doubling).
_MIN_CAPACITY = 16


@dataclass(frozen=True)
class Boundary:
    """One crack boundary: left side is ``< value`` (lt) or ``<= value`` (le)."""

    value: float
    kind: str
    position: int

    @property
    def sort_key(self) -> tuple:
        return (self.value, _KIND_RANK[self.kind])


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

    @property
    def size(self) -> int:
        return self.stop - self.start

    def describes(self) -> str:
        """Human-readable value-range description (for catalog displays)."""
        left = "-inf" if self.lower is None else (
            f"{'>=' if self.lower.kind == KIND_LT else '>'}{self.lower.value}"
        )
        right = "+inf" if self.upper is None else (
            f"{'<' if self.upper.kind == KIND_LT else '<='}{self.upper.value}"
        )
        return f"({left}, {right})"


class CrackerIndex:
    """Sorted boundary set over a cracker column of ``column_size`` tuples.

    Internally three parallel arrays sorted by ``(value, kind-rank)``:
    ``_values`` (float64 navigation keys), ``_ranks`` (0 for 'lt', 1 for
    'le') and ``_positions`` (int64 storage positions).  ``_exact`` keeps
    the boundary values as originally supplied (int vs float), so
    reconstructed :class:`Boundary` objects and piece descriptions show
    what the caller cracked on, not a float coercion, and equality
    decisions (lookup hits, re-add detection) compare the exact values.

    Boundary values must be exactly representable as float64 navigation
    keys; :meth:`add` rejects integers beyond 2**53 instead of silently
    mis-sorting them (float columns and the int domains the paper's
    workloads use are always representable).
    """

    def __init__(self, column_size: int) -> None:
        if column_size < 0:
            raise CrackerIndexError(f"column_size must be >= 0, got {column_size}")
        self.column_size = column_size
        self._count = 0
        self._values = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._ranks = np.empty(_MIN_CAPACITY, dtype=np.int8)
        self._positions = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._exact: list = []
        # The [:count] view of _values, refreshed on add: probes
        # call its searchsorted method directly instead of re-slicing —
        # the probe is the innermost operation of every converged query.
        self._active_values = self._values[:0]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of boundaries (pieces - 1 for a non-empty column)."""
        return self._count

    @property
    def piece_count(self) -> int:
        return self._count + 1

    def positions(self) -> np.ndarray:
        """Boundary storage positions in boundary order (a private copy)."""
        return self._positions[: self._count].copy()

    def boundary_at(self, index: int) -> Boundary:
        """The ``index``-th boundary in sorted order."""
        if not 0 <= index < self._count:
            raise CrackerIndexError(
                f"boundary index {index} out of range 0..{self._count - 1}"
            )
        return Boundary(
            value=self._exact[index],
            kind=_RANK_KIND[self._ranks[index]],
            position=int(self._positions[index]),
        )

    def boundaries(self) -> list[Boundary]:
        """All boundaries in sorted order."""
        return [self.boundary_at(i) for i in range(self._count)]

    def piece_at(self, index: int) -> Piece:
        """The ``index``-th piece (0-based, left to right)."""
        if not 0 <= index <= self._count:
            raise CrackerIndexError(
                f"piece index {index} out of range 0..{self._count}"
            )
        lower = self.boundary_at(index - 1) if index > 0 else None
        upper = self.boundary_at(index) if index < self._count else None
        return Piece(
            start=0 if lower is None else lower.position,
            stop=self.column_size if upper is None else upper.position,
            lower=lower,
            upper=upper,
        )

    def pieces(self) -> list[Piece]:
        """All pieces, left to right."""
        return [self.piece_at(i) for i in range(self._count + 1)]

    def piece_sizes(self) -> list[int]:
        """Sizes of all pieces, left to right (one vectorised diff)."""
        edges = np.empty(self._count + 2, dtype=np.int64)
        edges[0] = 0
        edges[1 : self._count + 1] = self._positions[: self._count]
        edges[self._count + 1] = self.column_size
        return np.diff(edges).tolist()

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #

    def _rank_of(self, kind: str) -> int:
        rank = _KIND_RANK.get(kind, -1)
        if rank < 0:
            raise CrackerIndexError(f"unknown boundary kind {kind!r}")
        return rank

    def _locate(self, value, rank: int) -> int:
        """bisect_left over the composite ``(value, rank)`` keys."""
        n = self._count
        index = int(self._active_values.searchsorted(value, side="left"))
        # At most two boundaries share a value (lt and le), so this walk
        # over the equal-value run is O(1).
        while index < n and self._values[index] == value and self._ranks[index] < rank:
            index += 1
        return index

    def probe(self, value, kind: str) -> tuple[int | None, int, int]:
        """One navigation step: ``(position | None, start, stop)``.

        ``position`` is where boundary ``(value, kind)`` sits, or None
        when the index does not hold it; ``[start, stop)`` is the piece
        the boundary would split — when it exists, the piece left of it,
        so ``stop == position`` (empty if the boundary coincides with
        its left neighbour).  One ``searchsorted`` and no
        :class:`Piece`/:class:`Boundary` objects — this is the call the
        query path makes for every bound.
        """
        rank = self._rank_of(kind)
        index = self._locate(value, rank)
        positions = self._positions
        start = int(positions[index - 1]) if index else 0
        if index == self._count:
            return None, start, self.column_size
        stop = int(positions[index])
        if self._ranks[index] == rank and self._exact[index] == value:
            return stop, start, stop
        return None, start, stop

    def lookup(self, value, kind: str) -> int | None:
        """Position of an existing boundary ``(value, kind)``, or None."""
        return self.probe(value, kind)[0]

    def piece_assignment(self, values: np.ndarray) -> np.ndarray:
        """Piece index each of ``values`` belongs to (boundary semantics).

        Vectorised: a value belongs right of boundary ``(v, 'lt')`` when
        it is ``>= v`` and right of ``(v, 'le')`` when it is ``> v``, so
        its piece index is ``#(boundaries with value <= it)`` minus the
        'le' boundaries whose value equals it exactly.  Used by the
        merge-on-query update path to scatter pending tuples into their
        pieces without materialising any :class:`Piece` objects.
        """
        n = self._count
        if n == 0:
            return np.zeros(len(values), dtype=np.int64)
        keys = self._values[:n]
        c_left = np.searchsorted(keys, values, side="left")
        c_right = np.searchsorted(keys, values, side="right")
        le_cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._ranks[:n] == 1, out=le_cum[1:])
        return (c_right - (le_cum[c_right] - le_cum[c_left])).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _grow(self) -> None:
        capacity = max(_MIN_CAPACITY, 2 * len(self._values))
        for name in ("_values", "_ranks", "_positions"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[: self._count] = old[: self._count]
            setattr(self, name, fresh)

    def add(self, value, kind: str, position: int) -> Boundary:
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
        if float(value) != value:
            # A lossy float64 key would mis-sort this boundary against
            # its neighbours and corrupt every later probe; refuse loudly.
            raise CrackerIndexError(
                f"boundary value {value!r} is not exactly representable as a "
                f"float64 navigation key (integers beyond 2**53)"
            )
        rank = self._rank_of(kind)
        index = self._locate(value, rank)
        n = self._count
        if index < n and self._ranks[index] == rank and self._exact[index] == value:
            existing_position = int(self._positions[index])
            if existing_position != position:
                raise CrackerIndexError(
                    f"boundary ({value!r}, {kind!r}) re-added at position {position}, "
                    f"but exists at {existing_position}"
                )
            return self.boundary_at(index)
        if index > 0 and self._positions[index - 1] > position:
            raise CrackerIndexError(
                f"boundary ({value!r}, {kind!r}) at {position} would precede "
                f"its left neighbour at {int(self._positions[index - 1])}"
            )
        if index < n and self._positions[index] < position:
            raise CrackerIndexError(
                f"boundary ({value!r}, {kind!r}) at {position} would follow "
                f"its right neighbour at {int(self._positions[index])}"
            )
        if n == len(self._values):
            self._grow()
        for array, item in (
            (self._values, value),
            (self._ranks, rank),
            (self._positions, position),
        ):
            array[index + 1 : n + 1] = array[index:n]
            array[index] = item
        self._exact.insert(index, value)
        self._count = n + 1
        self._active_values = self._values[: self._count]
        return Boundary(value=value, kind=kind, position=position)

    def merge_shift(self, per_piece_counts: np.ndarray, new_column_size: int) -> None:
        """Shift boundaries for a piece-wise merge of pending tuples.

        ``per_piece_counts[i]`` is the number of tuples inserted into
        piece ``i``; boundary ``b`` (which has pieces ``0..b`` on its
        left) moves right by the prefix sum ``counts[0..b]``.  One
        vectorised add replaces the rebuild-every-boundary loop of the
        merge path.
        """
        counts = np.asarray(per_piece_counts, dtype=np.int64)
        if len(counts) != self._count + 1:
            raise CrackerIndexError(
                f"merge_shift got {len(counts)} piece counts for "
                f"{self._count + 1} pieces"
            )
        self._positions[: self._count] += np.cumsum(counts[:-1])
        self.column_size = new_column_size

    def remove_shift(self, per_piece_removed: np.ndarray, new_column_size: int) -> None:
        """Shift boundaries for a piece-wise removal of tuples.

        The mirror of :meth:`merge_shift`: ``per_piece_removed[i]`` is the
        number of tuples removed from piece ``i``; boundary ``b`` moves
        left by the prefix sum ``removed[0..b]``.
        """
        removed = np.asarray(per_piece_removed, dtype=np.int64)
        if len(removed) != self._count + 1:
            raise CrackerIndexError(
                f"remove_shift got {len(removed)} piece counts for "
                f"{self._count + 1} pieces"
            )
        self._positions[: self._count] -= np.cumsum(removed[:-1])
        self.column_size = new_column_size

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """A serialisable snapshot of the boundary arrays.

        Every array is a private copy of the active region.  The exact
        boundary values (which preserve int vs float identity) travel as
        a float64 array plus an is-int flag vector — :meth:`add` already
        guarantees each exact value is float64-representable.
        """
        n = self._count
        return {
            "column_size": int(self.column_size),
            "values": self._values[:n].copy(),
            "ranks": self._ranks[:n].copy(),
            "positions": self._positions[:n].copy(),
            "exact_values": np.asarray(
                [float(v) for v in self._exact], dtype=np.float64
            ),
            "exact_is_int": np.asarray(
                [isinstance(v, int) for v in self._exact], dtype=np.bool_
            ),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CrackerIndex":
        """Rebuild an index from :meth:`export_state` output.

        The boundary arrays are installed wholesale (no per-boundary
        re-add), then validated, so a corrupted snapshot fails loudly
        instead of mis-navigating later probes.
        """
        values = np.asarray(state["values"], dtype=np.float64)
        n = len(values)
        index = cls(int(state["column_size"]))
        capacity = max(_MIN_CAPACITY, n)
        index._values = np.empty(capacity, dtype=np.float64)
        index._values[:n] = values
        index._ranks = np.empty(capacity, dtype=np.int8)
        index._ranks[:n] = np.asarray(state["ranks"], dtype=np.int8)
        index._positions = np.empty(capacity, dtype=np.int64)
        index._positions[:n] = np.asarray(state["positions"], dtype=np.int64)
        index._exact = [
            int(value) if is_int else float(value)
            for value, is_int in zip(
                np.asarray(state["exact_values"], dtype=np.float64).tolist(),
                np.asarray(state["exact_is_int"], dtype=np.bool_).tolist(),
            )
        ]
        index._count = n
        index._active_values = index._values[:n]
        index.check_invariants()
        return index

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Raise :class:`CrackerIndexError` if structural invariants fail."""
        n = self._count
        if n == 0:
            return
        values = self._values[:n]
        ranks = self._ranks[:n]
        positions = self._positions[:n]
        if len(self._exact) != n:
            raise CrackerIndexError(
                f"exact-value list holds {len(self._exact)} entries for {n} boundaries"
            )
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
