"""A self-organising cracked column: the adaptive index of the paper.

A :class:`CrackedColumn` is the per-attribute cracker of §3.4.2: on first
touch it copies the base BAT's tail and oids into a private *cracker
column* (MonetDB shuffles the original storage area under transaction
protection; we keep the base BAT pristine and shuffle the copy, which is
the variant later adopted by the cracking literature and equivalent for
cost purposes — one extra sequential copy on first touch, charged to the
first query).  Every range query then:

1. navigates the cracker index to the pieces containing the bounds,
2. cracks those pieces (crack-in-three when both bounds fall in one
   piece, otherwise up to two crack-in-twos),
3. answers with a copy of the contiguous span between the bounds: the
   next query reorganises storage in place.

With a ``crack_threshold`` T > 0, step 2 stops at pieces of at most T
tuples (§3.4.2 names cut-off points below which splitting stops paying;
the hybrid crack-sort of "Merging What's Cracked, Cracking What's
Merged", PVLDB'11, is the follow-up's answer): the first bound that
lands in such a piece sorts it in place, once, and that bound and every
later one in the piece is a binary search.  No kernel runs, the cracker
index gains no boundary, and the answer is still a contiguous span — a
converged column is read-only.

Above ``PIVOT_FACTOR * T`` tuples, a bound's piece is first halved at
median-of-three pivots, the DDR rule of Halim et al., "Stochastic
Database Cracking" (PVLDB'12): otherwise a sliding window's high bound
re-partitions one huge uncracked remainder on every query.  Pivots are
ordinary boundaries; with T = 0 every boundary is a query bound.

Updates (the future-work item of §7) follow "Updating a Cracked
Database" (Idreos, Kersten & Manegold, SIGMOD'07).  Inserts and deletes
wait in two value-sorted buffers; an UPDATE is a delete of the row's
stored copy plus an insert under the same oid.  A query merges only the
pending tuples inside its own range, the paper's partial merge, in one
pass over storage; a sorted piece stays sorted through it.  A count
reads no tuple and merges nothing: it adds the pending inserts in its
range to the span and subtracts the pending deletes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.bounds import EMPTY, INT64_MAX, INT64_MIN, typed_bound
from repro.core.crack import (
    KIND_LE,
    KIND_LT,
    CrackStats,
    crack_in_three,
    crack_in_two,
)
from repro.core.cracker_index import CrackerIndex, Piece
from repro.errors import CrackError
from repro.obs import trace as obs_trace
from repro.storage.bat import BAT

#: The cut-off the SQL layer ships (``Database``, ``CrackerProvider``,
#: ``repro serve``).  ``CrackedColumn`` itself defaults to 0, the paper's
#: unbounded prototype, and ``DatabaseEngine`` opens its ``Database``
#: with 0, so ``experiments/fig*`` reproduce that prototype.  Chosen,
#: with ``PIVOT_FACTOR``, from the sweep in README "Crack threshold tuning".
DEFAULT_CRACK_THRESHOLD = 4096

#: Pieces above this many times T are halved at pivots before a bound
#: cracks them (:meth:`CrackedColumn._halve`); README "Pivots above 2 × T".
PIVOT_FACTOR = 2

#: A count merges nothing (:meth:`CrackedColumn.count_range`) until the
#: pending buffers hold more than this share of the column; then it
#: merges them all, so they stay bounded and drain in one pass (a write
#: does the same past twice this share).  Chosen from the ``mixed_dml``
#: sweep in README "Partial merges".
PENDING_SHARE = 1 / 16

#: Flags of ``CrackedColumn._state``, one byte per oid: physically in
#: storage; that stored copy has a pending delete; a pending insert.
_STORED, _DOOMED, _QUEUED = 1, 2, 4


def _count_in(values: np.ndarray, low, high, low_side: str, high_side: str) -> int:
    """How many of the ascending ``values`` a range query qualifies."""
    start = 0 if low is None else int(values.searchsorted(low, low_side))
    stop = len(values) if high is None else int(values.searchsorted(high, high_side))
    return max(0, stop - start)


def _contains(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """``np.isin(probes, keys)`` for ascending ``keys``, by binary search."""
    if keys.size == 0:
        return np.zeros(len(probes), dtype=bool)
    at = keys.searchsorted(probes)
    np.minimum(at, len(keys) - 1, out=at)
    return keys[at] == probes


def _last_per_oid(oids: np.ndarray, *columns: np.ndarray) -> tuple:
    """Distinct ``oids`` ascending, each with its last-given ``columns``."""
    if (oids[1:] > oids[:-1]).all():  # already so: the SQL layer's oids
        return (oids, *columns)
    order = np.argsort(oids, kind="stable")
    oids = oids[order]
    last = np.ones(len(oids), dtype=bool)
    last[:-1] = oids[:-1] != oids[1:]
    return (oids[last], *(column[order][last] for column in columns))


def _sorted_insert(keys, payload, new_keys, new_payload) -> tuple:
    """Merge ``(new_keys, new_payload)`` into the key-sorted pair.

    Sorts only the new keys and finds their slots by binary search: one
    copy of the buffer but no sort of it.  (``np.insert`` does the same
    placement at twice the fixed cost per call.)  New keys that share
    one slot — an UPDATE's one new value — go in as one block.
    """
    order = np.argsort(new_keys, kind="stable")
    new_keys = new_keys[order]
    at = keys.searchsorted(new_keys, "right")
    if at[0] == at[-1]:
        cut = at[0]
        return tuple(
            np.concatenate((column[:cut], new, column[cut:]))
            for column, new in ((keys, new_keys), (payload, new_payload[order]))
        )
    at += np.arange(len(at))
    old = np.ones(len(keys) + len(at), dtype=bool)
    old[at] = False
    merged = []
    for column, new in ((keys, new_keys), (payload, new_payload[order])):
        out = np.empty(len(old), dtype=column.dtype)
        out[at] = new
        out[old] = column
        merged.append(out)
    return tuple(merged)


@dataclass
class SelectionResult:
    """Answer of a cracked range query: a span of the cracker column.

    ``oids`` / ``values`` are owned copies of storage ``[start, stop)``,
    whatever the ``crack_threshold``, so later cracks, sorts and merges
    never reach them; a range empty by construction is the empty span
    ``[0, 0)``.
    """

    oids: np.ndarray
    values: np.ndarray
    start: int
    stop: int

    @property
    def count(self) -> int:
        return len(self.oids)


@dataclass
class QueryStats:
    """Per-column query accounting, complementing :class:`CrackStats`."""

    queries: int = 0
    pieces_inspected: int = 0
    merged_updates: int = 0


class CrackedColumn:
    """The cracker for a single numeric column.

    Args:
        source: base BAT (int or float tail) to crack.  The BAT itself is
            never mutated; the cracker works on a private copy.
        crack_threshold: sort below T — a bound that misses the index
            and falls in a piece of at most this many tuples sorts the
            piece in place (once) and is resolved by binary search
            instead of a crack.  0 (default) cracks at query bounds only
            (the paper's prototype).  A plain attribute: the SQL layer sets
            it on a restored column, and it is safe to change between
            queries.
    """

    def __init__(self, source: BAT, crack_threshold: int = 0) -> None:
        if source.tail_type not in ("int", "float", "oid"):
            raise CrackError(
                f"cracking requires a numeric column, got {source.tail_type!r}"
            )
        self._setup(
            source.tail_array().copy(), source.head_array().copy(), crack_threshold
        )

    @classmethod
    def from_arrays(
        cls,
        values: np.ndarray,
        oids: np.ndarray | None = None,
        crack_threshold: int = 0,
    ) -> "CrackedColumn":
        """Build a cracker directly over value/oid arrays (no BAT).

        The tombstone-aware first touch uses this to crack only a
        relation's live rows.  ``oids`` defaults to the dense positions
        ``0..len(values)``; both arrays are copied.
        """
        values = np.asarray(values)
        if values.dtype.kind not in ("i", "u", "f"):
            raise CrackError(
                f"cracking requires a numeric column, got dtype {values.dtype}"
            )
        if oids is None:
            oids = np.arange(len(values), dtype=np.int64)
        else:
            oids = np.asarray(oids, dtype=np.int64)
            if len(oids) != len(values):
                raise CrackError(
                    f"from_arrays got {len(values)} values but {len(oids)} oids"
                )
        column = cls.__new__(cls)
        column._setup(values.copy(), oids.copy(), crack_threshold)
        return column

    def _setup(self, values: np.ndarray, oids: np.ndarray, crack_threshold: int) -> None:
        if crack_threshold < 0:
            raise CrackError(
                f"crack_threshold must be >= 0, got {crack_threshold}"
            )
        self.crack_threshold = crack_threshold
        self.values = values
        self._integer = values.dtype.kind != "f"  # merges keep the dtype
        self.oids = oids
        self.index = CrackerIndex(len(self.values), values.dtype)
        self.crack_stats = CrackStats()
        self.query_stats = QueryStats()
        # Pending changes, one value-sorted (values, oids) pair per kind.
        # Inserts carry the row's new value; deletes carry the value of
        # the row's copy *in storage*, which names the piece it is in.
        self._ins_values = np.empty(0, dtype=values.dtype)
        self._ins_oids = np.empty(0, dtype=np.int64)
        self._del_values = np.empty(0, dtype=values.dtype)
        self._del_oids = np.empty(0, dtype=np.int64)
        self._next_oid = int(self.oids.max()) + 1 if len(self.oids) else 0
        # ``_state[oid]`` flags where each oid is (_STORED, _DOOMED,
        # _QUEUED): the write path's membership tests, O(k) in the oids
        # asked about instead of O(n) in the column or O(p) in the
        # buffers.  A stored row with a pending delete stays _STORED
        # until the merge.  Derived state, never persisted; mutated only
        # beside storage and the buffers, in the same call.
        self._state = np.zeros(self._next_oid, dtype=np.uint8)
        self._state[self.oids] = _STORED
        # ``(start, stop)`` of pieces known to be sorted: a bound in one
        # is a binary search, whatever ``crack_threshold`` is now, so no
        # kernel cracks it and it stays one whole piece.  A merge
        # puts each new tuple of a span at its ``searchsorted`` position
        # and shifts the span with its pieces' edges; it never clears
        # the set.  Never persisted: a miss costs one comparison pass,
        # not a wrong answer.
        self._sorted_spans: set[tuple[int, int]] = set()
        # Optional per-column introspection (lineage/workload profiler).
        # None unless Database(profile=True) attached one — every hook
        # below costs a single attribute check when disabled.
        self.introspect = None

    def __len__(self) -> int:
        return len(self.values)

    @property
    def piece_count(self) -> int:
        return self.index.piece_count

    @property
    def pending_update_count(self) -> int:
        """Updates waiting: buffered inserts whose oid is still stored."""
        return int(np.count_nonzero(self._is_stored(self._ins_oids)))

    def observability(self) -> dict:
        """One flat dict of this column's crack/query/pending accounting.

        The per-column sample the observability layer exports (through
        ``Database.stats()`` and the metrics registry's collectors):
        piece count and size distribution, cumulative crack work, query
        counters and the depths of the three pending buffers.  Caller
        holds whatever lock guards this column (in the SQL layer, the
        database's statement lock).
        """
        sizes = self.index.piece_sizes()
        updates = self.pending_update_count
        return {
            "pieces": self.piece_count,
            "tuples": len(self.values),
            "cracks": self.crack_stats.cracks,
            "pivot_cracks": self.crack_stats.pivot_cracks,
            "sorts": self.crack_stats.sorts,
            "sorted_pieces": len(self._sorted_spans),
            "tuples_touched": self.crack_stats.tuples_touched,
            "tuples_moved": self.crack_stats.tuples_moved,
            "queries": self.query_stats.queries,
            "pieces_inspected": self.query_stats.pieces_inspected,
            "merged_updates": self.query_stats.merged_updates,
            "pending_inserts": len(self._ins_oids) - updates,
            "pending_deletes": len(self._del_oids) - updates,
            "pending_updates": updates,
            "piece_tuples": {
                "min": min(sizes) if sizes else 0,
                "max": max(sizes) if sizes else 0,
                "mean": sum(sizes) / len(sizes) if sizes else 0.0,
            },
        }

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def range_select(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> SelectionResult:
        """Answer ``low θ attr θ high`` adaptively.

        ``None`` bounds make the predicate one-sided.  Each bound is
        first folded into the column's type (:meth:`_typed_range`).
        Pending changes whose value the range can see are merged first.
        Each bound the index does not hold yet cracks its piece — or, at
        or below ``crack_threshold``, sorts it once — and the answer is a
        copy of the span between the two positions.
        """
        self.query_stats.queries += 1
        bounds = self._typed_range(low, high, low_inclusive, high_inclusive)
        if bounds is None:
            return self._span_result(0, 0)
        if self._ins_oids.size or self._del_oids.size:
            self._merge_pending(bounds[0], bounds[1])
        return self._span_result(*self._span(*bounds))

    def count_range(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> int:
        """Count qualifying tuples; cracks as a side effect, merges nothing.

        A count reads no tuple, so pending changes stay pending: the
        answer is the span of stored tuples, plus the pending inserts in
        range, minus the pending deletes in range — each keyed by the
        value of a tuple that is in storage, so in the span exactly when
        it is in range.  Two binary searches per buffer.  Only when the
        buffers hold more than :data:`PENDING_SHARE` of the column does
        a count merge them, all at once, to keep them bounded (a write
        does the same past twice that share, so a stream with no read
        stays bounded too).
        """
        self.query_stats.queries += 1
        if not (  # the common case: two int64 ints, in order, on an int column
            type(low) is type(high) is int and INT64_MIN <= low < high <= INT64_MAX
            and self._integer
        ):
            bounds = self._typed_range(low, high, low_inclusive, high_inclusive)
            if bounds is None:
                return 0
            low, high, low_inclusive, high_inclusive = bounds
        pending = self._ins_oids.size + self._del_oids.size
        if pending and pending > PENDING_SHARE * len(self.values):
            self._merge_pending()
            pending = 0
        start, stop = self._span(low, high, low_inclusive, high_inclusive)
        if not pending:
            return stop - start
        sides = ("left" if low_inclusive else "right", "right" if high_inclusive else "left")
        return (
            stop - start
            + _count_in(self._ins_values, low, high, *sides)
            - _count_in(self._del_values, low, high, *sides)
        )

    def _typed_range(self, low, high, low_inclusive: bool, high_inclusive: bool):
        """``(low, high, low_inclusive, high_inclusive)`` with each bound in
        the column's type (:func:`~repro.core.bounds.typed_bound`; None for
        an open side), or None when no value qualifies: an empty side, an
        inverted range or a point range that excludes its point.

        A lower bound alone on a float column stops at +inf: NaN passes no
        bound, and sorts above +inf.  An empty range is answered without
        reorganising: cracking it would invert the boundary ordering.
        """
        integer = self._integer
        if low is not None:
            low = typed_bound(low, "low", low_inclusive, integer)
            if low is EMPTY:
                return None
            low, low_inclusive = low or (None, low_inclusive)
        if high is not None:
            high = typed_bound(high, "high", high_inclusive, integer)
            if high is EMPTY:
                return None
            high, high_inclusive = high or (None, high_inclusive)
        if high is None and low is not None and not integer:
            high, high_inclusive = math.inf, True
        if low is not None and high is not None and (
            high < low or (high == low and not (low_inclusive and high_inclusive))
        ):
            return None
        return low, high, low_inclusive, high_inclusive

    def _span(self, low, high, low_inclusive: bool, high_inclusive: bool) -> tuple[int, int]:
        """The storage span of ``low θ attr θ high``.  A bound the index
        holds is its position, and one in a remembered sorted piece one
        binary search of it: all a converged column does.  Bounds left in
        one piece of up to ``PIVOT_FACTOR * T`` tuples crack it in three,
        any other is settled alone (:meth:`_settle`)."""
        probe, values, spans = self.index.probe, self.values, self._sorted_spans
        low_kind = KIND_LT if low_inclusive else KIND_LE
        high_kind = KIND_LE if high_inclusive else KIND_LT
        if low is None:
            start = 0
        else:
            start, low_start, low_stop = probe(low, low_kind)
            if start is None and (low_start, low_stop) in spans:
                start = low_start + int(values[low_start:low_stop].searchsorted(
                    low, "left" if low_inclusive else "right"
                ))
        if high is None:
            stop = len(values)
        else:
            stop, high_start, high_stop = probe(high, high_kind)
            if stop is None and (high_start, high_stop) in spans:
                stop = high_start + int(values[high_start:high_stop].searchsorted(
                    high, "right" if high_inclusive else "left"
                ))
        if start is None:
            threshold = self.crack_threshold
            if stop is None and (low_start, low_stop) == (high_start, high_stop) and (
                threshold < low_stop - low_start <= (PIVOT_FACTOR * threshold or len(values))
            ):
                return self._crack_three(low, high, low_kind, high_kind, low_start, low_stop)
            boundaries = len(self.index)
            start = self._settle(low, low_kind, low_start, low_stop)
            if stop is None and len(self.index) != boundaries:
                # The low bound's crack may have split the high bound's piece.
                stop, high_start, high_stop = probe(high, high_kind)
        if stop is None:
            stop = self._settle(high, high_kind, high_start, high_stop)
        return start, stop

    def _span_result(self, start: int, stop: int) -> SelectionResult:
        """The answer ``[start, stop)``, copied out of storage."""
        return SelectionResult(
            oids=self.oids[start:stop].copy(),
            values=self.values[start:stop].copy(),
            start=start,
            stop=stop,
        )

    # ------------------------------------------------------------------ #
    # Updates (merge-on-query extension)
    # ------------------------------------------------------------------ #

    def append(self, values, oids=None) -> np.ndarray:
        """Queue new tuples; each joins storage with the first query that
        ranges over its value.  Returns their oids.

        ``oids`` default to the next fresh ones.  Given oids that start
        at or past every oid the column has seen and strictly ascend (the
        SQL layer's INSERT) are non-negative, distinct and not held, so
        that one check admits them; any others are checked rule by rule.
        """
        values = np.asarray(values, dtype=self.values.dtype)
        if oids is None:
            oids = np.arange(self._next_oid, self._next_oid + len(values), dtype=np.int64)
        else:
            oids = np.asarray(oids, dtype=np.int64)
            if len(oids) != len(values):
                raise CrackError(
                    f"append got {len(values)} values but {len(oids)} oids"
                )
            if oids.size and not (oids[0] >= self._next_oid and (oids[1:] > oids[:-1]).all()):
                if oids.min() < 0:
                    raise CrackError("append got a negative oid")
                if (self._flags(oids) & (_STORED | _QUEUED)).any():
                    raise CrackError("append got an oid the column already holds")
                ordered = np.sort(oids)
                if (ordered[1:] == ordered[:-1]).any():
                    raise CrackError("append got the same oid twice")
        if len(values):
            self._ins_values, self._ins_oids = _sorted_insert(
                self._ins_values, self._ins_oids, values, oids
            )
            self._next_oid = max(self._next_oid, self._flag(oids, _QUEUED))
            self._bound_pending(2 * PENDING_SHARE)
        return oids

    def delete(self, oids, old_values) -> int:
        """Delete live rows by oid; returns how many were live.

        ``old_values`` are the rows' current values, aligned with
        ``oids``: the key that finds a row's piece, since the column has
        no oid → position map (the SQL layer reads them from the base
        column; entries for oids that are not live are ignored).  A row
        still in the insert buffer leaves it at once; a stored row gets
        a pending delete, merged out by the first query that ranges over
        its value.  Oids of rows that are not live are ignored.
        """
        oids = np.asarray(oids, dtype=np.int64)
        old_values = self._aligned(oids, old_values)
        if oids.size == 0:
            return 0
        oids, old_values = _last_per_oid(oids, old_values)
        live = len(oids[self._unlink(oids, old_values)])
        self._bound_pending(2 * PENDING_SHARE)
        return live

    def update(self, oids, values, old_values) -> int:
        """Rewrite live rows by oid (last write wins per oid); returns how
        many were live.

        An update is a delete of the row plus an insert under the same
        oid carrying the new value — the translation SIGMOD'07 uses.
        ``old_values`` are as for :meth:`delete`.
        """
        oids = np.asarray(oids, dtype=np.int64)
        values = np.asarray(values, dtype=self.values.dtype)
        if len(oids) != len(values):
            raise CrackError(
                f"update got {len(oids)} oids but {len(values)} values"
            )
        old_values = self._aligned(oids, old_values)
        if oids.size == 0:
            return 0
        oids, values, old_values = _last_per_oid(oids, values, old_values)
        live = self._unlink(oids, old_values, _QUEUED)
        oids, values = oids[live], values[live]
        if oids.size:
            self._ins_values, self._ins_oids = _sorted_insert(
                self._ins_values, self._ins_oids, values, oids
            )
        self._bound_pending(2 * PENDING_SHARE)
        return len(oids)

    def _aligned(self, oids: np.ndarray, old_values) -> np.ndarray:
        """``old_values`` as a column-dtype array aligned with ``oids``."""
        old_values = np.asarray(old_values, dtype=self.values.dtype)
        if len(old_values) != len(oids):
            raise CrackError(f"got {len(oids)} oids but {len(old_values)} old values")
        return old_values

    def _unlink(self, oids: np.ndarray, old_values: np.ndarray, queue: int = 0):
        """Take the live rows among ``oids`` (ascending, distinct) out of
        the column's view and set ``queue`` on them; returns what picks
        the live ones out of ``oids``: a mask, or ``slice(None)`` for all.

        A row in the insert buffer leaves it.  A stored row without a
        pending delete gets one, keyed by its stored value — which is
        its current value, because every change of a stored row goes
        through a delete of its stored copy.  Membership is read from
        ``_state``; only rows leaving the insert buffer search it, and
        nothing scans storage.  When one gather of ``_state`` shows
        every row stored with nothing pending (a key-range DML's rows,
        as a rule), their deletes queue whole and one write flags them.
        """
        state = self._state
        if oids[0] >= 0 and oids[-1] < len(state) and (state[oids] == _STORED).all():
            self._del_values, self._del_oids = _sorted_insert(
                self._del_values, self._del_oids, old_values, oids
            )
            state[oids] = _STORED | _DOOMED | queue
            return slice(None)
        flags = self._flags(oids)
        queued = (flags & _QUEUED) != 0
        stored = (flags & (_STORED | _DOOMED)) == _STORED
        if queued.any():
            leaving = _contains(oids[queued], self._ins_oids)
            self._ins_values = self._ins_values[~leaving]
            self._ins_oids = self._ins_oids[~leaving]
            state[oids[queued]] &= ~np.uint8(_QUEUED)
        if stored.any():
            gone = oids[stored]
            self._del_values, self._del_oids = _sorted_insert(
                self._del_values, self._del_oids, old_values[stored], gone
            )
            state[gone] |= _DOOMED
        live = queued | stored
        if queue:
            state[oids[live]] |= queue
        return live

    def _stored_values(self, oids: np.ndarray) -> np.ndarray:
        """The stored value of each of ``oids``: one O(n) pass, for
        restoring the delete buffer from a checkpoint and for
        :meth:`check_invariants`."""
        if not self._is_stored(oids).all():
            raise CrackError("pending delete references oids absent from storage")
        wanted = np.zeros(len(self._state), dtype=bool)
        wanted[oids] = True
        at = np.flatnonzero(wanted[self.oids])
        order = np.argsort(self.oids[at])
        at = at[order]
        return self.values[at[self.oids[at].searchsorted(oids)]]

    def _flags(self, oids: np.ndarray) -> np.ndarray:
        """The ``_state`` flags of ``oids``; negative or never-seen oids
        have none."""
        state = self._state
        known = (oids >= 0) & (oids < len(state))
        flags = np.zeros(len(oids), dtype=np.uint8)
        flags[known] = state[oids[known]]
        return flags

    def _is_stored(self, oids: np.ndarray) -> np.ndarray:
        """``np.isin(oids, self.oids)``, from the flags."""
        return (self._flags(oids) & _STORED) != 0

    def _flag(self, oids: np.ndarray, flag: int) -> int:
        """Set ``flag`` on ``oids``, growing ``_state`` by doubling;
        returns the largest oid plus one."""
        top = int(oids.max()) + 1
        if top > len(self._state):
            grown = np.zeros(max(top, 2 * len(self._state)), dtype=np.uint8)
            grown[: len(self._state)] = self._state
            self._state = grown
        self._state[oids] |= flag
        return top

    def _bound_pending(self, share: float) -> None:
        """Merge every pending change once the buffers hold more than
        ``share`` of the column: reads use :data:`PENDING_SHARE`, writes
        twice that, so a read-mixed stream drains at its reads."""
        if len(self._ins_oids) + len(self._del_oids) > share * len(self.values):
            self._merge_pending()

    def _merge_pending(self, low=None, high=None) -> None:
        """Merge the pending changes a query over ``[low, high]`` can see.

        The partial merge of SIGMOD'07: the buffers are value-sorted, so
        the tuples a bounded range can see are one slice of each, two
        binary searches per buffer.  Only those merge; the rest wait for a query
        that needs them.  A one-sided or unbounded query merges
        everything.  A merged insert whose oid is still stored is an
        update, and the delete of its stored copy merges with it, so
        storage never holds an oid twice.  The work is wrapped in a
        ``pending_merge`` span when a trace is active.
        """
        ins_values, del_values = self._ins_values, self._del_values
        take_ins = np.ones(len(ins_values), dtype=bool)
        take_del = np.ones(len(del_values), dtype=bool)
        if low is not None and high is not None:
            take_ins[: ins_values.searchsorted(low, "left")] = False
            take_ins[ins_values.searchsorted(high, "right") :] = False
            take_del[: del_values.searchsorted(low, "left")] = False
            take_del[del_values.searchsorted(high, "right") :] = False
            if not (take_ins.any() or take_del.any()):
                return
        ins_oids = self._ins_oids[take_ins]
        updated = ins_oids[self._is_stored(ins_oids)]
        if updated.size:
            take_del |= _contains(np.sort(updated), self._del_oids)
        merged = (
            del_values[take_del], self._del_oids[take_del],
            ins_values[take_ins], ins_oids,
        )
        self._del_values, self._del_oids = del_values[~take_del], self._del_oids[~take_del]
        self._ins_values, self._ins_oids = ins_values[~take_ins], self._ins_oids[~take_ins]
        if not obs_trace.tracing():
            self._merge_pending_now(*merged)
            return
        with obs_trace.span(
            "pending_merge",
            inserts=len(ins_oids) - len(updated),
            deletes=len(merged[1]) - len(updated),
            updates=len(updated),
        ):
            self._merge_pending_now(*merged)

    def _merge_pending_now(self, del_values, del_oids, ins_values, ins_oids) -> None:
        """Fold one slice of pending changes into the pieces.

        One pass over storage.  The deleted rows leave through a keep
        mask gathered from ``_state``; the new tuples go in with one
        ``np.insert``, each at its piece's start — or, in a piece inside
        a remembered sorted span, at its ``searchsorted`` position, so
        the span stays sorted.  Boundaries and spans shift by the prefix
        sum of the net per-piece counts (``merge_shift``); nothing is
        sorted again.
        """
        self.query_stats.merged_updates += len(del_oids) + len(ins_oids)
        if self.introspect is not None:
            if del_oids.size:
                self.introspect.record_merge("tombstone", len(del_oids))
            if ins_oids.size:
                self.introspect.record_merge("merge", len(ins_oids))
        index = self.index
        edges = self._edges()
        count = len(edges) - 1
        lost = np.bincount(index.piece_assignment(del_values), minlength=count)
        ins_pieces = index.piece_assignment(ins_values)
        net = np.bincount(ins_pieces, minlength=count) - lost
        first, last = self._sorted_pieces(edges)
        values, oids = self.values, self.oids
        if del_oids.size:
            with obs_trace.span("tombstone_merge"):
                self._state[del_oids] &= _QUEUED
                keep = (self._state[oids] & _STORED).astype(bool)
                if len(oids) - np.count_nonzero(keep) != len(del_oids):
                    raise CrackError("internal error: a pending delete is not in storage")
                values, oids = values[keep], oids[keep]
        if ins_oids.size:
            # The pieces' edges once the deletes are out; ins_pieces is
            # ascending, as the value-sorted slice it came from.
            starts = edges - np.concatenate(([0], np.cumsum(lost)))
            at = starts[ins_pieces]
            in_span = np.cumsum(
                np.bincount(first, minlength=count + 1)
                - np.bincount(last + 1, minlength=count + 1)
            )[:count] > 0
            # Pieces are value-ordered, so the sorted pieces receiving
            # tuples ascend laid end to end: one binary search there
            # places each tuple, less its piece's offset.
            sorted_ins = in_span[ins_pieces]
            pieces, which = np.unique(ins_pieces[sorted_ins], return_inverse=True)
            receiving = np.zeros(count, dtype=bool)
            receiving[pieces] = True
            sizes = starts[pieces + 1] - starts[pieces]
            at[sorted_ins] += values[np.repeat(receiving, np.diff(starts))].searchsorted(
                ins_values[sorted_ins], "right"
            ) - (np.cumsum(sizes) - sizes)[which]
            values = np.insert(values, at, ins_values)
            oids = np.insert(oids, at, ins_oids)
            self._state[ins_oids] = _STORED
        self.values, self.oids = values, oids
        moved = edges + np.concatenate(([0], np.cumsum(net)))
        self._sorted_spans = set(zip(moved[first].tolist(), moved[last + 1].tolist()))
        index.merge_shift(net, len(values))

    def _sorted_pieces(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and last piece of each non-empty remembered sorted span."""
        spans = np.array(sorted(self._sorted_spans), dtype=np.int64).reshape(-1, 2)
        spans = spans[spans[:, 0] < spans[:, 1]]
        return (
            edges.searchsorted(spans[:, 0], "right") - 1,
            edges.searchsorted(spans[:, 1], "left") - 1,
        )

    def _edges(self) -> np.ndarray:
        """Piece edges: 0, every boundary position, the column size."""
        return np.concatenate(([0], self.index.positions(), [len(self.values)]))

    def _settle(self, value, kind: str, start: int, stop: int) -> int:
        """The position of a bound the index does not hold, in piece
        ``[start, stop)``: halved first above ``PIVOT_FACTOR * T``."""
        threshold = self.crack_threshold
        if threshold and stop - start > PIVOT_FACTOR * threshold:
            position, start, stop = self._halve(value, kind, start, stop)
            if position is not None:
                return position
        if threshold and stop - start <= threshold:
            if (start, stop) not in self._sorted_spans:
                self._sort_piece(start, stop)
            side = "left" if kind == KIND_LT else "right"
            return start + int(self.values[start:stop].searchsorted(value, side))
        self.query_stats.pieces_inspected += 1
        return self._crack(value, kind, start, stop)

    def _crack(self, value, kind: str, start: int, stop: int) -> int:
        """Crack ``[start, stop)`` at boundary ``(value, kind)``; returns the split."""
        moved_before = self.crack_stats.tuples_moved
        split = crack_in_two(
            self.values, self.oids, start, stop, value, kind, stats=self.crack_stats
        )
        self.index.add(value, kind, split)
        if self.introspect is not None:
            self.introspect.record_crack(
                bounds=(value,),
                piece_sizes=(split - start, stop - split),
                moved=self.crack_stats.tuples_moved - moved_before,
            )
        return split

    def _halve(self, value, kind: str, start: int, stop: int) -> tuple:
        """Crack the bound's piece at the median of its values at 1/4, 1/2
        and 3/4 until it holds at most ``PIVOT_FACTOR * T`` tuples; returns
        the bound's :meth:`CrackerIndex.probe`.  Never quadratic: stops at
        a NaN pivot (no boundary can hold NaN), an empty split, or one
        leaving the bound over 7/8 of the piece."""
        while stop - start > PIVOT_FACTOR * self.crack_threshold:
            size = stop - start
            probes = self.values[start + np.array([size // 4, size // 2, 3 * size // 4])]
            pivot = sorted(probes.tolist())[1]
            if pivot != pivot or self._crack(pivot, KIND_LT, start, stop) == start:
                break
            self.crack_stats.pivot_cracks += 1
            position, start, stop = self.index.probe(value, kind)
            if position is not None or 8 * (stop - start) > 7 * size:
                return position, start, stop
        return None, start, stop

    def _sort_piece(self, start: int, stop: int) -> None:
        """Sort piece ``[start, stop)`` in place unless it already is,
        and remember the span.

        Any order inside a piece satisfies the piece invariant, so the
        sort needs no index change; values and oids travel together.
        """
        self._sorted_spans.add((start, stop))
        window = self.values[start:stop]
        if (window[:-1] <= window[1:]).all():
            return
        order = window.argsort()
        window[:] = window[order]
        oid_window = self.oids[start:stop]
        oid_window[:] = oid_window[order]
        stats = self.crack_stats
        stats.sorts += 1
        stats.tuples_touched += stop - start
        if self.introspect is not None:
            self.introspect.record_merge("sort", stop - start)

    def _crack_three(self, low, high, low_kind: str, high_kind: str, start: int, stop: int):
        """Crack piece ``[start, stop)`` at both range bounds in one pass."""
        self.query_stats.pieces_inspected += 1
        moved_before = self.crack_stats.tuples_moved
        split_low, split_high = crack_in_three(
            self.values, self.oids, start, stop, low, high,
            low_kind=low_kind, high_kind=high_kind, stats=self.crack_stats,
        )
        self.index.add(low, low_kind, split_low)
        self.index.add(high, high_kind, split_high)
        if self.introspect is not None:
            self.introspect.record_crack(
                bounds=(low, high),
                piece_sizes=(split_low - start, split_high - split_low, stop - split_high),
                moved=self.crack_stats.tuples_moved - moved_before,
            )
        return split_low, split_high

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """A serialisable snapshot: storage, index and pending buffers.

        Array members are private copies, so the export stays valid while
        the live column keeps cracking.  An update travels as it always
        has: ``pending_update_oids``/``values``, not as its delete and
        insert halves.  Callers keep the column still while it runs (the
        persistence layer captures under the database's statement lock).
        """
        updated = self._is_stored(self._ins_oids)
        update_oids = self._ins_oids[updated]
        replaced = _contains(np.sort(update_oids), self._del_oids)
        return {
            "values": self.values.copy(),
            "oids": self.oids.copy(),
            "pending_values": self._ins_values[~updated],
            "pending_oids": self._ins_oids[~updated],
            "pending_delete_oids": self._del_oids[~replaced],
            "pending_update_oids": update_oids,
            "pending_update_values": self._ins_values[updated],
            "next_oid": int(self._next_oid),
            "index": self.index.export_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CrackedColumn":
        """Rebuild a cracked column from :meth:`export_state` output.

        The warm-restart path: the cracker index (piece boundaries) and
        the physically reorganised storage come back exactly as
        exported, so the first post-restore query pays an index lookup,
        not a re-crack.  The pending buffers are sorted by value as they
        load; deletes and updates find their stored values in one pass
        over storage.  Invariants are validated before the column is
        handed out.

        The column cracks the state's ``values`` and ``oids`` in place:
        a caller that goes on using them passes copies (``export_state``'s).
        It comes back with ``crack_threshold`` 0; whoever opens it sets
        the cut-off (``CrackerProvider.attach_column``).  Older
        exports also name a kernel, a crack-in-three toggle and a
        ``crack_threshold``; they are ignored.
        """
        column = cls.__new__(cls)
        column._setup(
            np.asarray(state["values"]),
            np.asarray(state["oids"], dtype=np.int64),
            crack_threshold=0,
        )
        column.index = CrackerIndex.from_state(state["index"])
        dtype = column.values.dtype

        def array(key: str, kind=np.int64) -> np.ndarray:
            # DML buffers are absent in pre-DML snapshots (.get defaults
            # keep FORMAT_VERSION stable).
            return np.asarray(state.get(key, np.empty(0)), dtype=kind)

        update_oids, update_values = _last_per_oid(
            array("pending_update_oids"), array("pending_update_values", dtype)
        )
        inserts = np.concatenate((array("pending_oids"), update_oids))
        if inserts.size:
            column._ins_values, column._ins_oids = _sorted_insert(
                column._ins_values, column._ins_oids,
                np.concatenate((array("pending_values", dtype), update_values)),
                inserts,
            )
            column._flag(inserts, _QUEUED)
        gone = _last_per_oid(
            np.concatenate((array("pending_delete_oids"), update_oids))
        )[0]
        if gone.size:
            column._del_values, column._del_oids = _sorted_insert(
                column._del_values, column._del_oids,
                column._stored_values(gone), gone,
            )
            column._flag(gone, _DOOMED)
        column._next_oid = int(state["next_oid"])
        column.check_invariants()
        return column

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Verify piece/value invariants; raises :class:`CrackError`."""
        self.index.check_invariants()
        if self.index.column_size != len(self.values):
            raise CrackError(
                f"index thinks column has {self.index.column_size} tuples, "
                f"storage has {len(self.values)}"
            )
        stored = (self._state & _STORED) != 0
        if np.count_nonzero(stored) != len(self.oids) or not stored[self.oids].all():
            raise CrackError("stored-oid bitmap disagrees with storage")
        self._check_pending()
        edges = self._edges()
        whole = set(edges.tolist())
        for start, stop in self._sorted_spans:
            if start not in whole or stop not in whole:
                raise CrackError(
                    f"sorted span [{start}, {stop}) is not a union of whole pieces"
                )
            window = self.values[start:stop]
            if (window[:-1] > window[1:]).any():
                raise CrackError(
                    f"span [{start}, {stop}) is remembered as sorted but is not"
                )
        full = np.flatnonzero(edges[1:] > edges[:-1])  # non-empty pieces
        keys, ranks = self.index.keys()
        if full.size and keys.size:
            # Each piece's min and max against the boundaries on its two
            # sides, all pieces at once (none left of the first piece or
            # right of the last).
            left, right = full - 1, np.minimum(full, keys.size - 1)
            lows = np.minimum.reduceat(self.values, edges[full])
            highs = np.maximum.reduceat(self.values, edges[full])
            lower = (full > 0) & (
                (lows < keys[left]) | ((ranks[left] == 1) & (lows == keys[left])))
            upper = (full < keys.size) & (
                (highs > keys[right]) | ((ranks[right] == 0) & (highs == keys[right])))
            bad = np.flatnonzero(lower | upper)
            if bad.size:
                at = int(full[bad[0]])
                piece = Piece(
                    int(edges[at]), int(edges[at + 1]),
                    self.index.boundary_at(at - 1) if at else None,
                    self.index.boundary_at(at) if at < keys.size else None,
                )
                side = "lower" if lower[bad[0]] else "upper"
                raise CrackError(f"piece {piece.describes()} violates {side} bound")

    def _check_pending(self) -> None:
        """The buffers are value-sorted and consistent with storage."""
        for label, values, oids in (
            ("insert", self._ins_values, self._ins_oids),
            ("delete", self._del_values, self._del_oids),
        ):
            if len(values) != len(oids) or (values[:-1] > values[1:]).any():
                raise CrackError(f"pending {label} buffer is not sorted by value")
            ordered = np.sort(oids)
            if (ordered[:-1] == ordered[1:]).any():
                raise CrackError(f"pending {label} buffer holds an oid twice")
        if not self._is_stored(self._del_oids).all():
            raise CrackError("pending delete references oids absent from storage")
        stored = self._ins_oids[self._is_stored(self._ins_oids)]
        if not _contains(np.sort(self._del_oids), stored).all():
            raise CrackError("pending insert reuses an oid already in storage")
        if not np.array_equal(self._stored_values(self._del_oids), self._del_values):
            raise CrackError("pending delete is keyed by a value its row does not hold")
        for flag, oids, label in (
            (_QUEUED, self._ins_oids, "insert"), (_DOOMED, self._del_oids, "delete"),
        ):
            if not np.array_equal(np.flatnonzero(self._state & flag), np.sort(oids)):
                raise CrackError(f"oid flags disagree with the pending {label} buffer")
