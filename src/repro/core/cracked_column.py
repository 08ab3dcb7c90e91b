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
3. answers with a zero-copy contiguous span of the cracker column.

With a ``crack_threshold`` T > 0, step 2 stops at pieces of at most T
tuples (§3.4.2 names cut-off points below which splitting stops paying;
the hybrid crack-sort of "Merging What's Cracked, Cracking What's
Merged", PVLDB'11, is the follow-up's answer): the first bound that
lands in such a piece sorts it in place, once, and that bound and every
later one in the piece is a binary search.  No kernel runs, the cracker
index gains no boundary, and the answer is still a contiguous span — a
converged column is read-only.

Updates append to a pending area that is merged piece-wise on the next
query (the "updates" future-work item of §7, implemented as an extension).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.crack import (
    KIND_LE,
    KIND_LT,
    CrackStats,
    crack_in_three,
    crack_in_three_rebuild,
    crack_in_three_via_two,
    crack_in_two,
    crack_in_two_rebuild,
    crack_in_two_swaps,
)
from repro.core.cracker_index import CrackerIndex
from repro.errors import CrackError
from repro.obs import trace as obs_trace
from repro.storage.bat import BAT

#: Kernel selection for the ablation benchmark.
KERNEL_VECTORISED = "vectorised"
KERNEL_REBUILD = "rebuild"
KERNEL_SWAPS = "swaps"
_KERNELS = (KERNEL_VECTORISED, KERNEL_REBUILD, KERNEL_SWAPS)

#: The cut-off the SQL layer ships (``Database``, ``CrackerProvider``,
#: ``repro serve``).  ``CrackedColumn`` itself and ``engines/`` default
#: to 0, the paper's unbounded prototype that ``experiments/fig*``
#: reproduce.  Chosen from the ledger sweep in README "Crack threshold
#: tuning".
DEFAULT_CRACK_THRESHOLD = 512


@dataclass
class SelectionResult:
    """Answer of a cracked range query: a span of the cracker column.

    ``oids`` / ``values`` are the zero-copy slices ``[start, stop)`` of
    the column's storage, whatever the ``crack_threshold``; a range
    empty by construction is the empty span ``[0, 0)``.

    ``owner`` is the producing :class:`CrackedColumn`; it carries the
    copy-on-demand :meth:`snapshot` protocol.
    """

    oids: np.ndarray
    values: np.ndarray
    start: int
    stop: int
    owner: "CrackedColumn" = field(repr=False, compare=False)

    @property
    def count(self) -> int:
        return len(self.oids)

    def snapshot(self) -> "SelectionResult":
        """A stable view, immune to later in-place cracks and sorts.

        The concurrent SQL layer takes one before releasing the column
        lock: zero-copy answers are views into cracker storage,
        which the next crack would shuffle underneath the holder.

        The copy is paid *on demand*, not here: the span registers
        itself with its column, which retires (copies) its storage
        arrays just before the next in-place crack or cut-off sort *if*
        any registered snapshot is still alive.  Converged workloads —
        the sustained phase, where neither happens — therefore never
        copy.  An empty span views nothing and registers nothing.

        Callers may hold the snapshot or its ``oids``/``values`` arrays;
        views *derived* from those arrays (further slicing) are only
        guaranteed stable while the snapshot or its arrays stay alive.
        Must be called while holding the column's lock (the SQL layer's
        discipline), so registration cannot race an in-flight crack.
        """
        if self.stop > self.start:
            self.owner._register_snapshot(self)
        return self


@dataclass
class QueryStats:
    """Per-column query accounting, complementing :class:`CrackStats`."""

    queries: int = 0
    pieces_inspected: int = 0
    merged_updates: int = 0

    def reset(self) -> None:
        self.queries = 0
        self.pieces_inspected = 0
        self.merged_updates = 0


class CrackedColumn:
    """The cracker for a single numeric column.

    Args:
        source: base BAT (int or float tail) to crack.  The BAT itself is
            never mutated; the cracker works on a private copy.
        kernel: 'vectorised' (default) or 'swaps' — see :mod:`repro.core.crack`.
        crack_in_three_enabled: when False, double-sided ranges use two
            successive crack-in-twos (the paper discusses both; ablation).
        crack_threshold: sort below T — a bound that misses the index
            and falls in a piece of at most this many tuples sorts the
            piece in place (once) and is resolved by binary search
            instead of a crack.  0 (default) cracks unconditionally (the
            paper's prototype).  A plain attribute: the SQL layer sets
            it on a restored column, and it is safe to change between
            queries.
    """

    def __init__(
        self,
        source: BAT,
        kernel: str = KERNEL_VECTORISED,
        crack_in_three_enabled: bool = True,
        crack_threshold: int = 0,
    ) -> None:
        if source.tail_type not in ("int", "float", "oid"):
            raise CrackError(
                f"cracking requires a numeric column, got {source.tail_type!r}"
            )
        self.source = source
        self._setup(
            source.tail_array().copy(),
            source.head_array().copy(),
            kernel,
            crack_in_three_enabled,
            crack_threshold,
        )

    @classmethod
    def from_arrays(
        cls,
        values: np.ndarray,
        oids: np.ndarray | None = None,
        kernel: str = KERNEL_VECTORISED,
        crack_in_three_enabled: bool = True,
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
        column.source = None
        column._setup(
            values.copy(), oids.copy(), kernel, crack_in_three_enabled,
            crack_threshold,
        )
        return column

    def _setup(
        self,
        values: np.ndarray,
        oids: np.ndarray,
        kernel: str,
        crack_in_three_enabled: bool,
        crack_threshold: int,
    ) -> None:
        if kernel not in _KERNELS:
            raise CrackError(f"unknown kernel {kernel!r}; expected one of {_KERNELS}")
        if crack_threshold < 0:
            raise CrackError(
                f"crack_threshold must be >= 0, got {crack_threshold}"
            )
        self.kernel = kernel
        self.crack_in_three_enabled = crack_in_three_enabled
        self.crack_threshold = crack_threshold
        self.values = values
        self.oids = oids
        self.index = CrackerIndex(len(self.values))
        self.crack_stats = CrackStats()
        self.query_stats = QueryStats()
        self._pending_values: list[np.ndarray] = []
        self._pending_oids: list[np.ndarray] = []
        # DML buffers (the "updating a cracked database" follow-up):
        # deletes and updates queue here and are merged out of the cracked
        # pieces by the next query, exactly like pending inserts merge in.
        self._pending_delete_oids: list[np.ndarray] = []
        self._pending_update_oids: list[np.ndarray] = []
        self._pending_update_values: list[np.ndarray] = []
        self._next_oid = int(self.oids.max()) + 1 if len(self.oids) else 0
        # ``_stored[oid]`` is True iff ``oid`` is physically in ``oids`` (a
        # pending delete still counts until the merge): the write path's
        # membership test, O(k) in the oids asked about instead of O(n)
        # in the column.  Derived state, never persisted; mutated only
        # beside ``oids``, under the same lock.
        self._stored = np.zeros(self._next_oid, dtype=bool)
        self._stored[self.oids] = True
        # Weak references to live zero-copy snapshots (and their
        # handed-out view arrays); storage is retired — copied — before
        # the next in-place crack while any is still referenced.  A
        # plain ref list, not a WeakSet: neither dataclass results nor
        # ndarrays are hashable.  See snapshot().
        self._live_snapshot_refs: list[weakref.ref] = []
        # ``(start, stop)`` of pieces known to be sorted, so a bound in
        # one skips the O(piece) sortedness test.  Between merges the
        # index only gains boundaries, so a remembered span is always a
        # union of whole pieces, and it stays sorted: it holds no tuple
        # on the wrong side of any pivot, so a kernel cracking it (after
        # ``crack_threshold`` was lowered) reorders nothing.  Merges
        # rebuild storage and clear the set.  Never persisted: a miss
        # costs one comparison pass, not a wrong answer.
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
    def pending_count(self) -> int:
        return sum(len(chunk) for chunk in self._pending_values)

    @property
    def pending_delete_count(self) -> int:
        return sum(len(chunk) for chunk in self._pending_delete_oids)

    @property
    def pending_update_count(self) -> int:
        return sum(len(chunk) for chunk in self._pending_update_oids)

    @property
    def has_pending(self) -> bool:
        return bool(
            self._pending_values
            or self._pending_delete_oids
            or self._pending_update_oids
        )

    def observability(self) -> dict:
        """One flat dict of this column's crack/query/pending accounting.

        The per-column sample the observability layer exports (through
        ``Database.stats()`` and the metrics registry's collectors):
        piece count and size distribution, cumulative crack work, query
        counters and the depths of the three pending buffers.  Caller
        holds whatever lock guards this column.
        """
        sizes = self.index.piece_sizes()
        return {
            "pieces": self.piece_count,
            "tuples": len(self.values),
            "cracks": self.crack_stats.cracks,
            "sorts": self.crack_stats.sorts,
            "sorted_pieces": len(self._sorted_spans),
            "tuples_touched": self.crack_stats.tuples_touched,
            "tuples_moved": self.crack_stats.tuples_moved,
            "queries": self.query_stats.queries,
            "pieces_inspected": self.query_stats.pieces_inspected,
            "merged_updates": self.query_stats.merged_updates,
            "pending_inserts": self.pending_count,
            "pending_deletes": self.pending_delete_count,
            "pending_updates": self.pending_update_count,
            "piece_tuples": {
                "min": min(sizes) if sizes else 0,
                "max": max(sizes) if sizes else 0,
                "mean": sum(sizes) / len(sizes) if sizes else 0.0,
            },
        }

    # ------------------------------------------------------------------ #
    # Snapshot copy-on-write
    # ------------------------------------------------------------------ #

    def _register_snapshot(self, result: SelectionResult) -> None:
        """Track a zero-copy answer whose stability snapshot() promised."""
        refs = self._live_snapshot_refs
        refs.append(weakref.ref(result))
        refs.append(weakref.ref(result.oids))
        refs.append(weakref.ref(result.values))
        if len(refs) > 64:
            # Bound the shield's liveness scan: drop refs whose snapshot
            # has already been garbage collected.
            self._live_snapshot_refs = [r for r in refs if r() is not None]

    def _shield_snapshots(self) -> None:
        """Retire current storage if any registered snapshot is alive.

        Called (under the caller's column lock) immediately before an
        in-place crack kernel or cut-off sort runs.  Copying the storage
        arrays and installing the copies makes the retired generation
        immutable: every outstanding view — including views numpy
        re-based onto the old root array — stays valid forever, and the
        kernel shuffles only the fresh generation.  When no snapshot survives (the
        common case: results are consumed within their statement), this
        is an empty-list check and no copy happens.
        """
        refs = self._live_snapshot_refs
        if not refs:
            return
        if any(ref() is not None for ref in refs):
            self.values = self.values.copy()
            self.oids = self.oids.copy()
        self._live_snapshot_refs = []

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

        ``None`` bounds make the predicate one-sided.  Each bound the
        index does not hold yet cracks its piece — or, at or below
        ``crack_threshold``, sorts it once — and the answer is the span
        between the two positions.
        """
        self._merge_pending()
        self.query_stats.queries += 1
        degenerate_point = (
            low is not None
            and high is not None
            and low == high
            and not (low_inclusive and high_inclusive)
        )
        if (low is not None and high is not None and high < low) or degenerate_point:
            # Empty by construction; cracking would also invert the
            # boundary ordering (the high boundary would sort before the
            # low one), so answer the empty span without reorganising.
            return self._span_result(0, 0)
        low_kind = KIND_LT if low_inclusive else KIND_LE
        high_kind = KIND_LE if high_inclusive else KIND_LT
        start = 0
        stop = len(self.values)
        if low is not None and high is not None:
            start, stop = self._crack_both(low, high, low_kind, high_kind)
        elif low is not None:
            start = self._ensure_boundary(low, low_kind)
        elif high is not None:
            stop = self._ensure_boundary(high, high_kind)
        return self._span_result(start, stop)

    def count_range(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> int:
        """Count qualifying tuples (cracks as a side effect)."""
        return self.range_select(
            low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
        ).count

    def _span_result(self, start: int, stop: int) -> SelectionResult:
        """The zero-copy answer ``[start, stop)`` (registers nothing by itself)."""
        return SelectionResult(
            oids=self.oids[start:stop],
            values=self.values[start:stop],
            start=start,
            stop=stop,
            owner=self,
        )

    # ------------------------------------------------------------------ #
    # Updates (merge-on-query extension)
    # ------------------------------------------------------------------ #

    def append(self, values, oids=None) -> np.ndarray:
        """Queue new tuples; they participate from the next query on."""
        values = np.asarray(values, dtype=self.values.dtype)
        if oids is None:
            oids = np.arange(self._next_oid, self._next_oid + len(values), dtype=np.int64)
        else:
            oids = np.asarray(oids, dtype=np.int64)
            if len(oids) != len(values):
                raise CrackError(
                    f"append got {len(values)} values but {len(oids)} oids"
                )
            if oids.size and oids.min() < 0:
                raise CrackError("append got a negative oid")
        if len(values):
            self._pending_values.append(values)
            self._pending_oids.append(oids)
            self._next_oid = max(self._next_oid, int(oids.max()) + 1)
        return oids

    def delete(self, oids) -> int:
        """Queue deletions by oid; rows vanish from the next query on.

        Oids still sitting in the pending-insert (or pending-update)
        buffers are resolved eagerly — they never reach the cracked
        pieces; oids already merged into storage are buffered and merged
        out piece-wise by the next query.  Returns the count applied.
        """
        oids = np.unique(np.asarray(oids, dtype=np.int64))
        if oids.size == 0:
            return 0
        applied = 0
        # Eager: a pending insert of a now-deleted row simply disappears.
        if self._pending_values:
            kept_values, kept_oids = [], []
            for values, chunk_oids in zip(self._pending_values, self._pending_oids):
                keep = ~np.isin(chunk_oids, oids)
                applied += int(len(chunk_oids) - keep.sum())
                if keep.all():
                    kept_values.append(values)
                    kept_oids.append(chunk_oids)
                elif keep.any():
                    kept_values.append(values[keep])
                    kept_oids.append(chunk_oids[keep])
            self._pending_values = kept_values
            self._pending_oids = kept_oids
        # Eager: a pending update of a deleted row is moot.
        if self._pending_update_oids:
            kept_values, kept_oids = [], []
            for values, chunk_oids in zip(
                self._pending_update_values, self._pending_update_oids
            ):
                keep = ~np.isin(chunk_oids, oids)
                if keep.all():
                    kept_values.append(values)
                    kept_oids.append(chunk_oids)
                elif keep.any():
                    kept_values.append(values[keep])
                    kept_oids.append(chunk_oids[keep])
            self._pending_update_values = kept_values
            self._pending_update_oids = kept_oids
        in_storage = oids[self._is_stored(oids)]
        if in_storage.size:
            self._pending_delete_oids.append(in_storage)
            applied += int(in_storage.size)
        return applied

    def update(self, oids, values) -> int:
        """Queue value rewrites by oid (last write wins per oid).

        Rows still in the pending-insert buffer are rewritten in place;
        rows already in storage are buffered and physically moved to
        their new piece at the next merge (remove + re-insert under the
        same oid).  Returns the count applied.
        """
        oids = np.asarray(oids, dtype=np.int64)
        values = np.asarray(values, dtype=self.values.dtype)
        if len(oids) != len(values):
            raise CrackError(
                f"update got {len(oids)} oids but {len(values)} values"
            )
        if oids.size == 0:
            return 0
        applied = 0
        remaining = np.ones(len(oids), dtype=bool)
        # Eager: rewrite rows that are still waiting in the insert buffer.
        if self._pending_values:
            for chunk_values, chunk_oids in zip(
                self._pending_values, self._pending_oids
            ):
                chunk_pos = np.flatnonzero(np.isin(chunk_oids, oids))
                if chunk_pos.size == 0:
                    continue
                # Map each hit back to its (last) slot in the request.
                order = np.argsort(oids, kind="stable")
                located = np.searchsorted(
                    oids[order], chunk_oids[chunk_pos], side="right"
                ) - 1
                chunk_values[chunk_pos] = values[order][located]
                applied += int(chunk_pos.size)
                remaining &= ~np.isin(oids, chunk_oids[chunk_pos])
        oids = oids[remaining]
        values = values[remaining]
        in_storage = self._is_stored(oids)
        if in_storage.any():
            self._pending_update_oids.append(oids[in_storage])
            self._pending_update_values.append(values[in_storage])
            applied += int(in_storage.sum())
        return applied

    def _is_stored(self, oids: np.ndarray) -> np.ndarray:
        """``np.isin(oids, self.oids)`` as one bitmap gather; negative or
        never-seen oids are absent."""
        stored = self._stored
        hit = (oids >= 0) & (oids < len(stored))
        hit[hit] = stored[oids[hit]]
        return hit

    def _mark_stored(self, oids: np.ndarray) -> None:
        """Set the bits of oids about to enter storage, growing by doubling."""
        top = int(oids.max()) + 1
        if top > len(self._stored):
            grown = np.zeros(max(top, 2 * len(self._stored)), dtype=bool)
            grown[: len(self._stored)] = self._stored
            self._stored = grown
        self._stored[oids] = True

    def _merge_pending(self) -> None:
        """Fold the pending buffers into the pieces, if any exist.

        The guard is the per-query fast path (one bool over three
        lists); the work happens in :meth:`_merge_pending_now`, wrapped
        in a ``pending_merge`` span when a trace is active.
        """
        if not self.has_pending:
            return
        if not obs_trace.tracing():
            self._merge_pending_now()
            return
        with obs_trace.span(
            "pending_merge",
            inserts=self.pending_count,
            deletes=self.pending_delete_count,
            updates=self.pending_update_count,
        ):
            self._merge_pending_now()

    def _merge_pending_now(self) -> None:
        """Fold pending tuples into their pieces, preserving all invariants.

        Three phases, all vectorised over the index's boundary arrays:

        1. *Removal*: rows with a pending delete or update leave storage.
           Their bits leave the stored-oid bitmap and one gather of it
           over storage is the keep mask; each boundary shifts left by
           the prefix sum of per-piece removal counts
           (:meth:`CrackerIndex.remove_shift`).
        2. *Re-insert*: updated rows re-enter the pending-insert stream
           under their original oid carrying the new value (last write
           wins), so they land in whatever piece now bounds them.
        3. *Insert*: the existing merge — piece assignment is two
           ``searchsorted`` passes, the scatter one ``np.insert``, the
           boundary shift one prefix-sum add.

        Every phase writes *new* storage arrays, so outstanding zero-copy
        snapshots keep their (retired) generation untouched.
        """
        self._sorted_spans.clear()
        self._merge_removals()
        if not self._pending_values:
            return
        pending_values = np.concatenate(self._pending_values)
        pending_oids = np.concatenate(self._pending_oids)
        self._pending_values.clear()
        self._pending_oids.clear()
        self.query_stats.merged_updates += len(pending_values)
        if self.introspect is not None:
            self.introspect.record_merge("merge", int(len(pending_values)))
        self._mark_stored(pending_oids)
        boundary_count = len(self.index)
        if boundary_count == 0:
            self.values = np.concatenate([self.values, pending_values])
            self.oids = np.concatenate([self.oids, pending_oids])
            self.index.column_size = len(self.values)
            # The merge installed fresh arrays: the old generation is
            # retired, so outstanding snapshots need no further shielding.
            self._live_snapshot_refs = []
            return
        piece_of = self.index.piece_assignment(pending_values)
        if piece_of.size and piece_of.max() > boundary_count:
            raise CrackError("internal error: pending value assigned past last piece")
        order = np.argsort(piece_of, kind="stable")
        pending_values = pending_values[order]
        pending_oids = pending_oids[order]
        piece_of = piece_of[order]
        counts = np.bincount(piece_of, minlength=boundary_count + 1)
        positions = self.index.positions()
        # Insert each pending tuple at its piece's start: np.insert keeps
        # equal-index insertions in argument order, and any slot inside
        # the piece satisfies the piece's value bounds.
        starts = np.empty(boundary_count + 1, dtype=np.int64)
        starts[0] = 0
        starts[1:] = positions
        insert_at = starts[piece_of]
        self.values = np.insert(self.values, insert_at, pending_values)
        self.oids = np.insert(self.oids, insert_at, pending_oids)
        self.index.merge_shift(counts, len(self.values))
        # np.insert built fresh storage: the pre-merge generation is
        # retired, so outstanding snapshots need no further shielding.
        self._live_snapshot_refs = []

    def _merge_removals(self) -> None:
        """Phase 1+2 of the merge: take deleted/updated rows out of storage
        and re-queue updated rows as pending inserts with their new value.

        Wrapped in a ``tombstone_merge`` span when traced (this is the
        write-path cost a DELETE/UPDATE defers onto the next query)."""
        if not (self._pending_delete_oids or self._pending_update_oids):
            return
        with obs_trace.span("tombstone_merge"):
            self._merge_removals_now()

    def _merge_removals_now(self) -> None:
        # Buffered oids are stored ones (delete/update queue nothing
        # else): clear their bits, and the bitmap gathered over storage
        # is the keep mask.
        for chunk in self._pending_delete_oids + self._pending_update_oids:
            self._stored[chunk] = False
        self._pending_delete_oids.clear()
        if self._pending_update_oids:
            update_oids = np.concatenate(self._pending_update_oids)
            update_values = np.concatenate(self._pending_update_values)
            self._pending_update_oids.clear()
            self._pending_update_values.clear()
            # Last write wins: keep each oid's final buffered value.
            reversed_oids = update_oids[::-1]
            _, first_in_reversed = np.unique(reversed_oids, return_index=True)
            keep = len(update_oids) - 1 - first_in_reversed
            # Updated rows leave storage below and re-enter as pending
            # inserts under the same oid, carrying the new value.
            self._pending_values.append(update_values[keep])
            self._pending_oids.append(update_oids[keep])
        keep_mask = self._stored[self.oids]
        removed_positions = np.flatnonzero(~keep_mask)
        self.query_stats.merged_updates += int(removed_positions.size)
        if self.introspect is not None:
            self.introspect.record_merge("tombstone", int(removed_positions.size))
        self.values = self.values[keep_mask]
        self.oids = self.oids[keep_mask]
        if len(self.index):
            # Boundary b moves left by the number of removed rows before
            # it: searchsorted of the (sorted) removed positions against
            # the boundary positions, differenced into per-piece counts.
            cuts = np.searchsorted(removed_positions, self.index.positions())
            per_piece = np.diff(
                np.concatenate([[0], cuts, [removed_positions.size]])
            )
            self.index.remove_shift(per_piece, len(self.values))
        else:
            self.index.column_size = len(self.values)
        # Fancy indexing built fresh storage: the pre-removal generation
        # is retired, no further shielding needed.
        self._live_snapshot_refs = []

    def _kernel_two(self, start: int, stop: int, pivot, kind: str) -> int:
        self._shield_snapshots()
        if self.kernel == KERNEL_SWAPS:
            return crack_in_two_swaps(
                self.values, self.oids, start, stop, pivot, kind, stats=self.crack_stats
            )
        if self.kernel == KERNEL_REBUILD:
            return crack_in_two_rebuild(
                self.values, self.oids, start, stop, pivot, kind, stats=self.crack_stats
            )
        return crack_in_two(
            self.values, self.oids, start, stop, pivot, kind, stats=self.crack_stats
        )

    def _kernel_three(self, start: int, stop: int, low, high, low_kind, high_kind):
        self._shield_snapshots()
        kernel = (
            crack_in_three_rebuild if self.kernel == KERNEL_REBUILD else crack_in_three
        )
        return kernel(
            self.values,
            self.oids,
            start,
            stop,
            low,
            high,
            low_kind=low_kind,
            high_kind=high_kind,
            stats=self.crack_stats,
        )

    def _ensure_boundary(self, value, kind: str) -> int:
        """Position separating left/right of ``(value, kind)``; cracks or
        sorts the bound's piece when the index does not hold it yet."""
        return self._settle(value, kind, *self.index.probe(value, kind))

    def _settle(self, value, kind: str, position, start: int, stop: int) -> int:
        """Turn one :meth:`CrackerIndex.probe` answer into a position."""
        if position is not None:
            return position
        threshold = self.crack_threshold
        if threshold and stop - start <= threshold:
            if (start, stop) not in self._sorted_spans:
                self._sort_piece(start, stop)
            side = "left" if kind == KIND_LT else "right"
            return start + int(self.values[start:stop].searchsorted(value, side))
        self.query_stats.pieces_inspected += 1
        moved_before = self.crack_stats.tuples_moved
        split = self._kernel_two(start, stop, value, kind)
        self.index.add(value, kind, split)
        if self.introspect is not None:
            self.introspect.record_crack(
                bounds=(value,),
                piece_sizes=(split - start, stop - split),
                moved=self.crack_stats.tuples_moved - moved_before,
            )
        return split

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
        self._shield_snapshots()
        window = self.values[start:stop]
        order = window.argsort(kind="stable")
        window[:] = window[order]
        oid_window = self.oids[start:stop]
        oid_window[:] = oid_window[order]
        stats = self.crack_stats
        stats.sorts += 1
        stats.tuples_touched += stop - start
        if self.introspect is not None:
            self.introspect.record_merge("sort", stop - start)

    def _crack_both(self, low, high, low_kind: str, high_kind: str) -> tuple[int, int]:
        """Establish both range boundaries, preferring crack-in-three."""
        probe = self.index.probe
        low_pos, low_start, low_stop = probe(low, low_kind)
        high_pos, high_start, high_stop = probe(high, high_kind)
        if low_pos is not None and high_pos is not None:
            return low_pos, max(low_pos, high_pos)
        if (
            low_pos is None
            and high_pos is None
            and low_start == high_start
            and low_stop == high_stop
            and low_stop - low_start > self.crack_threshold
        ):
            self.query_stats.pieces_inspected += 1
            moved_before = self.crack_stats.tuples_moved
            if self.crack_in_three_enabled:
                split_low, split_high = self._kernel_three(
                    low_start, low_stop, low, high, low_kind, high_kind
                )
            else:
                self._shield_snapshots()
                split_low, split_high = crack_in_three_via_two(
                    self.values,
                    self.oids,
                    low_start,
                    low_stop,
                    low,
                    high,
                    low_kind=low_kind,
                    high_kind=high_kind,
                    stats=self.crack_stats,
                )
            self.index.add(low, low_kind, split_low)
            self.index.add(high, high_kind, split_high)
            if self.introspect is not None:
                self.introspect.record_crack(
                    bounds=(low, high),
                    piece_sizes=(
                        split_low - low_start,
                        split_high - split_low,
                        low_stop - split_high,
                    ),
                    moved=self.crack_stats.tuples_moved - moved_before,
                )
            return split_low, split_high
        boundaries = len(self.index)
        start = self._settle(low, low_kind, low_pos, low_start, low_stop)
        if len(self.index) != boundaries:
            # The low-bound crack may have split the high bound's piece.
            high_pos, high_start, high_stop = probe(high, high_kind)
        stop = self._settle(high, high_kind, high_pos, high_start, high_stop)
        return start, max(start, stop)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """A serialisable snapshot: storage, index and pending buffers.

        Array members are private copies, so the export stays valid while
        the live column keeps cracking.  Callers are responsible for the
        column's lock (the persistence layer holds the same write side
        the query path takes).
        """
        dtype = self.values.dtype
        pending_values = (
            np.concatenate(self._pending_values)
            if self._pending_values
            else np.empty(0, dtype=dtype)
        )
        pending_oids = (
            np.concatenate(self._pending_oids)
            if self._pending_oids
            else np.empty(0, dtype=np.int64)
        )
        pending_delete = (
            np.concatenate(self._pending_delete_oids)
            if self._pending_delete_oids
            else np.empty(0, dtype=np.int64)
        )
        pending_update_oids = (
            np.concatenate(self._pending_update_oids)
            if self._pending_update_oids
            else np.empty(0, dtype=np.int64)
        )
        pending_update_values = (
            np.concatenate(self._pending_update_values)
            if self._pending_update_values
            else np.empty(0, dtype=dtype)
        )
        return {
            "values": self.values.copy(),
            "oids": self.oids.copy(),
            "pending_values": pending_values,
            "pending_oids": pending_oids,
            "pending_delete_oids": pending_delete,
            "pending_update_oids": pending_update_oids,
            "pending_update_values": pending_update_values,
            "kernel": self.kernel,
            "crack_in_three_enabled": bool(self.crack_in_three_enabled),
            "crack_threshold": int(self.crack_threshold),
            "next_oid": int(self._next_oid),
            "index": self.index.export_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CrackedColumn":
        """Rebuild a cracked column from :meth:`export_state` output.

        The warm-restart path: the cracker index (piece boundaries) and
        the physically reorganised storage come back exactly as
        exported, so the first post-restore query pays an index lookup,
        not a re-crack.  Invariants are validated before the column is
        handed out.
        """
        column = cls.__new__(cls)
        column.source = None
        column._setup(
            np.asarray(state["values"]).copy(),
            np.asarray(state["oids"], dtype=np.int64).copy(),
            str(state["kernel"]),
            bool(state["crack_in_three_enabled"]),
            int(state["crack_threshold"]),
        )
        column.index = CrackerIndex.from_state(state["index"])
        pending_values = np.asarray(state["pending_values"])
        if len(pending_values):
            column._pending_values = [pending_values.astype(column.values.dtype)]
            column._pending_oids = [
                np.asarray(state["pending_oids"], dtype=np.int64).copy()
            ]
        # DML buffers: absent in pre-DML snapshots (.get defaults keep
        # FORMAT_VERSION stable).
        pending_delete = np.asarray(
            state.get("pending_delete_oids", np.empty(0, dtype=np.int64)),
            dtype=np.int64,
        )
        if len(pending_delete):
            column._pending_delete_oids = [pending_delete.copy()]
        pending_update_oids = np.asarray(
            state.get("pending_update_oids", np.empty(0, dtype=np.int64)),
            dtype=np.int64,
        )
        if len(pending_update_oids):
            column._pending_update_oids = [pending_update_oids.copy()]
            column._pending_update_values = [
                np.asarray(state["pending_update_values"]).astype(
                    column.values.dtype
                )
            ]
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
        stored = self._stored
        if np.count_nonzero(stored) != len(self.oids) or not stored[self.oids].all():
            raise CrackError("stored-oid bitmap disagrees with storage")
        for chunk in self._pending_oids:
            if self._is_stored(chunk).any():
                raise CrackError("pending insert reuses an oid already in storage")
        for label, chunks in (
            ("delete", self._pending_delete_oids),
            ("update", self._pending_update_oids),
        ):
            for chunk in chunks:
                if not self._is_stored(chunk).all():
                    raise CrackError(
                        f"pending {label} references oids absent from storage"
                    )
        edges = {0, len(self.values), *self.index.positions().tolist()}
        for start, stop in self._sorted_spans:
            if start not in edges or stop not in edges:
                raise CrackError(
                    f"sorted span [{start}, {stop}) is not a union of whole pieces"
                )
            window = self.values[start:stop]
            if (window[:-1] > window[1:]).any():
                raise CrackError(
                    f"span [{start}, {stop}) is remembered as sorted but is not"
                )
        for piece in self.index.pieces():
            window = self.values[piece.start : piece.stop]
            if len(window) == 0:
                continue
            if piece.lower is not None:
                if piece.lower.kind == KIND_LT and window.min() < piece.lower.value:
                    raise CrackError(f"piece {piece.describes()} violates lower bound")
                if piece.lower.kind == KIND_LE and window.min() <= piece.lower.value:
                    raise CrackError(f"piece {piece.describes()} violates lower bound")
            if piece.upper is not None:
                if piece.upper.kind == KIND_LT and window.max() >= piece.upper.value:
                    raise CrackError(f"piece {piece.describes()} violates upper bound")
                if piece.upper.kind == KIND_LE and window.max() > piece.upper.value:
                    raise CrackError(f"piece {piece.describes()} violates upper bound")
