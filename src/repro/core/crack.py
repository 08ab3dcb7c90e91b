"""Physical cracking kernels: crack-in-two and crack-in-three.

These are the shuffle-exchange operations of the MonetDB cracker module
(§3.4.2): given a region of the cracker column, reorganise it *in place*
so that tuples on either side of a pivot become contiguous.  Values travel
together with their oids, so a crack on one column keeps the row identity
needed to fetch sibling columns.

Three implementations are provided:

* the default **vectorised swap** kernels: one mask pass over the piece,
  then pairwise swaps of only the *misplaced* elements — the numpy
  analogue of the C two-pointer exchange loop (the ``repro_why`` band for
  this paper: per-element swapping in pure Python is orders of magnitude
  too slow, so fidelity requires numpy tricks).  Cost: O(piece) reads,
  O(misplaced) writes;
* **rebuild** kernels that regenerate the whole piece out-of-place and
  write it back — simpler, but they write the entire piece (kept for the
  kernel ablation benchmark);
* a pure-Python **swap-loop** kernel mirroring the textbook two-pointer
  partition, used as an independent oracle in the test suite.

None of the kernels promises stability — like the original, cracking only
guarantees the piece invariant (every element left of the returned split
satisfies the boundary predicate), never a total order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CrackError

#: Boundary kinds: 'lt' puts values < pivot on the left, 'le' puts <= pivot.
KIND_LT = "lt"
KIND_LE = "le"
_VALID_KINDS = (KIND_LT, KIND_LE)


@dataclass
class CrackStats:
    """Work accounting for a sequence of crack operations.

    Attributes:
        tuples_touched: tuples examined by crack kernels and cut-off
            sorts (piece sizes).
        tuples_moved: tuples whose storage position a kernel changed.
        cracks: kernel invocations that split a piece, i.e. placed a
            split strictly inside it — whether or not anything had to
            move; every kernel counts by this one rule.
        sorts: pieces sorted in place at the crack cut-off (charged to
            ``tuples_touched``, not ``tuples_moved``).
    """

    tuples_touched: int = 0
    tuples_moved: int = 0
    cracks: int = 0
    sorts: int = 0

    def reset(self) -> None:
        self.tuples_touched = 0
        self.tuples_moved = 0
        self.cracks = 0
        self.sorts = 0


def _check_region(values: np.ndarray, oids: np.ndarray, start: int, stop: int) -> None:
    if len(values) != len(oids):
        raise CrackError(
            f"values ({len(values)}) and oids ({len(oids)}) must be aligned"
        )
    if not 0 <= start <= stop <= len(values):
        raise CrackError(f"region [{start}, {stop}) out of bounds for {len(values)} tuples")


def _left_mask(region: np.ndarray, pivot, kind: str) -> np.ndarray:
    if kind == KIND_LT:
        return region < pivot
    if kind == KIND_LE:
        return region <= pivot
    raise CrackError(f"unknown crack kind {kind!r}; expected one of {_VALID_KINDS}")


def _swap_positions(array: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Exchange ``array[left]`` and ``array[right]`` element-wise."""
    buffer = array[left].copy()
    array[left] = array[right]
    array[right] = buffer


def crack_in_two(
    values: np.ndarray,
    oids: np.ndarray,
    start: int,
    stop: int,
    pivot,
    kind: str = KIND_LT,
    stats: CrackStats | None = None,
) -> int:
    """Partition region ``[start, stop)`` around ``pivot`` in place.

    After the call, positions ``[start, split)`` hold values ``< pivot``
    (kind 'lt') or ``<= pivot`` (kind 'le'), and ``[split, stop)`` the
    rest.  Only misplaced elements are written (vectorised swap).

    Returns:
        the split position.
    """
    _check_region(values, oids, start, stop)
    region = values[start:stop]
    mask = _left_mask(region, pivot, kind)
    n_left = int(mask.sum())
    split = start + n_left
    if stats is not None:
        stats.tuples_touched += stop - start
    if split in (start, stop):
        return split
    if stats is not None:
        stats.cracks += 1
    # Elements in the left zone that belong right, and vice versa — the
    # two lists always have equal length, so a pairwise swap suffices.
    wrong_left = np.flatnonzero(~mask[:n_left])
    if len(wrong_left) == 0:
        return split
    wrong_right = n_left + np.flatnonzero(mask[n_left:])
    _swap_positions(region, wrong_left, wrong_right)
    oid_region = oids[start:stop]
    _swap_positions(oid_region, wrong_left, wrong_right)
    if stats is not None:
        stats.tuples_moved += 2 * len(wrong_left)
    return split


def crack_in_three(
    values: np.ndarray,
    oids: np.ndarray,
    start: int,
    stop: int,
    low,
    high,
    low_kind: str = KIND_LT,
    high_kind: str = KIND_LE,
    stats: CrackStats | None = None,
) -> tuple[int, int]:
    """Partition ``[start, stop)`` into three pieces with one mask pass.

    The paper's Ξ-cracker for double-sided ranges produces three pieces:
    ``attr < low``, ``attr ∈ [low, high]``, ``attr > high`` (§3.1).  The
    kernel computes both masks once, then fixes zones 1 and 2 with
    pairwise swaps of misplaced elements (zone 3 is then correct by
    construction).

    Returns:
        (split_low, split_high): the middle piece is
        ``[split_low, split_high)``.
    """
    _check_region(values, oids, start, stop)
    if high < low:
        raise CrackError(f"invalid range: low={low!r} > high={high!r}")
    region = values[start:stop]
    oid_region = oids[start:stop]
    left_mask = _left_mask(region, low, low_kind)
    below_high = _left_mask(region, high, high_kind)
    middle_mask = ~left_mask & below_high
    n1 = int(left_mask.sum())
    n2 = int(middle_mask.sum())
    split_low = start + n1
    split_high = split_low + n2
    if stats is not None:
        stats.tuples_touched += stop - start
    moved = 0
    # Stage 1: place every left-zone element.  Swapping displaces middle/
    # right elements outward, so the middle mask must travel along.
    wrong_in_zone1 = np.flatnonzero(~left_mask[:n1])
    if len(wrong_in_zone1):
        sources = n1 + np.flatnonzero(left_mask[n1:])
        _swap_positions(region, wrong_in_zone1, sources)
        _swap_positions(oid_region, wrong_in_zone1, sources)
        _swap_positions(middle_mask, wrong_in_zone1, sources)
        moved += 2 * len(wrong_in_zone1)
    # Stage 2: zones 2 and 3 now hold only middle/right elements; place
    # the middle ones.
    tail_middle = middle_mask[n1:]
    wrong_in_zone2 = n1 + np.flatnonzero(~tail_middle[:n2])
    if len(wrong_in_zone2):
        sources = n1 + n2 + np.flatnonzero(tail_middle[n2:])
        _swap_positions(region, wrong_in_zone2, sources)
        _swap_positions(oid_region, wrong_in_zone2, sources)
        moved += 2 * len(wrong_in_zone2)
    if stats is not None:
        stats.tuples_moved += moved
        if start < split_low < stop or start < split_high < stop:
            stats.cracks += 1
    return split_low, split_high


def crack_in_three_via_two(
    values: np.ndarray,
    oids: np.ndarray,
    start: int,
    stop: int,
    low,
    high,
    low_kind: str = KIND_LT,
    high_kind: str = KIND_LE,
    stats: CrackStats | None = None,
) -> tuple[int, int]:
    """Double-sided crack as two successive crack-in-two calls.

    The ablation counterpart of :func:`crack_in_three`: same final
    layout, but the region right of ``split_low`` is mask-scanned twice.
    """
    if high < low:
        raise CrackError(f"invalid range: low={low!r} > high={high!r}")
    split_low = crack_in_two(values, oids, start, stop, low, kind=low_kind, stats=stats)
    split_high = crack_in_two(
        values, oids, split_low, stop, high, kind=high_kind, stats=stats
    )
    return split_low, split_high


# ---------------------------------------------------------------------- #
# Rebuild kernels (whole-piece rewrite) — ablation comparators
# ---------------------------------------------------------------------- #


def crack_in_two_rebuild(
    values: np.ndarray,
    oids: np.ndarray,
    start: int,
    stop: int,
    pivot,
    kind: str = KIND_LT,
    stats: CrackStats | None = None,
) -> int:
    """Out-of-place stable partition writing the whole piece back.

    Stable on both sides (unlike the swap kernels) but writes every
    element of the piece; used by the kernel ablation benchmark.
    """
    _check_region(values, oids, start, stop)
    mask = _left_mask(values[start:stop], pivot, kind)
    split = start + int(mask.sum())
    if stats is not None:
        stats.tuples_touched += stop - start
    if split in (start, stop):
        return split
    # Snapshot before writing: the slice is a view into the same storage.
    region = values[start:stop].copy()
    not_mask = ~mask
    values[start:split] = region[mask]
    values[split:stop] = region[not_mask]
    oid_region = oids[start:stop].copy()
    oids[start:split] = oid_region[mask]
    oids[split:stop] = oid_region[not_mask]
    if stats is not None:
        stats.tuples_moved += stop - start
        stats.cracks += 1
    return split


def crack_in_three_rebuild(
    values: np.ndarray,
    oids: np.ndarray,
    start: int,
    stop: int,
    low,
    high,
    low_kind: str = KIND_LT,
    high_kind: str = KIND_LE,
    stats: CrackStats | None = None,
) -> tuple[int, int]:
    """Out-of-place stable three-way partition (whole-piece rewrite)."""
    _check_region(values, oids, start, stop)
    if high < low:
        raise CrackError(f"invalid range: low={low!r} > high={high!r}")
    region = values[start:stop].copy()
    left_mask = _left_mask(region, low, low_kind)
    below_high = _left_mask(region, high, high_kind)
    middle_mask = ~left_mask & below_high
    right_mask = ~left_mask & ~below_high
    split_low = start + int(left_mask.sum())
    split_high = split_low + int(middle_mask.sum())
    if stats is not None:
        stats.tuples_touched += stop - start
    if not (start < split_low < stop or start < split_high < stop):
        return split_low, split_high
    values[start:split_low] = region[left_mask]
    values[split_low:split_high] = region[middle_mask]
    values[split_high:stop] = region[right_mask]
    oid_region = oids[start:stop].copy()
    oids[start:split_low] = oid_region[left_mask]
    oids[split_low:split_high] = oid_region[middle_mask]
    oids[split_high:stop] = oid_region[right_mask]
    if stats is not None:
        stats.tuples_moved += stop - start
        stats.cracks += 1
    return split_low, split_high


# ---------------------------------------------------------------------- #
# Pure-Python oracle
# ---------------------------------------------------------------------- #


def crack_in_two_swaps(
    values: np.ndarray,
    oids: np.ndarray,
    start: int,
    stop: int,
    pivot,
    kind: str = KIND_LT,
    stats: CrackStats | None = None,
) -> int:
    """Two-pointer swap-loop variant of :func:`crack_in_two`.

    Mirrors the C implementation's Hoare-style exchange, element by
    element in Python.  Kept as an independent oracle for the tests and
    the kernel ablation (it is orders of magnitude slower — which is the
    point the vectorised kernels exist to make).
    """
    _check_region(values, oids, start, stop)

    def goes_left(value) -> bool:
        if kind == KIND_LT:
            return bool(value < pivot)
        if kind == KIND_LE:
            return bool(value <= pivot)
        raise CrackError(f"unknown crack kind {kind!r}; expected one of {_VALID_KINDS}")

    left = start
    right = stop - 1
    moved = 0
    while left <= right:
        while left <= right and goes_left(values[left]):
            left += 1
        while left <= right and not goes_left(values[right]):
            right -= 1
        if left < right:
            values[left], values[right] = values[right], values[left]
            oids[left], oids[right] = oids[right], oids[left]
            moved += 2
            left += 1
            right -= 1
    if stats is not None:
        stats.tuples_touched += stop - start
        stats.tuples_moved += moved
        if start < left < stop:
            stats.cracks += 1
    return left
