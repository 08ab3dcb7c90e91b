"""One rule for a range bound meeting its column's type.

The paper's cracker index keeps each piece's "(min,max) bounds of the
(range) attributes" (§3.2): its keys are values of the attribute's own
domain.  A literal need not be — ``a < 5.5`` on an integer column,
``x > 9007199254740993`` on a float one — so every bound is folded into
its column's type once, by :func:`typed_bound`, before anything compares
it with the column: the analyzer's fold and a cracked column's own entry
points both call it.

The rule is SQLite's for mixed integer/real comparisons
(https://www.sqlite.org/datatype3.html, "Comparison Expressions"): an
INTEGER and a REAL compare by exact numeric value, and an integer
literal outside the int64 range is read as the REAL nearest to it.  After
the fold a bound on an integer column is a Python int in the int64
range, one on a float column a Python float, so numpy, the cracker
kernels and the cracker index all compare like with like.
"""

from __future__ import annotations

import math
from numbers import Integral

#: :func:`typed_bound`'s answer when no value of the column passes the bound.
EMPTY = "empty"

#: The int64 range.  An int in it, on an integer column, is its own
#: bound: callers on a hot path test this before calling.
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def typed_bound(value, side: str, inclusive: bool, integer: bool):
    """The bound ``attr >(=) value`` (``side`` "low") or ``attr <(=)
    value`` (``side`` "high") in the column's type.

    Returns ``(value, inclusive)`` in the column's type; None when every
    value of the column passes it (an unbounded side); or :data:`EMPTY`
    when none does.  ``integer`` says the column holds int64 values,
    else float64.

    * A float on an integer column moves to the nearest integer inside
      the range (``a < 5.5`` is ``a <= 5``, ``a <= 5.0`` is ``a <= 5``);
      past the int64 range or at ±inf its side is empty or unbounded.
    * An integer with no exact float64 form, on a float column, moves to
      its neighbouring float inside the range (``x < 2**53 + 1`` is
      ``x <= 2**53``).
    * An integer literal outside int64 is read as the nearest float, and
      one beyond float64's range as ±inf, as SQLite reads it.
    * NaN is empty: no value compares true with it.
    """
    if type(value) is int and INT64_MIN <= value <= INT64_MAX:
        if integer:  # the common case: an int literal on an int column
            return value, inclusive
        return _float_neighbour(value, side, inclusive)
    if isinstance(value, Integral):
        value = int(value)
        if INT64_MIN <= value <= INT64_MAX:
            return typed_bound(value, side, inclusive, integer)
        try:
            value = float(value)
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
    else:
        value = float(value)
    if value != value:
        return EMPTY
    if not integer:
        return value, inclusive
    low = side == "low"
    if math.isinf(value):
        return EMPTY if (value > 0) == low else None
    whole = math.ceil(value) if low else math.floor(value)
    if whole != value:
        inclusive = True
    if whole > INT64_MAX:
        return EMPTY if low else None
    if whole < INT64_MIN:
        return None if low else EMPTY
    return whole, inclusive


def _float_neighbour(value: int, side: str, inclusive: bool) -> tuple[float, bool]:
    """An int64 ``value`` as a float bound: itself when float64 holds it
    exactly, else the nearest float on the range's side of it."""
    near = float(value)
    if near == value:
        return near, inclusive
    if side == "low":
        return (near if near > value else math.nextafter(near, math.inf)), True
    return (near if near < value else math.nextafter(near, -math.inf)), True
