"""Property-based equivalence: numpy CrackerIndex vs the bisect reference.

The cracker index was rewritten from a Python list of Boundary objects
navigated with ``bisect`` (the seed implementation) to parallel numpy
arrays navigated with ``np.searchsorted``.  This suite replays random
``add`` / ``lookup`` / ``probe`` sequences against both implementations
and asserts identical observable behaviour, including which operations
raise.

Follows the repo's dual harness pattern: `hypothesis` drives the
sequences when installed, a seeded-random fallback otherwise.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from repro.core.crack import KIND_LE, KIND_LT
from repro.core.cracker_index import CrackerIndex
from repro.errors import CrackerIndexError

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

KINDS = (KIND_LT, KIND_LE)
_RANK = {KIND_LT: 0, KIND_LE: 1}
FALLBACK_CASES = 40


class BisectIndex:
    """The seed implementation, kept as the behavioural oracle."""

    def __init__(self, column_size: int) -> None:
        self.column_size = column_size
        self._keys: list[tuple] = []
        self._entries: list[tuple] = []  # (value, kind, position)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, value, kind):
        key = (value, _RANK[kind])
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return self._entries[index][2]
        return None

    def piece_bounds(self, value, kind):
        """``[start, stop)`` of the piece boundary (value, kind) would
        split — the piece left of it when it already exists."""
        index = bisect.bisect_left(self._keys, (value, _RANK[kind]))
        lower = self._entries[index - 1] if index > 0 else None
        upper = self._entries[index] if index < len(self._entries) else None
        return (
            0 if lower is None else lower[2],
            self.column_size if upper is None else upper[2],
        )

    def probe(self, value, kind):
        return (self.lookup(value, kind), *self.piece_bounds(value, kind))

    def add(self, value, kind, position):
        if not 0 <= position <= self.column_size:
            raise CrackerIndexError("position out of range")
        key = (value, _RANK[kind])
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            if self._entries[index][2] != position:
                raise CrackerIndexError("re-added at different position")
            return
        if index > 0 and self._entries[index - 1][2] > position:
            raise CrackerIndexError("would precede left neighbour")
        if index < len(self._entries) and self._entries[index][2] < position:
            raise CrackerIndexError("would follow right neighbour")
        self._keys.insert(index, key)
        self._entries.insert(index, (value, kind, position))

    def snapshot(self):
        return list(self._entries)


def apply_op(index, op) -> tuple:
    """(outcome_tag, payload) of one operation against either index."""
    name = op[0]
    try:
        if name == "add":
            _, value, kind, position = op
            index.add(value, kind, position)
            return ("ok", None)
        _, value, kind = op  # "lookup" or "probe"
        return ("ok", getattr(index, name)(value, kind))
    except CrackerIndexError:
        return ("error", None)


def check_sequence(column_size: int, ops: list) -> None:
    """Replay ``ops`` on both implementations; every observation agrees."""
    numpy_index = CrackerIndex(column_size)
    oracle = BisectIndex(column_size)
    for op in ops:
        new_tag, new_payload = apply_op(numpy_index, op)
        old_tag, old_payload = apply_op(oracle, op)
        assert new_tag == old_tag, (op, new_tag, old_tag)
        assert new_payload == old_payload, (op, new_payload, old_payload)
        assert len(numpy_index) == len(oracle)
        assert numpy_index.column_size == oracle.column_size
        boundaries = [
            (b.value, b.kind, b.position) for b in numpy_index.boundaries()
        ]
        assert boundaries == oracle.snapshot(), op
        numpy_index.check_invariants()
    # Structural cross-checks of the numpy layout.
    sizes = numpy_index.piece_sizes()
    assert sum(sizes) == numpy_index.column_size
    assert len(sizes) == numpy_index.piece_count
    pieces = numpy_index.pieces()
    assert pieces[0].start == 0
    assert pieces[-1].stop == numpy_index.column_size
    for left, right in zip(pieces, pieces[1:]):
        assert left.stop == right.start


def random_ops(rng: np.random.Generator, column_size: int, n_ops: int) -> list:
    ops = []
    for _ in range(n_ops):
        kind = KINDS[int(rng.integers(0, 2))]
        value = int(rng.integers(0, 50))
        choice = int(rng.integers(0, 10))
        if choice < 4:
            ops.append(("add", value, kind, int(rng.integers(0, column_size + 1))))
        elif choice < 7:
            ops.append(("lookup", value, kind))
        else:
            ops.append(("probe", value, kind))
    return ops


if HAVE_HYPOTHESIS:

    _op = st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, 50),
            st.sampled_from(KINDS),
            st.integers(0, 100),
        ),
        st.tuples(st.just("lookup"), st.integers(0, 50), st.sampled_from(KINDS)),
        st.tuples(st.just("probe"), st.integers(0, 50), st.sampled_from(KINDS)),
    )

    @settings(max_examples=120, deadline=None)
    @given(ops=st.lists(_op, max_size=40))
    def test_equivalence_hypothesis(ops):
        check_sequence(100, list(ops))

else:  # pragma: no cover - minimal installs

    @pytest.mark.parametrize("seed", range(FALLBACK_CASES))
    def test_equivalence_fallback(seed):
        rng = np.random.default_rng(seed)
        check_sequence(100, random_ops(rng, 100, 40))


@pytest.mark.parametrize("seed", range(8))
def test_equivalence_monotone_adds(seed):
    """Realistic crack sequences: positions consistent with values."""
    rng = np.random.default_rng(seed)
    column_size = 1000
    ops = []
    for _ in range(60):
        value = int(rng.integers(0, 500))
        # A structurally valid position: proportional to the value, which
        # keeps value/position order consistent like real cracks do.
        position = value * 2
        kind = KINDS[int(rng.integers(0, 2))]
        ops.append(("add", value, kind, position))
        ops.append(("lookup", value, kind))
        ops.append(("probe", int(rng.integers(0, 500)), kind))
    check_sequence(column_size, ops)


def test_probe_agrees_with_lookup_and_piece_bounds():
    index, oracle = CrackerIndex(100), BisectIndex(100)
    for boundary in ((10, KIND_LT, 20), (10, KIND_LE, 25), (40, KIND_LT, 70)):
        index.add(*boundary)
        oracle.add(*boundary)
    for value in (5, 10, 25, 40, 99):
        for kind in KINDS:
            position, start, stop = index.probe(value, kind)
            assert position == index.lookup(value, kind) == oracle.lookup(value, kind)
            assert (start, stop) == oracle.piece_bounds(value, kind)
    assert index.probe(10, KIND_LE) == (25, 20, 25)
    assert index.probe(99, KIND_LT) == (None, 70, 100)


def test_float_and_int_values_mix():
    index = CrackerIndex(100)
    index.add(10, KIND_LT, 20)
    index.add(10.5, KIND_LT, 25)
    assert index.lookup(10.0, KIND_LT) == 20  # 10 == 10.0, like tuple keys
    assert index.lookup(10.5, KIND_LT) == 25
    assert index.probe(10.2, KIND_LT) == (None, 20, 25)
    assert index.piece_sizes() == [20, 5, 75]


def test_values_beyond_float64_precision_rejected():
    """Ints beyond 2**53 cannot be faithful float64 keys: loud error,
    never a silently mis-sorted boundary (the bisect oracle kept exact
    tuples, so this is the one documented divergence)."""
    index = CrackerIndex(100)
    index.add(2**53, KIND_LT, 10)  # exactly representable
    with pytest.raises(CrackerIndexError, match="not exactly representable"):
        index.add(2**53 + 1, KIND_LT, 20)
    # a colliding probe is not a false lookup hit
    assert index.lookup(2**53, KIND_LT) == 10
    assert index.lookup(2**53 + 1, KIND_LT) is None
    assert index.lookup(float(2**53), KIND_LT) == 10  # 2.0**53 == 2**53


def test_merge_shift_matches_manual_rebuild():
    index = CrackerIndex(100)
    index.add(10, KIND_LT, 20)
    index.add(30, KIND_LE, 50)
    index.add(70, KIND_LT, 90)
    counts = np.array([3, 0, 5, 2])
    index.merge_shift(counts, 110)
    assert [b.position for b in index.boundaries()] == [23, 53, 98]
    assert index.column_size == 110
    with pytest.raises(CrackerIndexError):
        index.merge_shift(np.array([1, 2]), 120)


def test_piece_assignment_matches_scalar_semantics():
    index = CrackerIndex(100)
    index.add(10, KIND_LT, 20)   # right of it: >= 10
    index.add(10, KIND_LE, 30)   # right of it: > 10
    index.add(50, KIND_LT, 60)
    values = np.array([5, 10, 11, 49, 50, 99])
    assert index.piece_assignment(values).tolist() == [0, 1, 2, 2, 3, 3]
