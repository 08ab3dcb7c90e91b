"""Property-based equivalence: CrackerIndex vs the bisect reference.

The seed implementation kept a Python list of Boundary objects navigated
with ``bisect`` over ``(value, rank)`` tuples; :class:`CrackerIndex`
keeps three parallel lists (values, kind ranks, positions) navigated with
one ``bisect`` on the values, and builds numpy arrays only for its bulk
passes and snapshots.  This suite replays random ``add`` / ``lookup`` /
``probe`` sequences against both implementations and asserts identical
observable behaviour, including which operations raise.

Follows the repo's dual harness pattern: `hypothesis` drives the
sequences when installed, a seeded-random fallback otherwise.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from repro.core.crack import KIND_LE, KIND_LT
from repro.core.cracked_column import CrackedColumn
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
        probed = index.probe(value, kind)
        return ("ok", probed[0] if name == "lookup" else probed)
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
            (b.value, b.kind, b.position)
            for b in map(numpy_index.boundary_at, range(len(numpy_index)))
        ]
        assert boundaries == oracle.snapshot(), op
        numpy_index.check_invariants()
    # Structural cross-checks of the index layout.
    sizes = numpy_index.piece_sizes()
    assert sum(sizes) == numpy_index.column_size
    assert len(sizes) == numpy_index.piece_count
    assert min(sizes) >= 0


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
            assert position == index.probe(value, kind)[0] == oracle.lookup(value, kind)
            assert (start, stop) == oracle.piece_bounds(value, kind)
    assert index.probe(10, KIND_LE) == (25, 20, 25)
    assert index.probe(99, KIND_LT) == (None, 70, 100)


def test_an_index_holds_one_key_type():
    """A cracked column's index holds keys of the column's dtype: a float
    bound on an int column, and an int one on a float column, arrive
    typed (``a < 20.5`` is ``a <= 20``)."""
    ints = CrackedColumn.from_arrays(np.random.default_rng(0).permutation(100))
    assert ints.range_select(10.0, 20.5).count == 11
    assert ints.range_select(5.5).count == 94
    floats = CrackedColumn.from_arrays(np.arange(100, dtype=np.float64))
    assert floats.range_select(10, 2**53 + 1).count == 90
    for column, dtype, key_type in ((ints, np.int64, int), (floats, np.float64, float)):
        keys, _ = column.index.keys()
        assert keys.dtype == dtype
        assert {type(b[0]) for b in boundaries_of(column.index)} == {key_type}
        column.check_invariants()
    assert [b[:2] for b in boundaries_of(ints.index)] == [
        (6, KIND_LT), (10, KIND_LT), (20, KIND_LE),
    ]


def test_values_beyond_float64_precision_are_held():
    """An int64 index keeps 2**53 and 2**53 + 1 apart: its keys are the
    column's ints, with no float64 form to collide in."""
    index = CrackerIndex(100, np.int64)
    index.add(2**53, KIND_LT, 10)
    index.add(2**53 + 1, KIND_LT, 20)
    assert index.probe(2**53, KIND_LT)[0] == 10
    assert index.probe(2**53 + 1, KIND_LT)[0] == 20
    assert index.probe(2**53 + 2, KIND_LT) == (None, 20, 100)
    values = np.array([2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2])
    assert index.piece_assignment(values).tolist() == [0, 1, 2, 2]
    index.check_invariants()
    clone = CrackerIndex.from_state(index.export_state())
    assert boundaries_of(clone) == boundaries_of(index)
    assert clone.keys()[0].dtype == np.int64


def test_merge_shift_matches_manual_rebuild():
    index = CrackerIndex(100)
    index.add(10, KIND_LT, 20)
    index.add(30, KIND_LE, 50)
    index.add(70, KIND_LT, 90)
    counts = np.array([3, 0, 5, 2])
    index.merge_shift(counts, 110)
    assert index.positions().tolist() == [23, 53, 98]
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


def boundaries_of(index) -> list[tuple]:
    return [(b.value, b.kind, b.position) for b in map(index.boundary_at, range(len(index)))]


@pytest.mark.parametrize("low_kind", KINDS)
def test_int_and_float_bounds_at_equal_values(low_kind):
    """5 and 5.0 are one boundary value, as in the oracle's tuple keys:
    a re-add under the other type is a no-op that keeps the first one."""
    ops = [
        ("add", 5, low_kind, 40),
        ("add", 5.0, low_kind, 40),
        ("add", 5.0, low_kind, 41),  # same boundary, other position: raises
        ("probe", 5.0, KIND_LT),
        ("probe", 5.0, KIND_LE),
        ("add", 5.0, KIND_LE, 60),
        ("add", 5, KIND_LT, 30),
        ("add", 5, KIND_LE, 60),
        ("add", 4.5, KIND_LE, 30),
        ("add", 5.5, KIND_LT, 60),
    ] + [("probe", v, kind) for v in (4, 4.5, 5, 5.0, 5.5, 6) for kind in KINDS]
    check_sequence(100, ops)
    index = CrackerIndex(100)
    index.add(5, KIND_LT, 40)
    index.add(5.0, KIND_LT, 40)
    index.add(5.0, KIND_LE, 60)
    assert [type(b[0]) for b in boundaries_of(index)] == [int, float]
    assert index.probe(5, KIND_LE) == (60, 40, 60)


def test_numpy_scalar_values():
    """np.int64 and np.float64 bounds navigate like the Python values."""
    numpy_scalar = lambda value: (np.int64 if isinstance(value, int) else np.float64)(value)
    ops = [
        ("add", numpy_scalar(value), kind, position)
        for value, kind, position in ((10, KIND_LT, 20), (30.5, KIND_LE, 50), (70, KIND_LE, 90))
    ]
    for value in (0, 10, 29, 30.5, 31, 70, 99):
        for kind in KINDS:
            ops.append(("probe", numpy_scalar(value), kind))
            ops.append(("probe", np.float64(value), kind))
    check_sequence(100, ops)
    index = CrackerIndex(100)
    index.add(np.int64(10), KIND_LT, 20)
    index.add(np.float64(30.5), KIND_LE, 50)
    assert [type(b[0]) for b in boundaries_of(index)] == [int, float]
    for value in (np.int64(10), np.float64(10.0), np.float64(30.5), np.int64(99)):
        assert all(type(p) in (int, type(None)) for p in index.probe(value, KIND_LT))


def test_infinite_bounds():
    """-inf and +inf are ordinary (representable) boundary values."""
    inf = float("inf")
    ops = [
        ("add", -inf, KIND_LT, 0),
        ("add", -inf, KIND_LE, 0),
        ("add", inf, KIND_LE, 100),
        ("add", inf, KIND_LT, 95),
        ("add", 10, KIND_LT, 30),
        ("add", -inf, KIND_LT, 5),  # re-added elsewhere: raises
        ("add", inf, KIND_LE, 99),  # re-added elsewhere: raises
    ] + [("probe", v, kind) for v in (-inf, -1e308, 0, 10, 1e308, inf) for kind in KINDS]
    check_sequence(100, ops)


@pytest.mark.parametrize("seed", range(4))
def test_export_state_round_trip_mid_sequence(seed):
    """A snapshot taken half-way comes back with the same boundaries
    (int vs float identity included) and keeps agreeing with the oracle."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(80):
        value = int(rng.integers(0, 500))
        number = value + 0.5 if rng.integers(0, 2) else value
        ops.append(("add", number, KINDS[int(rng.integers(0, 2))], value * 2))
        ops.append(("probe", int(rng.integers(0, 500)) + 0.25, KINDS[int(rng.integers(0, 2))]))
    index, oracle = CrackerIndex(1000), BisectIndex(1000)
    for step, op in enumerate(ops):
        if step == len(ops) // 2:
            state = index.export_state()
            index = CrackerIndex.from_state(state)
            assert boundaries_of(index) == oracle.snapshot()
            assert [type(b[0]) for b in boundaries_of(index)] == [
                type(entry[0]) for entry in oracle.snapshot()
            ]
            for key, array in index.export_state().items():
                assert np.array_equal(array, state[key]), key
        assert apply_op(index, op) == apply_op(oracle, op), op
    assert boundaries_of(index) == oracle.snapshot()
    index.check_invariants()


def test_twenty_thousand_boundaries():
    """The size unbounded cracking (``crack_threshold=0``) reaches."""
    rng = np.random.default_rng(20_000)
    column_size = 200_000
    values = rng.permutation(100_000)[:20_000]
    index, oracle = CrackerIndex(column_size), BisectIndex(column_size)
    for value in values.tolist():
        kind = KINDS[value % 2]
        # Consistent positions: 2 per value unit, +1 past an 'le'.
        op = ("add", value, kind, 2 * value + (kind == KIND_LE))
        assert apply_op(index, op) == apply_op(oracle, op) == ("ok", None)
    for value in rng.integers(-10, 100_010, 5_000).tolist():
        for kind in KINDS:
            assert index.probe(value, kind) == oracle.probe(value, kind), value
    assert len(index) == 20_000
    assert boundaries_of(index) == oracle.snapshot()
    index.check_invariants()
    sizes = index.piece_sizes()
    assert sum(sizes) == column_size and len(sizes) == 20_001
