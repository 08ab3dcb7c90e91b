"""Tests for the adaptive cracked column, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crack import KIND_LE, KIND_LT
from repro.core.cracked_column import CrackedColumn
from repro.core.cracker_index import Piece
from repro.errors import CrackError
from repro.storage.bat import BAT


def make_column(values) -> CrackedColumn:
    return CrackedColumn(BAT.from_values("t", values))


class TestRangeSelect:
    def test_basic_double_sided(self, rng):
        data = rng.permutation(1000)
        column = make_column(data)
        result = column.range_select(100, 200, high_inclusive=True)
        assert result.count == 101 == result.stop - result.start
        assert result.values.flags.owndata and result.oids.flags.owndata
        assert not np.shares_memory(result.values, column.values)
        assert sorted(result.values.tolist()) == list(range(100, 201))

    def test_one_sided_low(self, rng):
        data = rng.permutation(100)
        column = make_column(data)
        assert column.range_select(90, None).count == 10

    def test_one_sided_high(self, rng):
        data = rng.permutation(100)
        column = make_column(data)
        assert column.range_select(None, 10).count == 10

    def test_unbounded_query_returns_all(self):
        column = make_column([3, 1, 2])
        assert column.range_select(None, None).count == 3

    def test_point_query(self):
        column = make_column([5, 3, 5, 1, 5])
        result = column.range_select(5, 5, high_inclusive=True)
        assert result.count == 3

    def test_inverted_range_is_empty(self):
        column = make_column([1, 2, 3])
        result = column.range_select(5, 2)
        assert (result.count, result.start, result.stop) == (0, 0, 0)
        assert column.piece_count == 1

    def test_exclusive_bounds(self):
        column = make_column([1, 2, 3, 4, 5])
        result = column.range_select(2, 4, low_inclusive=False, high_inclusive=False)
        assert result.values.tolist() == [3]

    def test_oids_identify_source_rows(self, rng):
        data = rng.permutation(500)
        column = make_column(data)
        result = column.range_select(100, 200)
        for oid, value in zip(result.oids, result.values):
            assert data[oid] == value

    def test_repeated_query_no_further_cracks(self, rng):
        column = make_column(rng.permutation(1000))
        column.range_select(100, 200)
        cracks_before = column.crack_stats.cracks
        column.range_select(100, 200)
        assert column.crack_stats.cracks == cracks_before

    def test_count_range_matches_select(self, rng):
        data = rng.permutation(300)
        column = make_column(data)
        assert column.count_range(50, 150) == column.range_select(50, 150).count

    def test_float_column(self, rng):
        data = rng.normal(0, 1, 1000)
        column = make_column(data.tolist())
        # make_column defaults to int tail; build explicitly for float
        column = CrackedColumn(BAT.from_values("t", data, tail_type="float"))
        result = column.range_select(-0.5, 0.5, high_inclusive=True)
        assert result.count == int(np.sum((data >= -0.5) & (data <= 0.5)))

    def test_str_column_rejected(self):
        bat = BAT.from_values("t", ["a"], tail_type="str")
        with pytest.raises(CrackError):
            CrackedColumn(bat)

    def test_source_bat_is_never_mutated(self, rng):
        data = rng.permutation(200)
        bat = BAT.from_values("t", data)
        column = CrackedColumn(bat)
        column.range_select(50, 150)
        assert np.array_equal(bat.tail_array(), data)


class TestUpdates:
    def test_append_visible_next_query(self, rng):
        column = make_column(rng.permutation(100))
        column.range_select(10, 20)  # crack first
        column.append([15, 15, 200])
        result = column.range_select(10, 20, high_inclusive=True)
        assert 15 in result.values.tolist()
        assert result.count == 11 + 2

    def test_append_to_virgin_column(self):
        column = make_column([1, 2, 3])
        column.append([10, 0])
        assert column.range_select(None, None).count == 5

    def test_append_assigns_fresh_oids(self):
        column = make_column([1, 2, 3])
        oids = column.append([9])
        assert oids.tolist() == [3]

    def test_append_explicit_oids(self):
        column = make_column([1, 2, 3])
        oids = column.append([9], oids=[77])
        assert oids.tolist() == [77]
        result = column.range_select(9, 9, high_inclusive=True)
        assert result.oids.tolist() == [77]

    def test_append_misaligned_raises(self):
        column = make_column([1])
        with pytest.raises(CrackError):
            column.append([1, 2], oids=[5])

    def test_pending_count_until_merge(self):
        # 16 rows: a write merges by itself only past 1/8 of the column.
        column = make_column(range(16))
        column.append([4])
        assert column.observability()["pending_inserts"] == 1
        column.range_select(0, 10)
        assert column.observability()["pending_inserts"] == 0

    def test_invariants_after_many_merges(self, rng):
        column = make_column(rng.permutation(500))
        for i in range(10):
            low = int(rng.integers(0, 400))
            column.range_select(low, low + 50, high_inclusive=True)
            column.append(rng.integers(-100, 700, 20))
        column.range_select(0, 500)
        column.check_invariants()

    def test_merged_values_queryable(self, rng):
        data = rng.permutation(200)
        column = make_column(data)
        column.range_select(50, 100)
        column.range_select(120, 160)
        appended = rng.integers(0, 200, 50)
        column.append(appended)
        total = column.range_select(None, None).count
        assert total == 250


class TestStatsAndIntrospection:
    def test_query_stats_count_queries(self, rng):
        column = make_column(rng.permutation(100))
        column.range_select(10, 20)
        column.range_select(30, 40)
        assert column.query_stats.queries == 2

    def test_piece_count_grows(self, rng):
        column = make_column(rng.permutation(1000))
        assert column.piece_count == 1
        column.range_select(100, 200)
        assert column.piece_count == 3

    def test_len(self):
        assert len(make_column([1, 2, 3])) == 3


class TestPieceBoundChecks:
    """``check_invariants`` names the first piece whose values cross a
    boundary, for each side and boundary kind: a boundary ``(v, lt)``
    keeps ``< v`` on its left and ``>= v`` on its right, ``(v, le)``
    keeps ``<= v`` and ``> v``."""

    @pytest.mark.parametrize(
        "inclusive,edge,across,message",
        [
            ((True, False), 5, 4, r"piece \(>=5, <10\) violates lower bound"),
            ((False, True), 6, 5, r"piece \(>5, <=10\) violates lower bound"),
            ((True, False), 9, 10, r"piece \(>=5, <10\) violates upper bound"),
            ((False, True), 10, 11, r"piece \(>5, <=10\) violates upper bound"),
        ],
        ids=["lower-lt", "lower-le", "upper-lt", "upper-le"],
    )
    def test_a_value_across_a_boundary_is_caught(
        self, rng, inclusive, edge, across, message
    ):
        column = make_column(rng.permutation(20))
        middle = column.range_select(
            5, 10, low_inclusive=inclusive[0], high_inclusive=inclusive[1]
        )
        column.values[middle.start] = edge  # on the boundary's own side
        column.check_invariants()
        column.values[middle.start] = across
        with pytest.raises(CrackError, match=message):
            column.check_invariants()


    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), value=st.integers(-5, 105))
    def test_matches_the_per_piece_loop(self, seed, value):
        """The vectorised check against the per-piece loop it replaced,
        after one stored value is overwritten with ``value``."""
        rng = np.random.default_rng(seed)
        column = make_column(rng.integers(0, 100, 200))
        for low, inclusive in zip(rng.integers(0, 100, 6), rng.integers(0, 2, (6, 2))):
            column.range_select(int(low), int(low) + 10, *inclusive.astype(bool).tolist())
        column.values[rng.integers(0, 200)] = value
        index = column.index
        edges = [0, *index.positions().tolist(), len(column)]
        expected = None
        for at in range(len(edges) - 1):
            window = column.values[edges[at] : edges[at + 1]]
            lower = index.boundary_at(at - 1) if at else None
            upper = index.boundary_at(at) if at < len(index) else None
            if not len(window) or expected is not None:
                continue
            piece = Piece(edges[at], edges[at + 1], lower, upper).describes()
            if lower is not None and (
                window.min() < lower.value
                or (lower.kind == KIND_LE and window.min() == lower.value)
            ):
                expected = f"piece {piece} violates lower bound"
            elif upper is not None and (
                window.max() > upper.value
                or (upper.kind == KIND_LT and window.max() == upper.value)
            ):
                expected = f"piece {piece} violates upper bound"
        if expected is None:
            column.check_invariants()
        else:
            with pytest.raises(CrackError) as info:
                column.check_invariants()
            assert str(info.value) == expected


# ---------------------------------------------------------------------- #
# Property: a cracked column always agrees with a brute-force filter,
# and its piece invariants always hold.
# ---------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.integers(-1000, 1000), min_size=1, max_size=200),
    queries=st.lists(
        st.tuples(st.integers(-1100, 1100), st.integers(0, 300),
                  st.booleans(), st.booleans()),
        min_size=1,
        max_size=12,
    ),
)
def test_property_cracked_column_matches_brute_force(data, queries):
    column = make_column(data)
    reference = np.asarray(data)
    for low, span, low_inc, high_inc in queries:
        high = low + span
        result = column.range_select(
            low, high, low_inclusive=low_inc, high_inclusive=high_inc
        )
        mask = np.ones(len(reference), dtype=bool)
        mask &= reference >= low if low_inc else reference > low
        mask &= reference <= high if high_inc else reference < high
        assert result.count == int(mask.sum())
        column.check_invariants()


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.integers(-100, 100), min_size=1, max_size=150),
    appends=st.lists(
        st.lists(st.integers(-150, 150), min_size=0, max_size=20),
        min_size=1, max_size=5,
    ),
)
def test_property_updates_preserve_multiset(data, appends):
    column = make_column(data)
    expected = list(data)
    for batch in appends:
        low = batch[0] if batch else 0
        column.range_select(low, low + 10, high_inclusive=True)
        column.append(batch)
        expected.extend(batch)
    result = column.range_select(None, None)
    assert sorted(result.values.tolist()) == sorted(expected)
    column.check_invariants()


class TestAppendOids:
    """``append`` refuses an oid the column already holds, stored or
    queued, and one named twice in a call: either would leave two rows
    under one oid."""

    def test_an_oid_in_storage_is_refused(self):
        column = make_column(range(10))  # stores oids 0..9
        with pytest.raises(CrackError, match="already holds"):
            column.append([5], oids=[3])
        column.check_invariants()
        assert column.range_select(None, None).count == 10

    def test_a_queued_oid_is_refused(self):
        column = make_column(range(10))
        column.append([5], oids=[200])
        with pytest.raises(CrackError, match="already holds"):
            column.append([6], oids=[200])
        column.check_invariants()
        assert column.range_select(None, None).count == 11

    def test_an_oid_twice_in_one_call_is_refused(self):
        column = make_column(range(100))
        with pytest.raises(CrackError, match="twice"):
            column.append([5, 6], oids=[200, 200])
        column.check_invariants()
        assert column.range_select(None, None).count == 100
