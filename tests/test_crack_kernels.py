"""Tests for the physical crack kernels, including property-based checks.

The three kernel families (vectorised swap, rebuild, pure-Python swap
loop) must agree on the split positions and the piece invariant for any
input; hypothesis drives that equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.errors import CrackError

KERNELS_TWO = (crack_in_two, crack_in_two_rebuild, crack_in_two_swaps)
KERNELS_THREE = (crack_in_three, crack_in_three_rebuild, crack_in_three_via_two)


def fresh(values):
    v = np.asarray(values, dtype=np.int64)
    return v.copy(), np.arange(len(v), dtype=np.int64)


class TestCrackInTwoBasics:
    @pytest.mark.parametrize("kernel", KERNELS_TWO)
    def test_simple_partition(self, kernel):
        values, oids = fresh([5, 1, 4, 2, 3])
        split = kernel(values, oids, 0, 5, 3)
        assert split == 2
        assert set(values[:2]) == {1, 2}
        assert set(values[2:]) == {3, 4, 5}

    @pytest.mark.parametrize("kernel", KERNELS_TWO)
    def test_le_kind_includes_pivot_left(self, kernel):
        values, oids = fresh([5, 1, 4, 2, 3])
        split = kernel(values, oids, 0, 5, 3, kind=KIND_LE)
        assert split == 3
        assert set(values[:3]) == {1, 2, 3}

    @pytest.mark.parametrize("kernel", KERNELS_TWO)
    def test_all_left(self, kernel):
        values, oids = fresh([1, 2, 3])
        assert kernel(values, oids, 0, 3, 10) == 3

    @pytest.mark.parametrize("kernel", KERNELS_TWO)
    def test_all_right(self, kernel):
        values, oids = fresh([5, 6, 7])
        assert kernel(values, oids, 0, 3, 1) == 0

    @pytest.mark.parametrize("kernel", KERNELS_TWO)
    def test_subregion_untouched_outside(self, kernel):
        values, oids = fresh([9, 5, 1, 4, 2, 9])
        kernel(values, oids, 1, 5, 3)
        assert values[0] == 9 and values[5] == 9

    @pytest.mark.parametrize("kernel", KERNELS_TWO)
    def test_empty_region(self, kernel):
        values, oids = fresh([1, 2, 3])
        assert kernel(values, oids, 1, 1, 2) == 1

    @pytest.mark.parametrize("kernel", KERNELS_TWO)
    def test_oids_travel_with_values(self, kernel):
        original = [5, 1, 4, 2, 3]
        values, oids = fresh(original)
        kernel(values, oids, 0, 5, 3)
        for value, oid in zip(values, oids):
            assert original[oid] == value

    def test_unknown_kind_raises(self):
        values, oids = fresh([1, 2])
        with pytest.raises(CrackError):
            crack_in_two(values, oids, 0, 2, 1, kind="weird")

    def test_misaligned_inputs_raise(self):
        with pytest.raises(CrackError):
            crack_in_two(np.array([1, 2]), np.array([0]), 0, 2, 1)

    def test_bad_region_raises(self):
        values, oids = fresh([1, 2])
        with pytest.raises(CrackError):
            crack_in_two(values, oids, 0, 5, 1)

    def test_duplicates_of_pivot(self):
        values, oids = fresh([3, 3, 3, 1, 3])
        split_lt = crack_in_two(values.copy(), oids.copy(), 0, 5, 3, kind=KIND_LT)
        split_le = crack_in_two(values.copy(), oids.copy(), 0, 5, 3, kind=KIND_LE)
        assert split_lt == 1
        assert split_le == 5


class TestCrackStats:
    def test_stats_touched_counts_region(self):
        values, oids = fresh([5, 1, 4, 2])
        stats = CrackStats()
        crack_in_two(values, oids, 0, 4, 3, stats=stats)
        assert stats.tuples_touched == 4
        assert stats.cracks == 1

    def test_swap_kernel_moves_fewer_than_rebuild(self):
        base = np.concatenate([np.arange(100), np.arange(200, 300)])
        swap_stats, rebuild_stats = CrackStats(), CrackStats()
        v1, o1 = base.copy(), np.arange(200)
        crack_in_two(v1, o1, 0, 200, 150, stats=swap_stats)
        v2, o2 = base.copy(), np.arange(200)
        crack_in_two_rebuild(v2, o2, 0, 200, 150, stats=rebuild_stats)
        # Values are already partitioned: swap kernel moves nothing.
        assert swap_stats.tuples_moved == 0
        assert rebuild_stats.tuples_moved == 200

    def test_stats_reset(self):
        stats = CrackStats(tuples_touched=5, tuples_moved=2, cracks=1, sorts=3)
        stats.reset()
        assert stats == CrackStats()

    @pytest.mark.parametrize("kernel", KERNELS_TWO)
    @pytest.mark.parametrize(
        "values, pivot, kind, split",
        [
            (list(range(10)), 5, KIND_LT, 5),  # pre-partitioned: nothing moves
            (list(range(9, -1, -1)), 5, KIND_LT, 5),  # reversed
            ([4] * 10, 4, KIND_LT, 0),  # all equal: everything stays right...
            ([4] * 10, 4, KIND_LE, 10),  # ...or left, no split either way
        ],
    )
    def test_a_crack_counts_iff_the_piece_was_split(
        self, kernel, values, pivot, kind, split
    ):
        array, oids = fresh(values)
        stats = CrackStats()
        assert kernel(array, oids, 0, 10, pivot, kind=kind, stats=stats) == split
        assert stats.cracks == int(0 < split < 10)

    @pytest.mark.parametrize("kernel", KERNELS_THREE)
    def test_three_way_kernels_count_by_the_same_rule(self, kernel):
        for values, low, high, split in [
            (list(range(10)), 3, 6, True),
            (list(range(9, -1, -1)), 3, 6, True),
            ([4] * 10, 4, 4, False),  # one zone holds the whole piece
            ([4] * 10, 5, 9, False),
            ([4] * 10, 0, 3, False),
        ]:
            array, oids = fresh(values)
            stats = CrackStats()
            kernel(array, oids, 0, 10, low, high, stats=stats)
            assert bool(stats.cracks) == split, (values, low, high)
            assert sorted(array.tolist()) == sorted(values)


class TestCrackInThree:
    @pytest.mark.parametrize("kernel", KERNELS_THREE)
    def test_three_zones(self, kernel):
        values, oids = fresh([7, 2, 5, 9, 1, 4, 8])
        s1, s2 = kernel(values, oids, 0, 7, 4, 7)
        assert all(v < 4 for v in values[:s1])
        assert all(4 <= v <= 7 for v in values[s1:s2])
        assert all(v > 7 for v in values[s2:])

    @pytest.mark.parametrize("kernel", KERNELS_THREE)
    def test_point_selection_low_equals_high(self, kernel):
        values, oids = fresh([3, 1, 3, 2, 3])
        s1, s2 = kernel(values, oids, 0, 5, 3, 3)
        assert s2 - s1 == 3
        assert all(v == 3 for v in values[s1:s2])

    @pytest.mark.parametrize("kernel", KERNELS_THREE)
    def test_inverted_range_raises(self, kernel):
        values, oids = fresh([1, 2, 3])
        with pytest.raises(CrackError):
            kernel(values, oids, 0, 3, 5, 2)

    @pytest.mark.parametrize("kernel", KERNELS_THREE)
    def test_oids_preserved(self, kernel):
        original = [7, 2, 5, 9, 1, 4, 8]
        values, oids = fresh(original)
        kernel(values, oids, 0, 7, 3, 6)
        for value, oid in zip(values, oids):
            assert original[oid] == value

    @pytest.mark.parametrize("kernel", KERNELS_THREE)
    def test_exclusive_kinds(self, kernel):
        values, oids = fresh([1, 2, 3, 4, 5])
        # (2, 4): low exclusive via 'le', high exclusive via 'lt'.
        s1, s2 = kernel(values, oids, 0, 5, 2, 4, low_kind=KIND_LE, high_kind=KIND_LT)
        assert values[s1:s2].tolist() == [3]


# ---------------------------------------------------------------------- #
# Property-based equivalence of all kernel variants
# ---------------------------------------------------------------------- #

region_values = st.lists(st.integers(-100, 100), min_size=0, max_size=120)


@settings(max_examples=120, deadline=None)
@given(values=region_values, pivot=st.integers(-110, 110), data=st.data())
def test_property_crack_in_two_invariant_and_equivalence(values, pivot, data):
    kind = data.draw(st.sampled_from([KIND_LT, KIND_LE]))
    n = len(values)
    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    splits = []
    for kernel in KERNELS_TWO:
        v, o = fresh(values)
        split = kernel(v, o, start, stop, pivot, kind=kind)
        splits.append(split)
        predicate = (lambda x: x < pivot) if kind == KIND_LT else (lambda x: x <= pivot)
        assert all(predicate(x) for x in v[start:split])
        assert not any(predicate(x) for x in v[split:stop])
        # Multiset with oid pairing preserved; outside region untouched.
        assert sorted(zip(v.tolist(), o.tolist())) == sorted(
            zip(values, range(n))
        )
        assert v[:start].tolist() == values[:start]
        assert v[stop:].tolist() == values[stop:]
    assert len(set(splits)) == 1


@settings(max_examples=120, deadline=None)
@given(values=region_values, low=st.integers(-110, 110),
       span=st.integers(0, 60), data=st.data())
def test_property_crack_in_three_equivalence(values, low, span, data):
    high = low + span
    n = len(values)
    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    results = []
    for kernel in KERNELS_THREE:
        v, o = fresh(values)
        s1, s2 = kernel(v, o, start, stop, low, high)
        results.append((s1, s2))
        assert all(x < low for x in v[start:s1])
        assert all(low <= x <= high for x in v[s1:s2])
        assert all(x > high for x in v[s2:stop])
        assert sorted(zip(v.tolist(), o.tolist())) == sorted(zip(values, range(n)))
    assert len(set(results)) == 1
