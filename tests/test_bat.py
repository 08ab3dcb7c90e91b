"""Unit tests for BATs and BAT views."""

import numpy as np
import pytest

from repro.errors import BATAlignmentError, BATTypeError, StorageError
from repro.storage.bat import BAT, BATView
from repro.storage.heap import AtomHeap


class TestConstruction:
    def test_from_values_void_head(self):
        bat = BAT.from_values("t", [5, 3, 9])
        assert len(bat) == 3
        assert bat.is_void_head
        assert np.array_equal(bat.head_array(), [0, 1, 2])

    def test_from_values_with_seq_base(self):
        bat = BAT.from_values("t", [1, 2], seq_base=100)
        assert np.array_equal(bat.head_array(), [100, 101])

    def test_from_pairs_materialised_head(self):
        bat = BAT.from_pairs("t", [7, 3], [10, 20])
        assert not bat.is_void_head
        assert np.array_equal(bat.head_array(), [7, 3])

    def test_from_pairs_misaligned_raises(self):
        with pytest.raises(BATAlignmentError):
            BAT.from_pairs("t", [1, 2, 3], [10, 20])

    def test_unknown_tail_type_raises(self):
        with pytest.raises(BATTypeError):
            BAT("t", tail_type="blob")

    def test_float_tail(self):
        bat = BAT.from_values("t", [1.5, -2.5], tail_type="float")
        assert bat.tail_array().dtype == np.float64

    def test_str_tail_uses_heap(self):
        bat = BAT.from_values("t", ["a", "b", "a"], tail_type="str")
        assert bat.tail_values() == ["a", "b", "a"]
        assert len(bat.heap) == 2  # deduplicated

    def test_shared_heap(self):
        heap = AtomHeap()
        bat1 = BAT.from_values("t1", ["x"], tail_type="str", heap=heap)
        bat2 = BAT.from_values("t2", ["x", "y"], tail_type="str", heap=heap)
        assert bat1.heap is bat2.heap
        assert len(heap) == 2

    def test_two_dimensional_values_raise(self):
        with pytest.raises(BATTypeError):
            BAT.from_values("t", np.zeros((2, 2)))


class TestAppendDelete:
    def test_append_returns_dense_oid(self):
        bat = BAT.from_values("t", [1, 2])
        assert bat.append(3) == 2
        assert len(bat) == 3

    def test_append_explicit_sparse_oid_materialises_head(self):
        bat = BAT.from_values("t", [1])
        bat.append(2, oid=42)
        assert not bat.is_void_head
        assert np.array_equal(bat.head_array(), [0, 42])

    def test_append_many(self):
        bat = BAT.from_values("t", [1])
        oids = bat.append_many([2, 3, 4])
        assert np.array_equal(oids, [1, 2, 3])
        assert len(bat) == 4

    def test_append_grows_capacity(self):
        bat = BAT("t")
        for value in range(100):
            bat.append(value)
        assert len(bat) == 100
        assert np.array_equal(bat.tail_array(), np.arange(100))

    def test_append_str(self):
        bat = BAT("t", tail_type="str")
        bat.append("hello")
        assert bat.tail_values() == ["hello"]

    def test_delete_at_removes_record(self):
        bat = BAT.from_values("t", [10, 20, 30])
        bat.delete_at(1)
        assert len(bat) == 2
        assert sorted(bat.tail_array().tolist()) == [10, 30]

    def test_delete_preserves_oid_pairing(self):
        bat = BAT.from_values("t", [10, 20, 30])
        bat.delete_at(0)
        pairs = set(zip(bat.head_array().tolist(), bat.tail_array().tolist()))
        assert pairs == {(1, 20), (2, 30)}

    def test_delete_out_of_range_raises(self):
        bat = BAT.from_values("t", [1])
        with pytest.raises(StorageError):
            bat.delete_at(5)

    def test_replace_tail(self):
        bat = BAT.from_values("t", [1, 2, 3])
        bat.replace_tail(np.array([9, 8, 7]))
        assert np.array_equal(bat.tail_array(), [9, 8, 7])

    def test_replace_tail_wrong_length_raises(self):
        bat = BAT.from_values("t", [1, 2, 3])
        with pytest.raises(StorageError):
            bat.replace_tail(np.array([1]))


class TestSelection:
    def test_select_range_inclusive_exclusive(self):
        bat = BAT.from_values("t", [5, 1, 3, 7, 3])
        positions = bat.select_range(3, 7)  # [3, 7)
        assert sorted(bat.tail_array()[positions].tolist()) == [3, 3, 5]

    def test_select_range_both_inclusive(self):
        bat = BAT.from_values("t", [5, 1, 3, 7, 3])
        positions = bat.select_range(3, 7, high_inclusive=True)
        assert sorted(bat.tail_array()[positions].tolist()) == [3, 3, 5, 7]

    def test_select_range_open_low(self):
        bat = BAT.from_values("t", [5, 1, 3])
        positions = bat.select_range(None, 4)
        assert sorted(bat.tail_array()[positions].tolist()) == [1, 3]

    def test_select_range_open_high(self):
        bat = BAT.from_values("t", [5, 1, 3])
        positions = bat.select_range(3, None)
        assert sorted(bat.tail_array()[positions].tolist()) == [3, 5]

    def test_select_equals(self):
        bat = BAT.from_values("t", [5, 1, 5])
        assert np.array_equal(bat.select_equals(5), [0, 2])

    def test_select_equals_str(self):
        bat = BAT.from_values("t", ["a", "b", "a"], tail_type="str")
        assert np.array_equal(bat.select_equals("a"), [0, 2])
        assert len(bat.select_equals("zz")) == 0

    def test_hash_lookup(self):
        bat = BAT.from_values("t", [4, 4, 2])
        assert sorted(bat.hash_lookup(4).tolist()) == [0, 1]
        assert len(bat.hash_lookup(99)) == 0

    def test_hash_lookup_invalidated_by_append(self):
        bat = BAT.from_values("t", [1])
        bat.hash_lookup(1)
        bat.append(1)
        assert sorted(bat.hash_lookup(1).tolist()) == [0, 1]


class TestOidMapping:
    def test_oids_at_void(self):
        bat = BAT.from_values("t", [9, 8, 7], seq_base=10)
        assert np.array_equal(bat.oids_at(np.array([0, 2])), [10, 12])

    def test_positions_of_oids_void(self):
        bat = BAT.from_values("t", [9, 8, 7], seq_base=10)
        assert np.array_equal(bat.positions_of_oids(np.array([12, 10])), [2, 0])

    def test_positions_of_oids_materialised(self):
        bat = BAT.from_pairs("t", [5, 9, 1], [10, 20, 30])
        assert np.array_equal(bat.positions_of_oids(np.array([9, 5])), [1, 0])

    def test_positions_of_unknown_oid_raises(self):
        bat = BAT.from_values("t", [1, 2])
        with pytest.raises(StorageError):
            bat.positions_of_oids(np.array([99]))


class TestSortMinMax:
    def test_sort_by_tail(self):
        bat = BAT.from_values("t", [3, 1, 2])
        bat.sort_by_tail()
        assert np.array_equal(bat.tail_array(), [1, 2, 3])
        assert bat.is_sorted

    def test_sort_carries_oids(self):
        bat = BAT.from_values("t", [3, 1, 2])
        bat.sort_by_tail()
        assert np.array_equal(bat.head_array(), [1, 2, 0])

    def test_min_max(self):
        bat = BAT.from_values("t", [3, 1, 2])
        assert bat.min_max() == (1, 3)

    def test_min_max_empty_raises(self):
        with pytest.raises(StorageError):
            BAT("t").min_max()

    def test_min_max_str(self):
        bat = BAT.from_values("t", ["m", "a", "z"], tail_type="str")
        assert bat.min_max() == ("a", "z")

    def test_iteration_yields_pairs(self):
        bat = BAT.from_values("t", [7, 8])
        assert list(bat) == [(0, 7), (1, 8)]


class TestViews:
    def test_view_is_zero_copy(self):
        bat = BAT.from_values("t", [1, 2, 3, 4])
        view = bat.view(1, 3)
        assert len(view) == 2
        bat.tail_array()[1] = 99
        assert view.tail_array()[0] == 99

    def test_view_bounds_checked(self):
        bat = BAT.from_values("t", [1, 2])
        with pytest.raises(StorageError):
            bat.view(0, 5)
        with pytest.raises(StorageError):
            bat.view(2, 1)

    def test_full_view(self):
        bat = BAT.from_values("t", [1, 2, 3])
        assert len(bat.full_view()) == 3

    def test_view_head_alignment(self):
        bat = BAT.from_values("t", [9, 8, 7], seq_base=5)
        view = bat.view(1, 3)
        assert np.array_equal(view.head_array(), [6, 7])

    def test_view_materialise_is_independent(self):
        bat = BAT.from_values("t", [1, 2, 3])
        copy = bat.view(0, 2).materialise()
        bat.tail_array()[0] = 42
        assert copy.tail_array()[0] == 1

    def test_view_min_max(self):
        bat = BAT.from_values("t", [5, 1, 9, 3])
        assert bat.view(1, 3).min_max() == (1, 9)

    def test_empty_view_min_max_raises(self):
        bat = BAT.from_values("t", [1])
        with pytest.raises(StorageError):
            bat.view(0, 0).min_max()

    def test_str_view_values(self):
        bat = BAT.from_values("t", ["a", "b", "c"], tail_type="str")
        assert bat.view(1, 3).tail_values() == ["b", "c"]

    def test_nbytes_accounts_head(self):
        void = BAT.from_values("t", [1, 2, 3])
        explicit = BAT.from_pairs("t2", [0, 1, 2], [1, 2, 3])
        assert explicit.nbytes == void.nbytes + 3 * 8


class TestDecodedArray:
    """The vectorized executor's batch accessor (late varchar decode)."""

    @pytest.fixture
    def tags(self):
        # Repetitive, with the empty string among the atoms.
        return ["x", "", "abc", "", "x", "abc", "abc", "", "x", "x"] * 20

    def _count_heap_gets(self, bat, monkeypatch) -> list[int]:
        calls: list[int] = []
        real_get = bat.heap.get

        def counting_get(offset):
            calls.append(offset)
            return real_get(offset)

        monkeypatch.setattr(bat.heap, "get", counting_get)
        return calls

    def test_str_decodes_each_distinct_atom_once(self, tags, monkeypatch):
        bat = BAT.from_values("t", tags, tail_type="str")
        calls = self._count_heap_gets(bat, monkeypatch)
        decoded = bat.decoded_array()
        assert decoded.dtype == object and decoded.tolist() == tags
        assert len(calls) == len(set(calls)) == 3  # 'x', '', 'abc'

    def test_str_positions_decode_only_the_atoms_they_hit(self, tags, monkeypatch):
        bat = BAT.from_values("t", tags, tail_type="str")
        calls = self._count_heap_gets(bat, monkeypatch)
        positions = np.array([1, 3, 7, 0, 4, 1], dtype=np.int64)
        decoded = bat.decoded_array(positions)
        assert decoded.tolist() == ["", "", "", "x", "x", ""]
        assert len(calls) == 2
        assert bat.decoded_array(positions[:0]).tolist() == []

    def test_str_matches_the_per_row_reference(self):
        rng = np.random.default_rng(17)
        atoms = ["", "a", "bb", "héllo ☃", "t0", "t1"]
        values = [atoms[i] for i in rng.integers(0, len(atoms), 500)]
        bat = BAT.from_values("t", values, tail_type="str")
        positions = rng.integers(0, 500, 200)
        assert bat.decoded_array(positions).tolist() == [
            bat.heap.get(int(offset)) for offset in bat.tail_array()[positions]
        ]

    def test_numeric_is_zero_copy_or_one_gather(self):
        bat = BAT.from_values("t", [5, 3, 9, 1])
        assert np.shares_memory(bat.decoded_array(), bat.tail_array())
        assert bat.decoded_array(np.array([3, 0])).tolist() == [1, 5]
