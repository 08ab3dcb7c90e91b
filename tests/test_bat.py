"""Unit tests for BATs."""

import numpy as np
import pytest

from repro.errors import BATTypeError
from repro.storage.bat import BAT
from repro.storage.heap import AtomHeap


class TestConstruction:
    def test_from_values_void_head(self):
        bat = BAT.from_values("t", [5, 3, 9])
        assert len(bat) == 3
        assert np.array_equal(bat.head_array(), [0, 1, 2])

    def test_from_values_with_seq_base(self):
        bat = BAT.from_values("t", [1, 2], seq_base=100)
        assert np.array_equal(bat.head_array(), [100, 101])

    def test_unknown_tail_type_raises(self):
        with pytest.raises(BATTypeError):
            BAT("t", tail_type="blob")

    def test_float_tail(self):
        bat = BAT.from_values("t", [1.5, -2.5], tail_type="float")
        assert bat.tail_array().dtype == np.float64

    def test_str_tail_uses_heap(self):
        bat = BAT.from_values("t", ["a", "b", "a"], tail_type="str")
        assert bat.tail_values() == ["a", "b", "a"]
        assert len(bat.heap.export_atoms()[1]) == 2  # deduplicated

    def test_shared_heap(self):
        heap = AtomHeap()
        bat1 = BAT.from_values("t1", ["x"], tail_type="str", heap=heap)
        bat2 = BAT.from_values("t2", ["x", "y"], tail_type="str", heap=heap)
        assert bat1.heap is bat2.heap
        assert len(heap.export_atoms()[1]) == 2

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


class TestSortMinMax:
    def test_sort_by_tail(self):
        bat = BAT.from_values("t", [3, 1, 2])
        bat.sort_by_tail()
        assert np.array_equal(bat.tail_array(), [1, 2, 3])

    def test_sort_carries_oids(self):
        bat = BAT.from_values("t", [3, 1, 2])
        bat.sort_by_tail()
        assert np.array_equal(bat.head_array(), [1, 2, 0])

class TestFootprint:
    def test_nbytes_accounts_head(self):
        void = BAT.from_values("t", [1, 2, 3])
        explicit = BAT.from_values("t2", [1, 2, 3])
        explicit.sort_by_tail()  # materialises the head
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
