"""Unit tests for the variable-sized atom heap."""

import numpy as np
import pytest

from repro.errors import HeapError
from repro.storage.heap import _DISTINCT_CROSSOVER, AtomHeap


class TestPutGet:
    def test_roundtrip_single_atom(self):
        heap = AtomHeap()
        offset = heap.put("hello")
        assert heap.get(offset) == "hello"

    def test_roundtrip_many_atoms(self):
        heap = AtomHeap()
        atoms = [f"atom-{i}" for i in range(100)]
        offsets = [heap.put(atom) for atom in atoms]
        assert [heap.get(offset) for offset in offsets] == atoms

    def test_empty_string_is_storable(self):
        heap = AtomHeap()
        offset = heap.put("")
        assert heap.get(offset) == ""

    def test_empty_string_keeps_its_own_offset(self):
        # Regression: a zero-length atom appended no bytes, so the next
        # atom was handed the same offset and every '' decoded as it.
        heap = AtomHeap()
        offsets = [heap.put(atom) for atom in ("x", "", "abc", "")]
        assert len(set(offsets)) == 3 and offsets[1] == offsets[3]
        assert heap.get_many(offsets) == ["x", "", "abc", ""]

    def test_unicode_atoms(self):
        heap = AtomHeap()
        offset = heap.put("héllo wörld ☃")
        assert heap.get(offset) == "héllo wörld ☃"

    def test_get_at_non_atom_offset_raises(self):
        heap = AtomHeap()
        heap.put("abcdef")
        with pytest.raises(HeapError):
            heap.get(3)

    def test_get_beyond_buffer_raises(self):
        heap = AtomHeap()
        heap.put("x")
        with pytest.raises(HeapError):
            heap.get(999)

    def test_put_non_string_raises(self):
        heap = AtomHeap()
        with pytest.raises(HeapError):
            heap.put(42)


class TestDeduplication:
    def test_duplicate_put_returns_same_offset(self):
        heap = AtomHeap()
        first = heap.put("dup")
        second = heap.put("dup")
        assert first == second

    def test_duplicates_do_not_grow_buffer(self):
        heap = AtomHeap()
        heap.put("payload")
        size = heap.size_bytes
        heap.put("payload")
        assert heap.size_bytes == size

    def test_len_counts_distinct_atoms(self):
        heap = AtomHeap()
        heap.put("a")
        heap.put("b")
        heap.put("a")
        assert len(heap) == 2


class TestLookupHelpers:
    def test_contains_atom(self):
        heap = AtomHeap()
        heap.put("present")
        assert heap.contains_atom("present")
        assert not heap.contains_atom("absent")

    def test_offset_of_known_atom(self):
        heap = AtomHeap()
        offset = heap.put("findme")
        assert heap.offset_of("findme") == offset

    def test_offset_of_unknown_atom_is_none(self):
        heap = AtomHeap()
        assert heap.offset_of("nothing") is None

    def test_get_many_decodes_in_order(self):
        heap = AtomHeap()
        offsets = [heap.put(s) for s in ["x", "y", "z"]]
        assert heap.get_many(offsets) == ["x", "y", "z"]

    def test_clear_invalidates_offsets(self):
        heap = AtomHeap()
        offset = heap.put("gone")
        heap.clear()
        assert len(heap) == 0
        with pytest.raises(HeapError):
            heap.get(offset)


class TestBulkPaths:
    """``put_many`` / ``get_many`` / ``get_array`` work per distinct
    atom; the per-row ``put`` / ``get`` loop is the reference."""

    ATOMS = ["", "a", "héllo", "a", "tag07", "", "tag07", "z" * 40]

    @pytest.mark.parametrize("repeat", [1, 2 * _DISTINCT_CROSSOVER])
    def test_put_many_equals_the_put_loop(self, repeat):
        atoms = self.ATOMS * repeat
        bulk, loop = AtomHeap(), AtomHeap()
        offsets = bulk.put_many(atoms)
        assert offsets.dtype == np.int64
        assert offsets.tolist() == [loop.put(atom) for atom in atoms]
        assert len(bulk) == len(loop) == len(set(self.ATOMS))

    @pytest.mark.parametrize("repeat", [1, 2 * _DISTINCT_CROSSOVER])
    def test_get_many_and_get_array_equal_the_get_loop(self, repeat):
        heap = AtomHeap()
        offsets = heap.put_many(self.ATOMS * repeat)
        expected = [heap.get(int(offset)) for offset in offsets]
        assert heap.get_many(offsets) == expected == self.ATOMS * repeat
        array = heap.get_array(offsets)
        assert array.dtype == object and array.tolist() == expected

    def test_empty_inputs(self):
        heap = AtomHeap()
        assert heap.put_many([]).tolist() == []
        assert heap.get_many(np.empty(0, dtype=np.int64)) == []
        assert heap.get_array(np.empty(0, dtype=np.int64)).shape == (0,)

    def test_bad_inputs_raise_on_the_bulk_paths_too(self):
        heap = AtomHeap()
        with pytest.raises(HeapError):
            heap.put_many(["ok", 42])
        offsets = heap.put_many(["abcdef"] * (2 * _DISTINCT_CROSSOVER))
        with pytest.raises(HeapError):
            heap.get_many(offsets + 3)  # inside the atom, not its start
