"""Unit tests for the variable-sized atom heap."""

import numpy as np
import pytest

from repro.errors import HeapError
from repro.storage.heap import AtomHeap


def decode(heap: AtomHeap, offsets) -> list[str]:
    """The shipped decode: one gather through the offset table."""
    return heap.atoms[heap.codes(offsets)].tolist()


def decode_by_hand(heap: AtomHeap, offsets) -> list[str]:
    """The reference decode: each atom cut out of the exported bytes by
    its length.  Shares nothing with the heap's offset table."""
    data, lengths = heap.export_atoms()
    atoms, start = {}, 0
    for length in lengths.tolist():
        atoms[start] = data[start : start + length].tobytes().decode("utf-8")
        start += length or 1
    return [atoms[int(offset)] for offset in offsets]


class TestPutGet:
    def test_roundtrip_single_atom(self):
        heap = AtomHeap()
        offset = heap.put("hello")
        assert decode(heap, [offset]) == ["hello"] == decode_by_hand(heap, [offset])

    def test_roundtrip_many_atoms(self):
        heap = AtomHeap()
        atoms = [f"atom-{i}" for i in range(100)]
        offsets = [heap.put(atom) for atom in atoms]
        assert decode(heap, offsets) == atoms == decode_by_hand(heap, offsets)

    def test_empty_string_is_storable(self):
        heap = AtomHeap()
        offset = heap.put("")
        assert decode(heap, [offset]) == [""] == decode_by_hand(heap, [offset])

    def test_empty_string_keeps_its_own_offset(self):
        # Regression: a zero-length atom appended no bytes, so the next
        # atom was handed the same offset and every '' decoded as it.
        heap = AtomHeap()
        offsets = [heap.put(atom) for atom in ("x", "", "abc", "")]
        assert len(set(offsets)) == 3 and offsets[1] == offsets[3]
        assert decode(heap, offsets) == ["x", "", "abc", ""]

    def test_unicode_atoms(self):
        heap = AtomHeap()
        offset = heap.put("héllo wörld ☃")
        assert decode(heap, [offset]) == ["héllo wörld ☃"]

    def test_get_at_non_atom_offset_raises(self):
        heap = AtomHeap()
        heap.put("abcdef")
        with pytest.raises(HeapError):
            decode(heap, [3])

    def test_get_beyond_buffer_raises(self):
        heap = AtomHeap()
        heap.put("x")
        with pytest.raises(HeapError):
            decode(heap, [999])

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
        size = len(heap.export_atoms()[0])
        heap.put("payload")
        assert len(heap.export_atoms()[0]) == size

    def test_len_counts_distinct_atoms(self):
        heap = AtomHeap()
        heap.put("a")
        heap.put("b")
        heap.put("a")
        assert len(heap.export_atoms()[1]) == 2


class TestLookupHelpers:
    def test_codes_gather_decodes_in_order(self):
        heap = AtomHeap()
        offsets = [heap.put(s) for s in ["x", "y", "z"]]
        assert decode(heap, offsets) == ["x", "y", "z"]

class TestBulkPaths:
    """``put_many`` works per distinct atom and ``codes`` per gather;
    the per-row ``put`` loop and :func:`decode_by_hand` are the
    references."""

    ATOMS = ["", "a", "héllo", "a", "tag07", "", "tag07", "z" * 40]

    @pytest.mark.parametrize("repeat", [1, 96])
    def test_put_many_equals_the_put_loop(self, repeat):
        atoms = self.ATOMS * repeat
        bulk, loop = AtomHeap(), AtomHeap()
        offsets = bulk.put_many(atoms)
        assert offsets.dtype == np.int64
        assert offsets.tolist() == [loop.put(atom) for atom in atoms]
        distinct = len(set(self.ATOMS))
        assert len(bulk.export_atoms()[1]) == len(loop.export_atoms()[1]) == distinct

    @pytest.mark.parametrize("repeat", [1, 96])
    def test_codes_gather_equals_the_reference_decode(self, repeat):
        heap = AtomHeap()
        offsets = heap.put_many(self.ATOMS * repeat)
        expected = decode_by_hand(heap, offsets)
        assert decode(heap, offsets) == expected == self.ATOMS * repeat
        codes = heap.codes(offsets)
        assert codes.dtype == np.int32 and heap.atoms.dtype == object

    def test_empty_inputs(self):
        heap = AtomHeap()
        assert heap.put_many([]).tolist() == []
        assert decode(heap, np.empty(0, dtype=np.int64)) == []
        assert heap.atoms[heap.codes(np.empty(0, dtype=np.int64))].shape == (0,)

    def test_bad_inputs_raise_on_the_bulk_paths_too(self):
        heap = AtomHeap()
        with pytest.raises(HeapError):
            heap.put_many(["ok", 42])
        offsets = heap.put_many(["abcdef"] * 96)
        with pytest.raises(HeapError):
            decode(heap, offsets + 3)  # inside the atom, not its start

    @pytest.mark.parametrize(
        "offset", [-1, -7, 3, 7, 10**6], ids=["-1", "-7", "inside", "end", "past"]
    )
    def test_codes_reject_an_offset_that_addresses_no_atom(self, offset):
        heap = AtomHeap()
        offsets = heap.put_many(["abcdef", "x"])  # atoms at 0 and 6; 7 bytes
        assert heap.codes(offsets).tolist() == [0, 1]
        with pytest.raises(HeapError):
            heap.codes(np.append(offsets, offset))
        with pytest.raises(HeapError):
            decode(heap, [offset])
