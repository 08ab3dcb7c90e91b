"""Variable-sized atom heap, after MonetDB's BAT heaps.

Fixed-width BUNs in a BAT cannot hold strings of arbitrary length.  MonetDB
stores such atoms in a side heap and keeps a fixed-width *offset* in the BUN
(Figure 7 of the paper: "Variable Sized Atom Heap").  :class:`AtomHeap`
reproduces that design: bytes are appended once, deduplicated, and addressed
by integer offsets, so the tail array of a string BAT is a plain int64
vector that the cracking kernels can shuffle like any other column.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HeapError

#: Below this many offsets a plain per-offset loop beats ``np.unique`` +
#: take (measured crossover 40-50 offsets over 64 atoms), so row
#: fetches stay on the loop.
_DISTINCT_CROSSOVER = 48


class AtomHeap:
    """Append-only deduplicating heap of variable-sized atoms (strings).

    Offsets returned by :meth:`put` are stable for the lifetime of the heap,
    which is exactly the property cracking needs: shuffling a string column
    moves 8-byte offsets, never the string bytes themselves.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._offsets_by_atom: dict[bytes, int] = {}
        self._lengths_by_offset: dict[int, int] = {}

    def __len__(self) -> int:
        """Number of distinct atoms stored."""
        return len(self._offsets_by_atom)

    @property
    def size_bytes(self) -> int:
        """Total bytes occupied by atom payloads."""
        return len(self._buffer)

    def put(self, atom: str) -> int:
        """Store ``atom`` (deduplicated) and return its heap offset."""
        if not isinstance(atom, str):
            raise HeapError(f"AtomHeap stores str atoms, got {type(atom).__name__}")
        encoded = atom.encode("utf-8")
        existing = self._offsets_by_atom.get(encoded)
        if existing is not None:
            return existing
        offset = len(self._buffer)
        # The empty atom still takes a byte: with nothing appended, the
        # next atom would be handed this same offset and shadow it.
        self._buffer.extend(encoded or b"\0")
        self._offsets_by_atom[encoded] = offset
        self._lengths_by_offset[offset] = len(encoded)
        return offset

    def get(self, offset: int) -> str:
        """Return the atom stored at ``offset``.

        Raises:
            HeapError: if ``offset`` does not address the start of an atom.
        """
        length = self._lengths_by_offset.get(offset)
        if length is None:
            raise HeapError(f"offset {offset} does not address an atom")
        return bytes(self._buffer[offset : offset + length]).decode("utf-8")

    def put_many(self, atoms) -> np.ndarray:
        """Store a sequence of atoms; returns their offsets as int64.

        One :meth:`put` per *distinct* atom, a dict lookup per row.
        """
        offsets = dict.fromkeys(atoms)
        for atom in offsets:
            offsets[atom] = self.put(atom)
        return np.fromiter(
            map(offsets.__getitem__, atoms), dtype=np.int64, count=len(atoms)
        )

    def get_many(self, offsets) -> list[str]:
        """Decode a sequence of offsets into their atoms."""
        if len(offsets) < _DISTINCT_CROSSOVER:
            return [self.get(int(offset)) for offset in offsets]
        return self.get_array(offsets).tolist()

    def get_array(self, offsets) -> np.ndarray:
        """Decode offsets into an object array: each *distinct* offset
        is decoded once and the atoms are spread with one take."""
        distinct, inverse = np.unique(offsets, return_inverse=True)
        atoms = [self.get(offset) for offset in distinct.tolist()]
        return np.array(atoms, dtype=object)[inverse]

    def contains_atom(self, atom: str) -> bool:
        """True if ``atom`` is already stored."""
        return atom.encode("utf-8") in self._offsets_by_atom

    def offset_of(self, atom: str) -> int | None:
        """Return the offset of ``atom`` if stored, else None."""
        return self._offsets_by_atom.get(atom.encode("utf-8"))

    def clear(self) -> None:
        """Drop all atoms.  Outstanding offsets become invalid."""
        self._buffer.clear()
        self._offsets_by_atom.clear()
        self._lengths_by_offset.clear()
