"""Variable-sized atom heap, after MonetDB's BAT heaps.

Fixed-width BUNs in a BAT cannot hold strings of arbitrary length.  MonetDB
stores such atoms in a side heap and keeps a fixed-width *offset* in the BUN
(Figure 7 of the paper: "Variable Sized Atom Heap").  :class:`AtomHeap`
reproduces that design: bytes are appended once, deduplicated, and addressed
by integer offsets, so the tail array of a string BAT is a plain int64
vector that the cracking kernels can shuffle like any other column.
"""

from __future__ import annotations

from repro.errors import HeapError


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

    def get_many(self, offsets) -> list[str]:
        """Decode a sequence of offsets into their atoms."""
        return [self.get(int(offset)) for offset in offsets]

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
