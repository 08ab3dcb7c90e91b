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


class AtomHeap:
    """Append-only deduplicating heap of variable-sized atoms (strings).

    Offsets returned by :meth:`put` are stable for the lifetime of the heap,
    which is exactly the property cracking needs: shuffling a string column
    moves 8-byte offsets, never the string bytes themselves.

    Atoms are also numbered in put order, and each is kept as a ``str``.
    An int32 table indexed by heap offset holds the atom's id where an
    atom starts and -1 everywhere else (4 bytes per heap byte, before
    growth slack), so :meth:`codes` turns offsets into ids with one
    gather, and ``atoms[codes]`` equals the offsets' decoded values
    (:attr:`atoms`).  Ids are as stable as offsets.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._offsets_by_atom: dict[str, int] = {}
        self._list: list[str] = []  # atom id -> atom
        self._ids = np.empty(0, dtype=np.int32)
        self._id_slots = memoryview(self._ids)  # cheap scalar writes
        self._store = self._atoms = np.empty(0, dtype=object)

    @property
    def atoms(self) -> np.ndarray:
        """``atoms[id]`` is atom ``id``, as an object array.  A put that
        adds an atom replaces this array and never writes through it, so
        a holder's array stays as it was."""
        count, atoms = len(self._list), self._atoms
        if len(atoms) != count:
            store = self._store
            if count > len(store):
                store = np.empty(2 * count, dtype=object)
                store[: len(atoms)] = atoms
            # One bulk copy into the slots past this array; a racing
            # reader may copy the same atoms into them too.
            store[len(atoms) : count] = self._list[len(atoms) : count]
            self._store, self._atoms = store, store[:count]
            atoms = self._atoms
        return atoms

    def put(self, atom: str) -> int:
        """Store ``atom`` (deduplicated) and return its heap offset."""
        if not isinstance(atom, str):
            raise HeapError(f"AtomHeap stores str atoms, got {type(atom).__name__}")
        existing = self._offsets_by_atom.get(atom)
        if existing is not None:
            return existing
        if type(atom) is not str:  # np.str_ and kin decode as plain str
            atom = str(atom)
        encoded = atom.encode("utf-8")
        offset = len(self._buffer)
        # The empty atom still takes a byte: with nothing appended, the
        # next atom would be handed this same offset and shadow it.
        self._buffer.extend(encoded or b"\0")
        if len(self._buffer) > len(self._ids):
            grown = np.full(2 * len(self._buffer), -1, dtype=np.int32)
            grown[: len(self._ids)] = self._ids
            self._ids, self._id_slots = grown, memoryview(grown)
        # The atom is listed before its id lands and the offset is handed
        # out: a reader that gathered an id finds its atom.
        self._list.append(atom)
        self._id_slots[offset] = len(self._list) - 1
        self._offsets_by_atom[atom] = offset
        return offset

    def codes(self, offsets) -> np.ndarray:
        """The atom ids (int32) of ``offsets``: one gather through the
        offset table.

        Raises:
            HeapError: if an offset does not address the start of an atom.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        ids = self._ids
        if not offsets.size:
            return np.empty(0, dtype=np.int32)
        if offsets.min() < 0 or offsets.max() >= len(ids):
            raise HeapError("an offset lies outside the heap")
        codes = ids[offsets]
        if codes.min() < 0:
            raise HeapError("an offset does not address an atom")
        return codes

    def put_many(self, atoms) -> np.ndarray:
        """Store a sequence of atoms; returns their offsets as int64.

        One dict lookup per row when every atom is stored already (an
        INSERT's tags, as a rule), else one :meth:`put` per *distinct*
        atom.
        """
        known = list(map(self._offsets_by_atom.get, atoms))
        if None not in known:
            return np.array(known, dtype=np.int64)
        offsets = dict.fromkeys(atoms)
        for atom in offsets:
            offsets[atom] = self.put(atom)
        return np.fromiter(
            map(offsets.__getitem__, atoms), dtype=np.int64, count=len(atoms)
        )

    def export_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The atoms in offset order, as a private copy: the heap's bytes
        (uint8) and each atom's encoded length (int64).

        :meth:`from_atoms` re-puts them, which hands every atom the
        offset it has here, so tails can be saved as raw offsets.
        """
        data = np.frombuffer(bytes(self._buffer), dtype=np.uint8)
        starts = np.flatnonzero(self._ids[: len(data)] >= 0)
        lengths = np.diff(starts, append=len(data)).astype(np.int64)
        empty = self._offsets_by_atom.get("")
        if empty is not None:  # its one placeholder byte holds no atom
            lengths[self._ids[empty]] = 0
        return data, lengths

    @classmethod
    def from_atoms(cls, data: np.ndarray, lengths: np.ndarray) -> "AtomHeap":
        """Rebuild an :meth:`export_atoms` heap.

        Raises:
            HeapError: if an atom is not UTF-8, re-puts at another offset
                than it had, or the lengths do not cover the bytes.
        """
        heap = cls()
        data = np.asarray(data, dtype=np.uint8).tobytes()
        offset = 0
        for length in np.asarray(lengths).tolist():
            try:
                atom = data[offset : offset + length].decode("utf-8")
            except UnicodeDecodeError:
                raise HeapError(f"atom at offset {offset} is not UTF-8") from None
            if heap.put(atom) != offset:
                raise HeapError(f"atom at offset {offset} re-puts elsewhere")
            offset += length or 1
        if offset != len(data):
            raise HeapError(f"atom lengths cover {offset} of {len(data)} heap bytes")
        return heap
