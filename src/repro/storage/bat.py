"""Binary Association Tables (BATs) — the storage substrate of MonetDB.

A BAT is a contiguous array of fixed-length (head, tail) records; the head
is a surrogate *oid* and the tail carries the attribute value (Figure 7 of
the paper).  Two MonetDB properties matter for cracking:

* **void heads** — when oids are dense (0, 1, 2, ...) the head is not
  materialised; the BAT stores only the tail vector plus a seq base.
* **contiguous answers** — "The MonetDB BATviews provide a cheap
  representation of the newly created table" (paper §3.4.2): a cracked
  range query's answer is one contiguous span of the cracker column
  (:class:`~repro.core.cracked_column.SelectionResult`), copied once.

Tails are numpy arrays of int64/float64, or int64 offsets into an
:class:`~repro.storage.heap.AtomHeap` for strings, so vectorised kernels
(selection, cracking, joins) apply uniformly to every type.
"""

from __future__ import annotations

from numbers import Real
from typing import Sequence

import numpy as np

from repro.errors import BATAlignmentError, BATTypeError, HeapError, StorageError
from repro.storage.heap import AtomHeap

#: Supported tail types and their numpy dtypes.
TAIL_DTYPES = {
    "int": np.int64,
    "float": np.float64,
    "str": np.int64,  # heap offsets
    "oid": np.int64,
}

_GROWTH_FACTOR = 2
_MIN_CAPACITY = 16


def _as_tail_array(values: Sequence, tail_type: str, heap: AtomHeap | None) -> np.ndarray:
    """Convert raw python/numpy values to a tail array of the right dtype."""
    if tail_type == "str":
        if heap is None:
            raise BATTypeError("str tails require an atom heap")
        return heap.put_many(values)
    dtype = TAIL_DTYPES[tail_type]
    array = np.asarray(values, dtype=dtype)
    if array.ndim != 1:
        raise BATTypeError(f"tail values must be one-dimensional, got shape {array.shape}")
    return array


def _ascending(tail: np.ndarray) -> bool:
    """True when ``tail`` never descends (one vectorised compare)."""
    return bool(np.all(tail[1:] >= tail[:-1]))


class BAT:
    """A Binary Association Table with a (possibly void) oid head.

    Args:
        name: identifier used in catalog entries and I/O accounting.
        tail_type: one of ``'int'``, ``'float'``, ``'str'``, ``'oid'``.
        capacity: initial BUN-heap capacity in records.
        heap: shared atom heap for ``'str'`` tails; created on demand.

    The active region of the BUN heap is ``[0, count)``; appends grow the
    tail array geometrically.  A BAT has no delete: a relation's deletes
    are tombstones (:meth:`~repro.storage.table.Relation.deleted_positions`).

    ``_sorted`` says a numeric tail ascends: derived at construction and
    load, kept by appends that continue the order, re-checked around the
    positions :meth:`set_many` writes; :meth:`window` binary-searches it.
    """

    def __init__(
        self,
        name: str,
        tail_type: str = "int",
        capacity: int = _MIN_CAPACITY,
        heap: AtomHeap | None = None,
    ) -> None:
        if tail_type not in TAIL_DTYPES:
            raise BATTypeError(f"unsupported tail type {tail_type!r}")
        self.name = name
        self.tail_type = tail_type
        self.heap = heap if heap is not None else (AtomHeap() if tail_type == "str" else None)
        capacity = max(capacity, _MIN_CAPACITY)
        self._tail = np.empty(capacity, dtype=TAIL_DTYPES[tail_type])
        self._head: np.ndarray | None = None  # None = void (dense) head
        self._seq_base = 0
        self._count = 0
        self._sorted = tail_type != "str"  # an empty tail is ascending

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_values(
        cls,
        name: str,
        values: Sequence,
        tail_type: str = "int",
        heap: AtomHeap | None = None,
        seq_base: int = 0,
    ) -> "BAT":
        """Build a void-headed BAT holding ``values`` with dense oids."""
        bat = cls(name, tail_type=tail_type, capacity=max(len(values), _MIN_CAPACITY), heap=heap)
        tail = _as_tail_array(values, tail_type, bat.heap)
        bat._tail[: len(tail)] = tail
        bat._count = len(tail)
        bat._seq_base = seq_base
        bat._sorted = tail_type != "str" and _ascending(tail)
        return bat

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._count

    @property
    def nbytes(self) -> int:
        """Bytes occupied by the active region (head + tail)."""
        record = self._tail.itemsize + (0 if self._head is None else 8)
        return self._count * record

    def _active_tail(self) -> np.ndarray:
        """Snapshot of the active tail region, safe against append races.

        The count is read *before* the array: appends publish a grown
        array first and bump the count last, so a count-first reader can
        only ever pair a count with an array that already holds that many
        initialized records (array-first could pair a stale, smaller
        array with the new count and slice into uninitialized capacity).
        """
        count = self._count
        return self._tail[:count]

    def head_array(self) -> np.ndarray:
        """The oids of the active region (materialising a void head)."""
        count = self._count
        if self._head is None:
            return np.arange(self._seq_base, self._seq_base + count, dtype=np.int64)
        return self._head[:count]

    def tail_array(self) -> np.ndarray:
        """The raw tail values of the active region (heap offsets for str).

        The returned array aliases BAT storage — mutating it mutates the
        BAT.  Cracking kernels rely on this to shuffle in place.
        """
        return self._active_tail()

    def tail_values(self) -> np.ndarray | list:
        """The decoded tail values (strings decoded through the heap)."""
        if self.tail_type == "str":
            return self.decoded_array()[0].tolist()
        return self._active_tail().copy()

    def decoded_array(
        self, positions: np.ndarray | slice | None = None
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        """Batch accessor: the decoded tail values as one numpy array,
        and a str tail's heap codes; returns ``(values, coded)``.

        Numeric tails return the active region (or a slice of it) *zero-copy*,
        or a single bulk gather at index ``positions``, and ``coded`` None.  Str
        tails gather each offset's atom id through the heap's offset
        table (:meth:`AtomHeap.codes`) and return ``(atoms[codes],
        (codes, atoms))``: an object array of the atoms, with the codes
        it was gathered from.  This is the access path of the vectorized
        executor — no per-row decoding anywhere.
        """
        active = self._active_tail()
        raw = active if positions is None else active[positions]
        if self.tail_type != "str":
            return raw, None
        assert self.heap is not None
        codes = self.heap.codes(raw)
        atoms = self.heap.atoms  # read after the codes: it holds every id
        return atoms[codes], (codes, atoms)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def append(self, value, oid: int | None = None) -> int:
        """Append one record; returns the oid assigned to it.

        Appending with an explicit non-dense ``oid`` materialises the head.
        """
        self._ensure_capacity(self._count + 1)
        if self.tail_type == "str":
            assert self.heap is not None
            self._tail[self._count] = self.heap.put(value)
        else:
            self._tail[self._count] = value
            if self._count and self._sorted:
                self._sorted = bool(self._tail[self._count] >= self._tail[self._count - 1])
        assigned = self._next_oid() if oid is None else oid
        if self._head is None and assigned != self._seq_base + self._count:
            self._materialise_head()
        if self._head is not None:
            if len(self._head) < self._count + 1:
                grown = np.empty(max(len(self._head) * _GROWTH_FACTOR, _MIN_CAPACITY), np.int64)
                grown[: self._count] = self._head[: self._count]
                self._head = grown
            self._head[self._count] = assigned
        self._count += 1
        return assigned

    def append_many(self, values: Sequence) -> np.ndarray:
        """Bulk append; returns the oids assigned (dense continuation)."""
        tail = _as_tail_array(values, self.tail_type, self.heap)
        self._ensure_capacity(self._count + len(tail))
        self._tail[self._count : self._count + len(tail)] = tail
        if self._sorted:  # the new values continue the order
            self._sorted = _ascending(
                self._tail[max(self._count - 1, 0) : self._count + len(tail)]
            )
        first = self._next_oid()
        oids = np.arange(first, first + len(tail), dtype=np.int64)
        if self._head is not None:
            self._head = np.concatenate([self._head[: self._count], oids])
        self._count += len(tail)
        return oids

    def set_many(self, positions: np.ndarray, values: Sequence) -> None:
        """Overwrite the tail at ascending ``positions`` with ``values``
        (UPDATE path: the DML matcher's positions).

        String values put new atoms into the heap; the old offsets stay
        valid (the heap is put-only), so a transaction pre-image of the
        tail alone is enough to roll an update back.
        """
        positions = np.asarray(positions, dtype=np.int64)
        tail = _as_tail_array(values, self.tail_type, self.heap)
        if len(positions) != len(tail):
            raise BATAlignmentError(
                f"set_many got {len(positions)} positions but {len(tail)} values"
            )
        if positions.size and (positions[0] < 0 or positions[-1] >= self._count):
            raise StorageError(
                f"set_many position out of range 0..{self._count - 1}"
            )
        self._tail[positions] = tail
        if self._sorted and positions.size:  # each write between its neighbours
            near = np.clip(positions + np.array([[-1], [0], [1]]), 0, self._count - 1)
            self._sorted = _ascending(self._tail[near])

    # ------------------------------------------------------------------ #
    # Query primitives
    # ------------------------------------------------------------------ #

    def sort_by_tail(self) -> np.ndarray:
        """Sort the BAT by tail value in place; returns the permutation.

        Sorting materialises the head (oids must travel with their values),
        mirroring MonetDB's order-preserving sort of [oid,value] BATs.
        """
        order = np.argsort(self._comparable_tail(), kind="stable")
        if self._head is None:
            self._materialise_head()
        assert self._head is not None
        self._tail[: self._count] = self._tail[: self._count][order]
        self._head[: self._count] = self._head[: self._count][order]
        self._sorted = self.tail_type != "str"
        return order

    def window(
        self, low, high, low_inclusive: bool, high_inclusive: bool
    ) -> tuple[int, int] | None:
        """The storage window ``[start, stop)`` holding exactly the tail
        values in the range, by two binary searches; None when the tail
        is not known ascending or a bound is not a number."""
        bounds = [bound for bound in (low, high) if bound is not None]
        if not self._sorted or not all(isinstance(bound, Real) for bound in bounds):
            return None
        tail = self._active_tail()
        start, stop = 0, len(tail)
        if low is not None:
            start = tail.searchsorted(low, "left" if low_inclusive else "right")
        if high is not None:
            stop = tail.searchsorted(high, "right" if high_inclusive else "left")
        return int(start), int(max(start, stop))

    def check_invariants(self) -> None:
        """Raise :class:`StorageError` if the order flag claims an order the tail lacks."""
        if self._sorted and not _ascending(self._active_tail()):
            raise StorageError(f"BAT {self.name!r} is flagged ascending but is not")

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """A serialisable snapshot of the active region (private copies).

        Tails export raw storage; string tails are heap offsets, so a
        string BAT also exports ``atoms``, its heap's bytes and atom
        lengths in offset order (:meth:`AtomHeap.export_atoms`).
        """
        head = self._head
        state = {
            "name": self.name,
            "tail_type": self.tail_type,
            "tail": self._active_tail().copy(),
            "head": None if head is None else head[: self._count].copy(),
            "seq_base": int(self._seq_base),
            "sorted": bool(self._sorted),
        }
        if self.tail_type == "str":
            assert self.heap is not None
            state["atoms"] = self.heap.export_atoms()
        return state

    @classmethod
    def from_state(cls, state: dict) -> "BAT":
        """Rebuild a BAT from :meth:`export_state` output.

        A string tail's atoms are re-put in offset order, which gives
        each its exported offset, and every tail offset must address one
        of them (:meth:`AtomHeap.codes` checks).  A string state without
        ``atoms`` is the older form: its tail holds the decoded atoms,
        which are put row by row.

        The tail and head arrays become the BAT's storage as they are: a
        caller that goes on using them passes copies (``export_state``'s).
        """
        tail_type = str(state["tail_type"])
        tail = state["tail"]
        heap = None
        if tail_type == "str":
            if "atoms" in state:
                heap = AtomHeap.from_atoms(*state["atoms"])
                tail = np.asarray(tail, dtype=np.int64)
                try:
                    heap.codes(tail)
                except HeapError:
                    raise StorageError(
                        f"BAT {state['name']!r}: a tail offset addresses no atom"
                    ) from None
            else:
                heap = AtomHeap()
                tail = heap.put_many(np.asarray(tail, dtype=str).tolist())
        bat = cls(str(state["name"]), tail_type=tail_type, capacity=0, heap=heap)
        bat._tail = np.asarray(tail, dtype=TAIL_DTYPES[tail_type])
        bat._count = len(tail)
        bat._seq_base = int(state.get("seq_base", 0))
        head = state.get("head")
        if head is not None:
            bat._head = np.asarray(head, dtype=np.int64)
        # Derived: the state's "sorted" is not trusted.
        bat._sorted = tail_type != "str" and _ascending(bat._active_tail())
        return bat

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _comparable_tail(self) -> np.ndarray:
        """Tail values in a domain where numpy comparisons are meaningful."""
        if self.tail_type == "str":
            # Decode and re-rank: comparisons on heap offsets would reflect
            # insertion order, not collation.  Ranking is O(n log n) but
            # string range predicates are rare in the benchmark.
            decoded = np.asarray(self.tail_values(), dtype=object)
            return decoded
        return self._tail[: self._count]

    def _next_oid(self) -> int:
        if self._head is None:
            return self._seq_base + self._count
        if self._count == 0:
            return 0
        return int(self._head[: self._count].max()) + 1

    def _materialise_head(self) -> None:
        self._head = np.arange(
            self._seq_base, self._seq_base + max(self._count, _MIN_CAPACITY), dtype=np.int64
        )

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= len(self._tail):
            return
        new_capacity = max(needed, len(self._tail) * _GROWTH_FACTOR)
        grown = np.empty(new_capacity, dtype=self._tail.dtype)
        grown[: self._count] = self._tail[: self._count]
        self._tail = grown
