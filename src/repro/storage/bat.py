"""Binary Association Tables (BATs) — the storage substrate of MonetDB.

A BAT is a contiguous array of fixed-length (head, tail) records; the head
is a surrogate *oid* and the tail carries the attribute value (Figure 7 of
the paper).  Two MonetDB properties matter for cracking and are reproduced
faithfully here:

* **void heads** — when oids are dense (0, 1, 2, ...) the head is not
  materialised; the BAT stores only the tail vector plus a seq base.
* **BAT views** — a view is a zero-copy window ``[first, last)`` over
  another BAT's storage area.  "The MonetDB BATviews provide a cheap
  representation of the newly created table" (paper §3.4.2): cracking
  answers range queries by returning a view over the cracked column.

Tails are numpy arrays of int64/float64, or int64 offsets into an
:class:`~repro.storage.heap.AtomHeap` for strings, so vectorised kernels
(selection, cracking, joins) apply uniformly to every type.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import BATAlignmentError, BATTypeError, StorageError
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


class BAT:
    """A Binary Association Table with a (possibly void) oid head.

    Args:
        name: identifier used in catalog entries and I/O accounting.
        tail_type: one of ``'int'``, ``'float'``, ``'str'``, ``'oid'``.
        capacity: initial BUN-heap capacity in records.
        heap: shared atom heap for ``'str'`` tails; created on demand.

    The active region of the BUN heap is ``[0, count)``; appends grow the
    tail array geometrically.  Deletions follow MonetDB's pre-commit
    protocol: the deleted record is swapped to the front and the active
    window shrinks, so committed storage stays contiguous.
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
        self._deleted = 0
        self._hash_index: dict | None = None
        self._sorted = False

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
        return bat

    @classmethod
    def from_pairs(
        cls,
        name: str,
        head: Sequence[int],
        values: Sequence,
        tail_type: str = "int",
        heap: AtomHeap | None = None,
    ) -> "BAT":
        """Build a BAT with an explicit (materialised) head."""
        if len(head) != len(values):
            raise BATAlignmentError(
                f"head has {len(head)} oids but tail has {len(values)} values"
            )
        bat = cls(name, tail_type=tail_type, capacity=max(len(values), _MIN_CAPACITY), heap=heap)
        tail = _as_tail_array(values, tail_type, bat.heap)
        bat._tail[: len(tail)] = tail
        bat._head = np.asarray(head, dtype=np.int64).copy()
        bat._count = len(tail)
        return bat

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        head = "void" if self._head is None else "oid"
        return f"BAT({self.name!r}, [{head},{self.tail_type}], count={self._count})"

    @property
    def is_void_head(self) -> bool:
        """True when the head is dense and not materialised."""
        return self._head is None

    @property
    def seq_base(self) -> int:
        """First oid of a void head."""
        return self._seq_base

    @property
    def is_sorted(self) -> bool:
        """True if the tail is known to be sorted ascending."""
        return self._sorted

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
            assert self.heap is not None
            return self.heap.get_many(self._active_tail())
        return self._active_tail().copy()

    def decoded_array(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Batch accessor: decoded tail values as one numpy array.

        Numeric tails return the active region *zero-copy* (or a single
        bulk gather when ``positions`` is given); str tails decode each
        *distinct* heap offset once and spread the atoms with one take,
        into an object array.  This is the access path of the vectorized
        executor — no per-row decoding anywhere.
        """
        active = self._active_tail()
        if self.tail_type == "str":
            assert self.heap is not None
            raw = active if positions is None else active[positions]
            return self.heap.get_array(raw)
        return active if positions is None else active[positions]

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def append(self, value, oid: int | None = None) -> int:
        """Append one record; returns the oid assigned to it.

        Appending with an explicit non-dense ``oid`` materialises the head.
        Appends invalidate accelerators.
        """
        self._ensure_capacity(self._count + 1)
        if self.tail_type == "str":
            assert self.heap is not None
            self._tail[self._count] = self.heap.put(value)
        else:
            self._tail[self._count] = value
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
        self._invalidate_accelerators()
        return assigned

    def append_many(self, values: Sequence) -> np.ndarray:
        """Bulk append; returns the oids assigned (dense continuation)."""
        tail = _as_tail_array(values, self.tail_type, self.heap)
        self._ensure_capacity(self._count + len(tail))
        self._tail[self._count : self._count + len(tail)] = tail
        first = self._next_oid()
        oids = np.arange(first, first + len(tail), dtype=np.int64)
        if self._head is not None:
            self._head = np.concatenate([self._head[: self._count], oids])
        self._count += len(tail)
        self._invalidate_accelerators()
        return oids

    def delete_at(self, position: int) -> None:
        """Delete the record at ``position`` (0-based within active region).

        MonetDB moves deleted elements to the front until commit; we swap
        with the first active record and shrink from the front by rotating
        — the visible effect is the record disappears and order of the
        remaining records is preserved except for the swapped pair.
        """
        if not 0 <= position < self._count:
            raise StorageError(f"delete position {position} out of range 0..{self._count - 1}")
        if self._head is None:
            self._materialise_head()
        assert self._head is not None
        self._tail[position] = self._tail[self._deleted]
        self._head[position] = self._head[self._deleted]
        self._deleted += 1
        # Compact: drop the front slot by shifting the window.
        self._tail[: self._count - 1] = self._tail[1 : self._count]
        self._head[: self._count - 1] = self._head[1 : self._count]
        self._deleted -= 1
        self._count -= 1
        self._invalidate_accelerators()

    def set_many(self, positions: np.ndarray, values: Sequence) -> None:
        """Overwrite the tail at ``positions`` with ``values`` (UPDATE path).

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
        if positions.size and (positions.min() < 0 or positions.max() >= self._count):
            raise StorageError(
                f"set_many position out of range 0..{self._count - 1}"
            )
        self._tail[positions] = tail
        self._invalidate_accelerators()

    def replace_tail(self, new_tail: np.ndarray) -> None:
        """Overwrite the active tail region (used by sort and cracking)."""
        if len(new_tail) != self._count:
            raise StorageError(
                f"replacement tail has {len(new_tail)} values, BAT holds {self._count}"
            )
        self._tail[: self._count] = new_tail
        self._invalidate_accelerators()

    # ------------------------------------------------------------------ #
    # Query primitives
    # ------------------------------------------------------------------ #

    def select_range(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> np.ndarray:
        """Return the *positions* whose tail value is inside the range.

        ``None`` bounds are open.  On string BATs the comparison applies to
        the decoded atoms, so positions come back in storage order.
        """
        values = self._comparable_tail()
        mask = np.ones(self._count, dtype=bool)
        if low is not None:
            low_key = self._comparable_constant(low)
            mask &= (values >= low_key) if low_inclusive else (values > low_key)
        if high is not None:
            high_key = self._comparable_constant(high)
            mask &= (values <= high_key) if high_inclusive else (values < high_key)
        return np.flatnonzero(mask)

    def select_equals(self, value) -> np.ndarray:
        """Return the positions whose tail equals ``value`` (hash-assisted)."""
        if self.tail_type == "str":
            assert self.heap is not None
            offset = self.heap.offset_of(value)
            if offset is None:
                return np.empty(0, dtype=np.int64)
            return np.flatnonzero(self._tail[: self._count] == offset)
        return np.flatnonzero(self._tail[: self._count] == value)

    def oids_at(self, positions: np.ndarray) -> np.ndarray:
        """Map storage positions to oids."""
        if self._head is None:
            return np.asarray(positions, dtype=np.int64) + self._seq_base
        return self._head[: self._count][positions]

    def positions_of_oids(self, oids: np.ndarray) -> np.ndarray:
        """Map oids to storage positions (inverse of :meth:`oids_at`)."""
        oids = np.asarray(oids, dtype=np.int64)
        if self._head is None:
            positions = oids - self._seq_base
            if positions.size and (positions.min() < 0 or positions.max() >= self._count):
                raise StorageError("oid out of range for void-headed BAT")
            return positions
        order = np.argsort(self._head[: self._count], kind="stable")
        sorted_heads = self._head[: self._count][order]
        located = np.searchsorted(sorted_heads, oids)
        if located.size and (
            located.max() >= self._count or not np.array_equal(sorted_heads[located], oids)
        ):
            raise StorageError("oid not present in BAT head")
        return order[located]

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
        self._invalidate_accelerators()
        self._sorted = self.tail_type != "str"
        return order

    def min_max(self) -> tuple:
        """(min, max) of the decoded tail; raises on an empty BAT."""
        if self._count == 0:
            raise StorageError(f"BAT {self.name!r} is empty; min/max undefined")
        if self.tail_type == "str":
            decoded = self.tail_values()
            return min(decoded), max(decoded)
        active = self._tail[: self._count]
        return active.min(), active.max()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """A serialisable snapshot of the active region.

        Numeric tails export raw storage; string tails export *decoded*
        atoms (a numpy unicode array) — the atom heap is rebuilt on
        restore by re-putting the values, which reproduces an equivalent
        offset assignment without persisting heap internals.
        """
        if self.tail_type == "str":
            decoded = self.tail_values()
            tail = np.asarray(decoded, dtype="<U1" if not decoded else None)
        else:
            tail = self._active_tail().copy()
        head = self._head
        return {
            "name": self.name,
            "tail_type": self.tail_type,
            "tail": tail,
            "head": None if head is None else head[: self._count].copy(),
            "seq_base": int(self._seq_base),
            "sorted": bool(self._sorted),
        }

    @classmethod
    def from_state(cls, state: dict) -> "BAT":
        """Rebuild a BAT from :meth:`export_state` output."""
        tail_type = str(state["tail_type"])
        tail = state["tail"]
        values = np.asarray(tail, dtype=str).tolist() if tail_type == "str" else tail
        bat = cls.from_values(
            str(state["name"]),
            values,
            tail_type=tail_type,
            seq_base=int(state.get("seq_base", 0)),
        )
        head = state.get("head")
        if head is not None:
            bat._head = np.asarray(head, dtype=np.int64).copy()
        bat._sorted = bool(state.get("sorted", False)) and tail_type != "str"
        return bat

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def view(self, first: int, last: int, name: str | None = None) -> "BATView":
        """A zero-copy view over positions ``[first, last)``."""
        return BATView(self, first, last, name=name)

    def full_view(self, name: str | None = None) -> "BATView":
        """A view covering the whole active region."""
        return BATView(self, 0, self._count, name=name)

    # ------------------------------------------------------------------ #
    # Accelerators (delegated to storage.accelerators, cached here)
    # ------------------------------------------------------------------ #

    def hash_lookup(self, value) -> np.ndarray:
        """Positions with tail == value, via a lazily built hash table."""
        if self._hash_index is None:
            self._build_hash_index()
        assert self._hash_index is not None
        key = self._comparable_constant(value) if self.tail_type == "str" else value
        positions = self._hash_index.get(key)
        if positions is None:
            return np.empty(0, dtype=np.int64)
        return np.asarray(positions, dtype=np.int64)

    def _build_hash_index(self) -> None:
        index: dict = {}
        values = self._tail[: self._count]
        for position, value in enumerate(values.tolist()):
            index.setdefault(value, []).append(position)
        self._hash_index = index

    def _invalidate_accelerators(self) -> None:
        self._hash_index = None
        self._sorted = False

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

    def _comparable_constant(self, value):
        return value

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

    def __iter__(self) -> Iterator[tuple]:
        """Iterate (oid, decoded value) pairs, tuple-at-a-time."""
        heads = self.head_array()
        if self.tail_type == "str":
            values = self.tail_values()
        else:
            values = self._tail[: self._count]
        for position in range(self._count):
            yield int(heads[position]), values[position]


class BATView:
    """A zero-copy window ``[first, last)`` over a parent BAT.

    Views are the currency of cracking: after a crack, the qualifying
    tuples occupy a contiguous region of the cracker column, and the answer
    is *this object* — no tuples are copied until the user materialises.
    """

    def __init__(self, parent: BAT, first: int, last: int, name: str | None = None) -> None:
        if not 0 <= first <= last <= len(parent):
            raise StorageError(
                f"view [{first}, {last}) out of bounds for BAT of {len(parent)} records"
            )
        self.parent = parent
        self.first = first
        self.last = last
        self.name = name if name is not None else f"{parent.name}[{first}:{last}]"

    def __len__(self) -> int:
        return self.last - self.first

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BATView({self.name!r}, [{self.first}:{self.last}))"

    @property
    def tail_type(self) -> str:
        return self.parent.tail_type

    def head_array(self) -> np.ndarray:
        """Oids of the viewed records."""
        return self.parent.head_array()[self.first : self.last]

    def tail_array(self) -> np.ndarray:
        """Raw tail slice — aliases the parent's storage."""
        return self.parent.tail_array()[self.first : self.last]

    def tail_values(self):
        """Decoded tail values of the viewed records."""
        if self.parent.tail_type == "str":
            assert self.parent.heap is not None
            return self.parent.heap.get_many(self.tail_array())
        return self.tail_array().copy()

    def materialise(self, name: str | None = None) -> BAT:
        """Copy the viewed records into an independent BAT."""
        target_name = name if name is not None else f"{self.name}#mat"
        bat = BAT.from_pairs(
            target_name,
            self.head_array(),
            self.tail_array()
            if self.parent.tail_type != "str"
            else self.tail_values(),
            tail_type=self.parent.tail_type,
        )
        return bat

    def min_max(self) -> tuple:
        """(min, max) over the viewed records."""
        if len(self) == 0:
            raise StorageError(f"view {self.name!r} is empty; min/max undefined")
        if self.parent.tail_type == "str":
            decoded = self.tail_values()
            return min(decoded), max(decoded)
        window = self.tail_array()
        return window.min(), window.max()
