"""A static search accelerator over BATs: the sorted index.

MonetDB attaches automatically maintained accelerators (hash table, binary
search tree) to the BUN heap of a BAT (Figure 7).  The cracker index is the
adaptive alternative; the sorted accelerator exists so the "sort upfront"
baseline of Figure 11 is an honest implementation rather than a strawman.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.storage.bat import BAT


class SortedAccelerator:
    """A sorted projection (value-ordered permutation) over a BAT tail.

    Equivalent to a clustered B-tree for range queries: lookup is two
    binary searches plus a slice of the permutation vector.  Construction
    costs O(N log N) — the upfront investment Figure 11 compares cracking
    against.
    """

    def __init__(self, bat: BAT) -> None:
        if bat.tail_type == "str":
            raise StorageError("SortedAccelerator supports numeric tails only")
        self.bat = bat
        self._built_count = len(bat)
        tail = bat.tail_array()
        self.permutation = np.argsort(tail, kind="stable")
        self.sorted_tail = tail[self.permutation]

    def _check_fresh(self) -> None:
        if len(self.bat) != self._built_count:
            raise StorageError(
                f"sorted accelerator on {self.bat.name!r} is stale "
                f"(built at {self._built_count} records, BAT has {len(self.bat)})"
            )

    def range_positions(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> np.ndarray:
        """Positions (in BAT storage order domain) matching the range."""
        self._check_fresh()
        lo_idx = 0
        hi_idx = len(self.sorted_tail)
        if low is not None:
            side = "left" if low_inclusive else "right"
            lo_idx = int(np.searchsorted(self.sorted_tail, low, side=side))
        if high is not None:
            side = "right" if high_inclusive else "left"
            hi_idx = int(np.searchsorted(self.sorted_tail, high, side=side))
        if hi_idx <= lo_idx:
            return np.empty(0, dtype=np.int64)
        return self.permutation[lo_idx:hi_idx]
