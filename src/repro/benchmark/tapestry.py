"""DBtapestry: the paper's benchmark data generator (§4).

"The output of this program is an SQL script to build a table with N rows
and α columns.  The value in each column is a permutation of the numbers
1..N.  ...  The tapestry tables are constructed from a small seed table
with a permutation of a small integer range, which is replicated to
arrive at the required table size, and, finally, shuffled to obtain a
random distribution of tuples."

:class:`DBtapestry` follows that construction literally — seed
permutation, block replication with offsets (which preserves the
permutation property), then a full shuffle — and emits a
:class:`~repro.storage.table.Relation`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BenchmarkError
from repro.storage.table import Column, Relation, Schema

#: Default column names: a, b, c ... (the paper's examples use R(k, a)).
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def column_names(arity: int) -> list[str]:
    """Generate ``arity`` column names: k, a, b, c, ...

    The first column is the surrogate-ish key ``k`` used by the join
    experiments; the rest follow the paper's ``R.a`` convention.
    """
    if arity < 1:
        raise BenchmarkError(f"arity must be >= 1, got {arity}")
    if arity - 1 > len(_ALPHABET):
        raise BenchmarkError(f"arity {arity} exceeds supported maximum")
    return ["k"] + list(_ALPHABET[: arity - 1])


class DBtapestry:
    """Generator for tapestry tables: α columns, each a permutation of 1..N.

    Args:
        n_rows: table cardinality N.
        arity: number of columns α.
        seed: RNG seed for reproducible permutations.
        seed_size: size of the seed permutation block (the "small seed
            table" of the paper); must divide nothing in particular —
            the final block is truncated.
    """

    def __init__(
        self, n_rows: int, arity: int = 2, seed: int = 0, seed_size: int = 1024
    ) -> None:
        if n_rows < 1:
            raise BenchmarkError(f"n_rows must be >= 1, got {n_rows}")
        if seed_size < 1:
            raise BenchmarkError(f"seed_size must be >= 1, got {seed_size}")
        self.n_rows = n_rows
        self.arity = arity
        self.seed = seed
        self.seed_size = min(seed_size, n_rows)
        self.names = column_names(arity)

    def column(self, index: int) -> np.ndarray:
        """The ``index``-th column: a permutation of 1..N.

        Constructed per the paper: replicate a shuffled seed block with
        per-block offsets (still a permutation), then shuffle globally.
        """
        if not 0 <= index < self.arity:
            raise BenchmarkError(f"column index {index} out of range 0..{self.arity - 1}")
        rng = np.random.default_rng((self.seed, index))
        seed_block = rng.permutation(self.seed_size) + 1
        full_blocks = self.n_rows // self.seed_size
        blocks = [seed_block + block * self.seed_size for block in range(full_blocks)]
        remainder = self.n_rows - full_blocks * self.seed_size
        if remainder:
            # The final partial block is a fresh permutation of the
            # remaining range, keeping the column a permutation of 1..N.
            blocks.append(
                rng.permutation(remainder) + 1 + full_blocks * self.seed_size
            )
        replicated = np.concatenate(blocks)
        rng.shuffle(replicated)
        return replicated.astype(np.int64)

    def build_relation(self, name: str = "R") -> Relation:
        """Materialise the tapestry table as a relation."""
        schema = Schema([Column(column, "int") for column in self.names])
        data = {column: self.column(i) for i, column in enumerate(self.names)}
        return Relation.from_columns(name, schema, data)
