"""The cracking optimizer: when to crack, and when to fuse pieces.

§3.2 of the paper: "This phenomenon calls for a cracking optimizer which
controls the number of pieces to produce. ... A plausible strategy is to
optimize towards many pieces in the beginning and shift to the larger
chunks when we already have a large cracker index."  And §3.4.2: "Possible
cut-off points to consider are the disk-blocks ... or to limit the number
of pieces administered.  If the cracker dictionary overflows, pieces can
be merged to form larger units again."

This module implements those policies as pluggable strategies over a
:class:`~repro.core.cracked_column.CrackedColumn`:

* :class:`EagerStrategy` — always crack (the default prototype behaviour);
* :class:`LazyThresholdStrategy` — never split a piece below a size
  cut-off (the disk-block granule);
* :class:`BoundedPiecesStrategy` — cap the cracker-index size; overflow
  triggers piece fusion (removing the boundary between the two smallest
  adjacent pieces).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.crack import KIND_LE, KIND_LT
from repro.core.cracked_column import CrackedColumn, SelectionResult
from repro.errors import CrackError


class EagerStrategy:
    """Crack on every query — the paper's baseline prototype behaviour."""

    def should_crack(self, column: CrackedColumn, touched_piece_sizes: list[int]) -> bool:
        return True

    def after_query(self, column: CrackedColumn) -> None:
        return None


@dataclass
class LazyThresholdStrategy:
    """Never crack a piece smaller than ``min_piece_size`` tuples.

    Models the disk-block cut-off of §3.4.2: once a piece fits a block,
    splitting it further buys nothing — scanning it costs one block read
    either way.
    """

    min_piece_size: int = 1024

    def should_crack(self, column: CrackedColumn, touched_piece_sizes: list[int]) -> bool:
        if not touched_piece_sizes:
            # All boundaries already exist: "cracking" is a pure index
            # lookup, so take the contiguous-answer path.
            return True
        return all(size >= self.min_piece_size for size in touched_piece_sizes)

    def after_query(self, column: CrackedColumn) -> None:
        return None


@dataclass
class BoundedPiecesStrategy:
    """Cap the number of pieces; fuse the smallest neighbours on overflow."""

    max_pieces: int = 1024
    fusions_performed: int = field(default=0, init=False)

    def should_crack(self, column: CrackedColumn, touched_piece_sizes: list[int]) -> bool:
        return True

    def after_query(self, column: CrackedColumn) -> None:
        self.fusions_performed += fuse_to(column, self.max_pieces)


def fuse_to(column: CrackedColumn, max_pieces: int) -> int:
    """Remove boundaries until the column has at most ``max_pieces`` pieces.

    Fusion removes the boundary between the two adjacent pieces whose
    combined size is smallest — losing the least navigational value per
    boundary dropped.  The data itself never moves; fusing only widens
    what a future query must scan/re-crack.

    Returns:
        the number of boundaries removed.
    """
    if max_pieces < 1:
        raise CrackError(f"max_pieces must be >= 1, got {max_pieces}")
    removed = 0
    while column.index.piece_count > max_pieces:
        pieces = column.index.pieces()
        best_index = None
        best_cost = None
        for i in range(len(pieces) - 1):
            combined = pieces[i].size + pieces[i + 1].size
            if best_cost is None or combined < best_cost:
                best_cost = combined
                best_index = i
        assert best_index is not None
        shared = pieces[best_index].upper
        assert shared is not None
        column.index.remove(shared.value, shared.kind)
        removed += 1
    return removed


class CrackingOptimizer:
    """Strategy-aware facade over a :class:`CrackedColumn`.

    Routes range queries through the strategy: when the strategy declines
    to crack (e.g. the touched pieces are already block-sized), the query
    is answered by scanning without reorganisation.
    """

    def __init__(self, column: CrackedColumn, strategy=None) -> None:
        self.column = column
        self.strategy = strategy if strategy is not None else EagerStrategy()

    def range_select(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> SelectionResult:
        """Answer a range query under the configured strategy."""
        touched = self._touched_piece_sizes(low, high, low_inclusive, high_inclusive)
        crack = self.strategy.should_crack(self.column, touched)
        result = self.column.range_select(
            low,
            high,
            low_inclusive=low_inclusive,
            high_inclusive=high_inclusive,
            crack=crack,
        )
        self.strategy.after_query(self.column)
        return result

    def _touched_piece_sizes(
        self, low, high, low_inclusive: bool, high_inclusive: bool
    ) -> list[int]:
        """Sizes of the pieces a crack for this query would split."""
        sizes = []
        bounds = (
            (low, KIND_LT if low_inclusive else KIND_LE),
            (high, KIND_LE if high_inclusive else KIND_LT),
        )
        for value, kind in bounds:
            if value is not None:
                position, start, stop = self.column.index.probe(value, kind)
                if position is None:
                    sizes.append(stop - start)
        return sizes
