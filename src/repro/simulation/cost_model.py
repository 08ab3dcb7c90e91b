"""The granule read/write cost model of §2 and §2.2.

"Consider a database represented as a vector where the elements denote
the granule of interest, i.e. tuples or disk pages."  Costs are counted
in granule reads and writes:

* a full scan query costs N reads plus σN answer writes;
* a cracking query reads the pieces it must crack, writes them back
  reorganised, and writes the σN answer.

:class:`CostModel` centralises the weights so the simulation and the
experiment harnesses report the same units.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Weights for granule operations (defaults: unit reads and writes)."""

    read_weight: float = 1.0
    write_weight: float = 1.0

    def scan_query_cost(self, n: int, answer: int, count_only: bool = False) -> float:
        """Full-scan query: read everything, write the answer."""
        writes = 0 if count_only else answer
        return n * self.read_weight + writes * self.write_weight

    def crack_query_cost(
        self,
        touched: int,
        moved: int,
        answer: int,
        count_only: bool = True,
    ) -> float:
        """Cracking query: read touched pieces + answer, write moved tuples.

        Reads cover the pieces inspected for cracking plus the (contiguous)
        answer run; the small overlap between the two is counted twice,
        a deliberate pessimism against cracking.  When only counting, the
        answer needs no extra writes; materialisation adds ``answer``
        writes.
        """
        reads = touched + answer
        writes = moved + (0 if count_only else answer)
        return reads * self.read_weight + writes * self.write_weight
