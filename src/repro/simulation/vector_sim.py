"""The §2.2 small-scale simulation behind Figures 2 and 3.

"Consider a database represented as a vector where the elements denote
the granule of interest ...  From this vector we draw at random a range
with fixed σ and update the cracker index.  During each step we only
touch the pieces that should be cracked to solve the query."

Because the simulation is position-based (a random *range of granules*,
not of attribute values), the cracker state reduces to the set of crack
positions: each query [x, x+σN) cracks the piece(s) containing its two
endpoints.  Reads and writes are counted per granule:

* the pieces containing the endpoints are read and rewritten (the
  shuffle) — these writes are Figure 2's "fractional overhead";
* a scan baseline reads the whole vector each query — Figure 3 plots the
  accumulated crack cost over the accumulated scan cost.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.errors import BenchmarkError
from repro.simulation.cost_model import CostModel


@dataclass
class SimStepRecord:
    """Per-query accounting of the vector simulation."""

    step: int
    touched: int          # granules read while cracking
    moved: int            # granules rewritten by the crack
    answer: int           # granules in the query answer
    crack_cost: float     # cost-model units for the cracking strategy
    scan_cost: float      # cost-model units for the scan baseline


class VectorCrackingSimulation:
    """Simulate cracking a vector of ``n`` granules under random ranges.

    Args:
        n: vector size (granules).
        seed: RNG seed.
        cost_model: read/write weights; defaults to unit weights.
    """

    def __init__(self, n: int, seed: int = 0, cost_model: CostModel | None = None) -> None:
        if n < 1:
            raise BenchmarkError(f"vector size must be >= 1, got {n}")
        self.n = n
        self.rng = np.random.default_rng(seed)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        # Crack positions (exclusive of 0 and n), sorted.
        self.cracks: list[int] = []

    def _crack_at(self, position: int) -> tuple[int, int]:
        """Introduce a crack at ``position``; returns (touched, moved).

        Touching happens only when the position is interior to an
        existing piece: that piece is read and rewritten.
        """
        if position <= 0 or position >= self.n:
            return 0, 0
        index = bisect.bisect_left(self.cracks, position)
        if index < len(self.cracks) and self.cracks[index] == position:
            return 0, 0
        left = self.cracks[index - 1] if index > 0 else 0
        right = self.cracks[index] if index < len(self.cracks) else self.n
        self.cracks.insert(index, position)
        size = right - left
        return size, size

    def _piece_around(self, position: int) -> tuple[int, int]:
        """(left, right) edges of the piece containing ``position``."""
        index = bisect.bisect_right(self.cracks, position)
        left = self.cracks[index - 1] if index > 0 else 0
        right = self.cracks[index] if index < len(self.cracks) else self.n
        return left, right

    def run_query(self, step: int, selectivity: float) -> SimStepRecord:
        """Draw one random range of ``selectivity``·N granules and crack."""
        if not 0.0 < selectivity <= 1.0:
            raise BenchmarkError(f"selectivity must be in (0, 1], got {selectivity}")
        answer = max(1, min(self.n, round(selectivity * self.n)))
        start = int(self.rng.integers(0, self.n - answer + 1))
        stop = start + answer
        # Crack-in-three: when both bounds fall inside the same piece, the
        # piece is reorganised in a single pass (§3.1); otherwise each
        # bound cracks its own piece.
        same_piece = self._piece_around(start) == self._piece_around(max(stop - 1, start))
        touched_a, moved_a = self._crack_at(start)
        touched_b, moved_b = self._crack_at(stop)
        if same_piece:
            touched = max(touched_a, touched_b)
            moved = max(moved_a, moved_b)
        else:
            touched = touched_a + touched_b
            moved = moved_a + moved_b
        return SimStepRecord(
            step=step,
            touched=touched,
            moved=moved,
            answer=answer,
            crack_cost=self.cost_model.crack_query_cost(touched, moved, answer),
            scan_cost=self.cost_model.scan_query_cost(self.n, answer, count_only=True),
        )

    def run(self, steps: int, selectivity: float) -> list[SimStepRecord]:
        """Run a fixed-selectivity sequence of ``steps`` random queries."""
        return [self.run_query(step, selectivity) for step in range(1, steps + 1)]


def fractional_write_overhead(
    n: int, steps: int, selectivity: float, seed: int = 0, repetitions: int = 5
) -> list[float]:
    """Figure 2's series: per-step cracking writes / N, averaged over runs.

    The paper's figure is a single random draw; averaging a few
    repetitions smooths the series without changing its shape.
    """
    totals = np.zeros(steps)
    for repetition in range(repetitions):
        sim = VectorCrackingSimulation(n, seed=seed + repetition)
        records = sim.run(steps, selectivity)
        totals += np.array([record.moved / n for record in records])
    return (totals / repetitions).tolist()


def accumulated_cost_ratio(
    n: int, steps: int, selectivity: float, seed: int = 0, repetitions: int = 5
) -> list[float]:
    """Figure 3's series: cumulative crack cost / cumulative scan cost.

    Values above 1.0 mean cracking has (so far) lost; below 1.0 it has
    won.  The paper observes break-even "after a handful of queries".
    """
    totals = np.zeros(steps)
    for repetition in range(repetitions):
        sim = VectorCrackingSimulation(n, seed=seed + repetition)
        records = sim.run(steps, selectivity)
        crack = np.cumsum([record.crack_cost for record in records])
        scan = np.cumsum([record.scan_cost for record in records])
        totals += crack / scan
    return (totals / repetitions).tolist()
