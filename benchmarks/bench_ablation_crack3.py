"""Ablation: crack-in-three versus two successive crack-in-twos.

The paper proposes the three-way Ξ crack for double-sided ranges (§3.1);
this ablation measures what it buys over the naive composition.  Both
kernels run directly on a copy of the column array, once per homerun
step, over the whole column with that step's bounds.
"""

import numpy as np
import pytest

from benchmarks.conftest import BENCH_ROWS
from repro.benchmark.profiles import MQS, homerun_sequence
from repro.core.crack import KIND_LE, KIND_LT, crack_in_three, crack_in_three_via_two

STEPS = 24


@pytest.mark.parametrize(
    "kernel", [crack_in_three, crack_in_three_via_two], ids=["crack3", "2x_crack2"]
)
def test_ablation_double_sided_strategy(benchmark, tapestry, kernel):
    mqs = MQS(alpha=2, n=BENCH_ROWS, k=STEPS, sigma=0.05, rho="linear")
    queries = homerun_sequence(mqs, attr="a", seed=0)
    column = tapestry.build_relation("R").column("a").tail_array()

    def setup():
        return (column.copy(), np.arange(len(column), dtype=np.int64)), {}

    def sequence(values, oids):
        total = 0
        for query in queries:
            low, high = kernel(
                values, oids, 0, len(values), query.low, query.high,
                low_kind=KIND_LT, high_kind=KIND_LE,
            )
            total += high - low
        return total

    total = benchmark.pedantic(sequence, setup=setup, rounds=3, iterations=1)
    assert total == sum(
        int(np.count_nonzero((column >= q.low) & (column <= q.high))) for q in queries
    )
