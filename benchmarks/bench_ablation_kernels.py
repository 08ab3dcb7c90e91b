"""Ablation: crack kernel implementations.

Compares the vectorised-swap kernel against (on a reduced size) the
pure-Python two-pointer loop — quantifying why the reproduction needs
numpy kernels for fidelity.
"""

import numpy as np
import pytest

from repro.core.crack import crack_in_two, crack_in_two_swaps

N = 200_000
N_PY = 4_000  # pure-Python loop is ~1000x slower; keep its input small


def _fresh(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.permutation(n).astype(np.int64), np.arange(n, dtype=np.int64)


def test_ablation_kernel_vectorised(benchmark):
    def setup():
        values, oids = _fresh(N)
        return (values, oids), {}

    def crack(values, oids):
        return crack_in_two(values, oids, 0, N, N // 2)

    split = benchmark.pedantic(crack, setup=setup, rounds=5, iterations=1)
    assert split == N // 2


def test_ablation_kernel_python_swaps(benchmark):
    def setup():
        values, oids = _fresh(N_PY)
        return (values, oids), {}

    def crack(values, oids):
        return crack_in_two_swaps(values, oids, 0, N_PY, N_PY // 2)

    split = benchmark.pedantic(crack, setup=setup, rounds=3, iterations=1)
    assert split == N_PY // 2


def test_ablation_swap_kernel_on_presorted_input(benchmark):
    """Swap kernel on already-partitioned data: zero moves, one mask pass."""
    values = np.arange(N, dtype=np.int64)
    oids = np.arange(N, dtype=np.int64)

    def crack():
        return crack_in_two(values, oids, 0, N, N // 2)

    assert benchmark(crack) == N // 2


@pytest.mark.parametrize(
    "threshold", [0, 1024], ids=["unbounded", "threshold-1024"]
)
def test_ablation_crack_threshold(benchmark, threshold):
    """Column-level ablation: the sort-below-T cut-off vs unbounded cracking.

    A burst of random ranges against one cracker column; the bounded
    variant stops splitting at pieces of at most 1024 tuples, sorts such
    a piece once and binary-searches it from then on, trading one sort
    per piece for an index that stops growing.
    """
    from repro.core.cracked_column import CrackedColumn

    rng = np.random.default_rng(0)
    base = rng.permutation(N).astype(np.int64)
    lows = rng.integers(0, N, 64)
    widths = rng.integers(1, N // 4, 64)

    def setup():
        column = CrackedColumn.from_arrays(base, crack_threshold=threshold)
        return (column,), {}

    def burst(column):
        total = 0
        for low, width in zip(lows, widths):
            total += column.count_range(int(low), int(low + width))
        return total

    total = benchmark.pedantic(burst, setup=setup, rounds=3, iterations=1)
    assert total > 0
