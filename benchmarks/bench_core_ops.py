"""Micro-benchmarks of the core primitives.

Not tied to a figure; these pin the constants the experiment analysis in
EXPERIMENTS.md refers to (scan pass, converged cracked lookup, sorted
lookup, first-touch crack), and the cracker index's two per-bound
operations (probe, add) at the ~1 500 boundaries a column holds after a
burn-in under the shipped crack cut-off.
"""

import numpy as np
import pytest

from benchmarks.conftest import BENCH_ROWS
from repro.core.crack import KIND_LT
from repro.core.cracked_column import CrackedColumn
from repro.core.cracker_index import CrackerIndex
from repro.storage.accelerators import SortedAccelerator
from repro.storage.bat import BAT

LOW = BENCH_ROWS // 4
HIGH = LOW + BENCH_ROWS // 20


@pytest.fixture(scope="module")
def column_bat(tapestry):
    return tapestry.build_relation("R").column("a")


def test_core_full_scan_mask(benchmark, column_bat):
    values = column_bat.tail_array()

    def scan():
        return int(((values >= LOW) & (values <= HIGH)).sum())

    assert benchmark(scan) == HIGH - LOW + 1


def test_core_first_crack(benchmark, column_bat):
    def setup():
        return (CrackedColumn(column_bat),), {}

    def first_crack(column):
        return column.range_select(LOW, HIGH, high_inclusive=True).count

    count = benchmark.pedantic(first_crack, setup=setup, rounds=5, iterations=1)
    assert count == HIGH - LOW + 1


def test_core_converged_cracked_lookup(benchmark, column_bat):
    column = CrackedColumn(column_bat)
    column.range_select(LOW, HIGH, high_inclusive=True)

    def lookup():
        return column.range_select(LOW, HIGH, high_inclusive=True).count

    assert benchmark(lookup) == HIGH - LOW + 1


def test_core_sorted_accelerator_lookup(benchmark, column_bat):
    accelerator = SortedAccelerator(column_bat)

    def lookup():
        return len(accelerator.range_positions(LOW, HIGH, high_inclusive=True))

    assert benchmark(lookup) == HIGH - LOW + 1


def test_core_sort_investment(benchmark, column_bat):
    def setup():
        fresh = BAT.from_values("copy", column_bat.tail_array().copy())
        return (fresh,), {}

    def sort(bat):
        bat.sort_by_tail()

    benchmark.pedantic(sort, setup=setup, rounds=3, iterations=1)


@pytest.fixture(scope="module")
def boundary_values():
    """1 600 distinct boundary values in random (crack) order."""
    return np.random.default_rng(7).choice(1_000_000, 1_600, replace=False).tolist()


def _index_of(values) -> CrackerIndex:
    """An index whose boundary ``(v, 'lt')`` sits at position ``2 * v``."""
    index = CrackerIndex(2_000_000)
    for value in values:
        index.add(value, KIND_LT, 2 * value)
    return index


def test_core_index_probe(benchmark, boundary_values):
    """1 000 probes of a 1 500-boundary index, a fifth of them hits."""
    index = _index_of(boundary_values[:1_500])
    rng = np.random.default_rng(8)
    probes = rng.integers(0, 1_000_000, 800).tolist() + boundary_values[:200]

    def probe_all():
        probe = index.probe
        return sum(probe(value, KIND_LT)[0] is not None for value in probes)

    assert benchmark(probe_all) >= 200


def test_core_index_add(benchmark, boundary_values):
    """100 new boundaries into a 1 500-boundary index."""

    def setup():
        return (_index_of(boundary_values[:1_500]),), {}

    def add_batch(index):
        for value in boundary_values[1_500:]:
            index.add(value, KIND_LT, 2 * value)
        return index

    index = benchmark.pedantic(add_batch, setup=setup, rounds=20, iterations=1)
    assert len(index) == 1_600
    index.check_invariants()
