"""Micro-benchmarks of the core primitives.

Not tied to a figure; these pin the constants the experiment analysis in
EXPERIMENTS.md refers to (scan pass, converged cracked lookup, sorted
lookup, first-touch crack).
"""

import numpy as np
import pytest

from benchmarks.conftest import BENCH_ROWS
from repro.core.cracked_column import CrackedColumn
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
