"""Unit tests for the sorted accelerator."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.accelerators import SortedAccelerator
from repro.storage.bat import BAT


class TestSortedAccelerator:
    def test_range_positions_match_scan(self, rng):
        values = rng.integers(0, 1000, 2000)
        bat = BAT.from_values("t", values)
        accel = SortedAccelerator(bat)
        positions = accel.range_positions(100, 200)
        expected = np.flatnonzero((values >= 100) & (values < 200))
        assert sorted(positions.tolist()) == expected.tolist()

    def test_inclusive_flags(self):
        bat = BAT.from_values("t", [1, 2, 3, 4, 5])
        accel = SortedAccelerator(bat)
        assert len(accel.range_positions(2, 4)) == 2          # [2, 4)
        assert len(accel.range_positions(2, 4, high_inclusive=True)) == 3
        assert len(accel.range_positions(2, 4, low_inclusive=False)) == 1

    def test_open_bounds(self):
        bat = BAT.from_values("t", [5, 1, 3])
        accel = SortedAccelerator(bat)
        assert len(accel.range_positions(None, None)) == 3
        assert len(accel.range_positions(3, None)) == 2
        assert len(accel.range_positions(None, 3)) == 1

    def test_empty_range(self):
        accel = SortedAccelerator(BAT.from_values("t", [1, 2, 3]))
        assert len(accel.range_positions(10, 20)) == 0

    def test_stale_after_append_raises(self):
        bat = BAT.from_values("t", [1, 2])
        accel = SortedAccelerator(bat)
        bat.append(3)
        with pytest.raises(StorageError):
            accel.range_positions(0, 10)

    def test_str_bat_rejected(self):
        bat = BAT.from_values("t", ["a"], tail_type="str")
        with pytest.raises(StorageError):
            SortedAccelerator(bat)

    def test_duplicates_included(self):
        bat = BAT.from_values("t", [5, 5, 5, 1])
        accel = SortedAccelerator(bat)
        assert len(accel.range_positions(5, 5, high_inclusive=True)) == 3
