"""Hot-path features: the sort-below-T crack cut-off and copy-on-demand snapshots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cracked_column import CrackedColumn
from repro.errors import CrackError
from repro.storage.bat import BAT


def _bat(values, name="col"):
    return BAT.from_values(name, [int(v) for v in values], tail_type="int")


class TestThresholdBoundedCracking:
    """Bounded cracking answers exactly like the unbounded cracker."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("threshold", [16, 256, 10**9])
    def test_differential_random_ranges(self, seed, threshold):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 5000, 8000)
        unbounded = CrackedColumn.from_arrays(values, crack_threshold=0)
        bounded = CrackedColumn.from_arrays(values, crack_threshold=threshold)
        for i in range(150):
            low = int(rng.integers(0, 5000))
            high = low + int(rng.integers(0, 1500))
            kwargs = dict(
                low_inclusive=bool(rng.integers(0, 2)),
                high_inclusive=bool(rng.integers(0, 2)),
            )
            left = unbounded.range_select(low, high, **kwargs)
            right = bounded.range_select(low, high, **kwargs)
            assert sorted(left.oids.tolist()) == sorted(right.oids.tolist())
            assert sorted(left.values.tolist()) == sorted(right.values.tolist())
            if i % 30 == 0:
                fresh = rng.integers(0, 5000, 7)
                unbounded.append(fresh)
                bounded.append(fresh)
            if i % 45 == 0:
                one_sided_left = unbounded.range_select(low, None)
                one_sided_right = bounded.range_select(low, None)
                assert sorted(one_sided_left.oids.tolist()) == sorted(
                    one_sided_right.oids.tolist()
                )
        unbounded.check_invariants()
        bounded.check_invariants()

    def test_piece_growth_is_bounded(self):
        rng = np.random.default_rng(1)
        values = rng.permutation(50_000)
        threshold = 1024
        column = CrackedColumn.from_arrays(values, crack_threshold=threshold)
        unbounded = CrackedColumn.from_arrays(values)
        for _ in range(400):
            low = int(rng.integers(0, 50_000))
            high = low + int(rng.integers(1, 10_000))
            column.range_select(low, high)
            unbounded.range_select(low, high)
        # Sub-threshold pieces never split, so index growth decouples
        # from the query count (a split remainder may still undershoot
        # the threshold, hence the slack factor).
        assert column.piece_count <= 4 * len(values) // threshold
        assert column.piece_count < unbounded.piece_count // 2
        column.check_invariants()

    def test_answers_under_the_cutoff_are_contiguous(self):
        values = np.random.default_rng(2).permutation(100)
        column = CrackedColumn.from_arrays(values, crack_threshold=10**6)
        result = column.range_select(10, 20)
        assert (result.start, result.stop) == (10, 20)
        assert np.shares_memory(result.values, column.values)
        assert result.values.tolist() == list(range(10, 20))
        assert values[result.oids].tolist() == list(range(10, 20))
        assert column.piece_count == 1  # sorted once, never cracked
        assert (column.crack_stats.sorts, column.crack_stats.cracks) == (1, 0)
        column.check_invariants()

    def test_degenerate_empty_edge_piece_not_conflated(self):
        """Regression: a crack landing on an existing boundary position
        creates an empty piece sharing its start with its neighbour; the
        two bounds of a later range must not be folded into one scan of
        the empty piece."""
        values = np.concatenate([np.arange(0, 50), np.arange(60, 70), np.arange(80, 120)])
        bounded = CrackedColumn.from_arrays(values, crack_threshold=30)
        unbounded = CrackedColumn.from_arrays(values)
        for column in (bounded, unbounded):
            column.range_select(50, None)   # boundary (50,lt) @ 50
            column.range_select(55, None)   # value gap: (55,lt) also @ 50
            column.range_select(70, None)   # (70,lt) @ 60
        left = bounded.range_select(52, 65, high_inclusive=True)
        right = unbounded.range_select(52, 65, high_inclusive=True)
        assert sorted(left.values.tolist()) == sorted(right.values.tolist()) == list(range(60, 66))
        bounded.check_invariants()

    def test_negative_threshold_rejected(self):
        with pytest.raises(CrackError):
            CrackedColumn.from_arrays(np.arange(5), crack_threshold=-1)

    @pytest.mark.parametrize("kernel", ["vectorised", "rebuild", "swaps"])
    def test_threshold_with_every_kernel(self, kernel):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1000, 3000)
        bounded = CrackedColumn.from_arrays(
            values, kernel=kernel, crack_threshold=64
        )
        reference = CrackedColumn.from_arrays(values)
        for _ in range(40):
            low = int(rng.integers(0, 1000))
            high = low + int(rng.integers(0, 300))
            left = bounded.range_select(low, high)
            right = reference.range_select(low, high)
            assert sorted(left.oids.tolist()) == sorted(right.oids.tolist())
        bounded.check_invariants()


class TestCopyOnDemandSnapshots:
    def test_snapshot_is_zero_copy_until_crack(self):
        column = CrackedColumn.from_arrays(np.random.default_rng(0).permutation(10_000))
        result = column.range_select(2000, 4000)
        snap = result.snapshot()
        assert snap is result
        assert np.shares_memory(snap.values, column.values)
        assert np.shares_memory(snap.oids, column.oids)

    def test_snapshot_survives_later_crack(self):
        column = CrackedColumn.from_arrays(np.random.default_rng(0).permutation(10_000))
        snap = column.range_select(2000, 4000).snapshot()
        frozen_values = snap.values.copy()
        frozen_oids = snap.oids.copy()
        column.range_select(2500, 3500)  # cracks inside the snapshotted span
        assert np.array_equal(snap.values, frozen_values)
        assert np.array_equal(snap.oids, frozen_oids)
        assert not np.shares_memory(snap.values, column.values)
        column.check_invariants()

    def test_no_copy_without_live_snapshot(self):
        column = CrackedColumn.from_arrays(np.random.default_rng(0).permutation(10_000))
        column.range_select(2000, 4000)  # result dropped, never snapshotted
        storage = column.values
        column.range_select(2500, 3500)
        assert column.values is storage  # no retirement happened

    def test_dropped_snapshot_costs_nothing(self):
        column = CrackedColumn.from_arrays(np.random.default_rng(0).permutation(10_000))
        column.range_select(2000, 4000).snapshot()  # dropped immediately
        storage = column.values
        column.range_select(2500, 3500)
        assert column.values is storage

    def test_holding_only_the_array_still_protects(self):
        column = CrackedColumn.from_arrays(np.random.default_rng(0).permutation(10_000))
        values = column.range_select(2000, 4000).snapshot().values
        frozen = values.copy()
        column.range_select(2500, 3500)
        assert np.array_equal(values, frozen)

    def test_merge_does_not_disturb_snapshot(self):
        column = CrackedColumn.from_arrays(np.random.default_rng(0).permutation(1000))
        snap = column.range_select(100, 300).snapshot()
        frozen = snap.values.copy()
        column.append(np.array([150, 250, 2000]))
        column.range_select(400, 500)  # triggers the pending merge
        assert np.array_equal(snap.values, frozen)
        column.check_invariants()

    def test_merge_retires_generation_without_extra_copy(self):
        column = CrackedColumn.from_arrays(np.random.default_rng(0).permutation(1000))
        snap = column.range_select(100, 300).snapshot()
        column.append(np.array([150, 250]))
        column.range_select(400, 500)  # merge installs fresh arrays
        storage = column.values
        column.range_select(420, 470)  # cracks; must not copy again
        assert column.values is storage
        assert snap is not None  # snapshot intentionally still alive
