"""The sort-below-T crack cut-off: a converged column is read-only.

A bound that misses the cracker index and lands in a piece of at most
``crack_threshold`` tuples sorts that piece in place once and is resolved
by binary search — no kernel, no new boundary, still a span of the
cracker column.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cracked_column import DEFAULT_CRACK_THRESHOLD, CrackedColumn
from repro.errors import CrackError
from repro.sql import Database

THRESHOLDS = [0, 1, 7, 64, 10**6]


def int_column(rng):
    """Heavy duplicates: 3 000 rows over 40 distinct values."""
    return rng.integers(0, 40, 3000), lambda: int(rng.integers(-2, 43))


def float_column(rng):
    values = np.round(rng.uniform(0, 100, 3000), 1)
    return values, lambda: float(np.round(rng.uniform(-5, 105), 1))


class Oracle:
    """The column's logical content as oid -> value, filtered by numpy."""

    def __init__(self, values):
        self.oids = np.arange(len(values), dtype=np.int64)
        self.values = np.array(values)

    def select(self, low, high, low_inclusive, high_inclusive):
        mask = np.ones(len(self.values), dtype=bool)
        if low is not None:
            mask &= self.values >= low if low_inclusive else self.values > low
        if high is not None:
            mask &= self.values <= high if high_inclusive else self.values < high
        order = np.argsort(self.oids[mask])
        return self.oids[mask][order], self.values[mask][order]

    def append(self, values, oids):
        self.oids = np.concatenate([self.oids, oids])
        self.values = np.concatenate([self.values, values])

    def delete(self, oids):
        keep = ~np.isin(self.oids, oids)
        self.oids, self.values = self.oids[keep], self.values[keep]

    def update(self, oids, values):
        for oid, value in zip(oids, values):
            self.values[self.oids == oid] = value


def check(column, oracle, low, high, low_inclusive, high_inclusive):
    result = column.range_select(
        low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
    )
    # Every answer — inverted and degenerate ranges included — is a span.
    assert 0 <= result.start <= result.stop <= len(column)
    assert result.count == result.stop - result.start
    if result.count:
        assert np.shares_memory(result.oids, column.oids)
    else:
        refs_before = list(column._live_snapshot_refs)
        assert result.snapshot() is result
        assert column._live_snapshot_refs == refs_before
    order = np.argsort(result.oids)
    expected_oids, expected_values = oracle.select(
        low, high, low_inclusive, high_inclusive
    )
    assert np.array_equal(result.oids[order], expected_oids)
    assert np.array_equal(result.values[order], expected_values)
    column.check_invariants()


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("make", [int_column, float_column])
@pytest.mark.parametrize("seed", range(3))
def test_random_sequences_match_numpy_oracle(seed, make, threshold):
    rng = np.random.default_rng(seed)
    values, bound = make(rng)
    column = CrackedColumn.from_arrays(values, crack_threshold=threshold)
    oracle = Oracle(values)
    for step in range(120):
        low = bound()
        high = low + abs(bound()) / 4 if step % 3 else bound()  # some inverted
        if values.dtype.kind == "i":
            high = int(high)
        if step % 11 == 0:
            high = low  # point / degenerate ranges
        if step % 13 == 0:
            low = None
        elif step % 17 == 0:
            high = None
        for low_inclusive in (True, False):
            for high_inclusive in (True, False):
                check(column, oracle, low, high, low_inclusive, high_inclusive)
        if step % 9 == 0:
            fresh = np.array([bound() for _ in range(5)], dtype=values.dtype)
            oracle.append(fresh, column.append(fresh))
        if step % 14 == 0:
            victims = rng.choice(oracle.oids, 4, replace=False)
            column.delete(victims)
            oracle.delete(victims)
        if step % 10 == 5:
            targets = rng.choice(oracle.oids, 3, replace=False)
            rewrites = np.array([bound() for _ in range(3)], dtype=values.dtype)
            column.update(targets, rewrites)
            oracle.update(targets, rewrites)
        if step % 40 == 20:
            column = CrackedColumn.from_state(column.export_state())
            assert column.crack_threshold == threshold
    if threshold >= len(values):
        assert column.piece_count == 1 and column.crack_stats.cracks == 0


def test_snapshot_held_across_a_sort_stays_byte_identical():
    column = CrackedColumn.from_arrays(
        np.random.default_rng(0).permutation(1000), crack_threshold=700
    )
    snap = column.range_select(200, 800).snapshot()  # 1000 > T: cracked
    assert np.shares_memory(snap.values, column.values)
    frozen_values, frozen_oids = snap.values.copy(), snap.oids.copy()
    inner = column.range_select(300, 350)  # lands in the 600-tuple piece: sorted
    assert column.crack_stats.sorts == 1
    assert inner.values.tolist() == list(range(300, 350))
    assert np.array_equal(snap.values, frozen_values)
    assert np.array_equal(snap.oids, frozen_oids)
    assert not np.shares_memory(snap.values, column.values)  # storage retired
    column.check_invariants()


def test_sorted_piece_is_tested_once_and_forgotten_by_a_merge():
    column = CrackedColumn.from_arrays(
        np.random.default_rng(1).permutation(500), crack_threshold=10**6
    )
    column.range_select(10, 20)
    column.range_select(30, 40)
    assert column.observability()["sorted_pieces"] == 1
    assert column.crack_stats.sorts == 1
    assert column.crack_stats.tuples_touched == 500
    column.append([15, 15])
    assert column.count_range(10, 20) == 12
    # The merge shifted positions: the span was dropped, found unsorted
    # again (inserts land at the piece start) and re-sorted.
    assert column.observability()["sorted_pieces"] == 1
    assert column.crack_stats.sorts == 2
    column.check_invariants()


def test_check_invariants_rejects_a_remembered_span_that_is_not_sorted():
    column = CrackedColumn.from_arrays(np.arange(50), crack_threshold=10**6)
    column.range_select(10, 20)
    column.values[[3, 4]] = column.values[[4, 3]]
    with pytest.raises(CrackError, match="remembered as sorted"):
        column.check_invariants()


def test_check_invariants_rejects_a_remembered_span_that_is_not_whole_pieces():
    column = CrackedColumn.from_arrays(np.arange(50), crack_threshold=10**6)
    column.range_select(10, 20)
    column._sorted_spans.add((5, 50))  # sorted, but 5 is no piece edge
    with pytest.raises(CrackError, match="union of whole pieces"):
        column.check_invariants()


def test_converged_column_is_read_only():
    rng = np.random.default_rng(7)
    column = CrackedColumn.from_arrays(
        rng.permutation(50_000), crack_threshold=DEFAULT_CRACK_THRESHOLD
    )

    def burst(count):
        for _ in range(count):
            low = int(rng.integers(0, 50_000))
            column.range_select(low, low + int(rng.integers(1, 5000)))

    burst(1000)
    stats = column.crack_stats
    before = (stats.cracks, stats.tuples_moved, column.piece_count)
    burst(2000)
    assert (stats.cracks, stats.tuples_moved, column.piece_count) == before
    assert max(column.index.piece_sizes()) <= DEFAULT_CRACK_THRESHOLD
    column.check_invariants()


def test_sorts_are_visible_in_stats_lineage_and_trace():
    db = Database(cracking=True, profile=True, trace=True)
    db.execute("CREATE TABLE r (k integer, a integer)")
    rows = ", ".join(f"({i}, {(i * 37) % 101})" for i in range(101))
    db.execute(f"INSERT INTO r VALUES {rows}")
    assert db.execute("SELECT count(*) FROM r WHERE a BETWEEN 10 AND 19").scalar() == 10
    crack_span = next(
        span for _, span in db.last_trace().walk() if span.name == "crack"
    )
    assert (crack_span.meta["sorts"], crack_span.meta["cracks"]) == (1, 0)
    stats = db.stats()
    detail = stats["cracker_detail"]["r.a"]
    assert (detail["sorts"], detail["sorted_pieces"], detail["pieces"]) == (1, 1, 1)
    assert [e["op"] for e in stats["lineage"]["r.a"]["events"]] == ["sort"]
    explained = db.execute("EXPLAIN INDEX r(a)").rows
    assert any("sort" in str(row) for row in explained)


@pytest.mark.parametrize("kernel", ["vectorised", "rebuild"])
def test_cracking_remembered_sorted_spans_leaves_them_sorted(kernel):
    """Lowering ``crack_threshold`` mid-stream lets kernels run over spans
    that are remembered as sorted: a span sorted as a whole piece holds no
    tuple on the wrong side of any pivot, so it stays sorted."""
    rng = np.random.default_rng(4)
    values = rng.integers(0, 2000, 4000)
    column = CrackedColumn.from_arrays(values, kernel=kernel, crack_threshold=150)
    for step in range(200):
        low = int(rng.integers(0, 2000))
        high = low + int(rng.integers(0, 400))
        result = column.range_select(low, high)
        expected = np.flatnonzero((values >= low) & (values < high))
        assert np.array_equal(np.sort(result.oids), expected)
        column.check_invariants()
        if step == 100:
            assert column.crack_stats.sorts and column._sorted_spans
            cracks_at_cutoff = column.crack_stats.cracks
            column.crack_threshold = 0  # remembered spans now get cracked
    assert column.crack_stats.cracks > cracks_at_cutoff
    assert column._sorted_spans  # still remembered, still verified sorted
