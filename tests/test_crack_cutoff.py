"""The sort-below-T crack cut-off and the pivot rule above it.

A bound that misses the cracker index and lands in a piece of at most
``crack_threshold`` tuples sorts that piece in place once and is resolved
by binary search — no kernel, no new boundary, still a span of the
cracker column.  One that lands in a piece of more than
``PIVOT_FACTOR * crack_threshold`` tuples first halves that piece at
median-of-three pivots, so a sliding window stops re-partitioning the
uncracked remainder on every query.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.__main__ import _render_stats
from repro.core import cracked_column
from repro.core.crack import KIND_LE, KIND_LT
from repro.core.cracked_column import (
    DEFAULT_CRACK_THRESHOLD,
    PIVOT_FACTOR,
    CrackedColumn,
)
from repro.errors import CrackError
from repro.sql import Database
from repro.storage.table import Column, Relation, Schema

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

    def values_of(self, oids):
        """Each oid's current value: the key a delete or update passes."""
        return np.array([self.values[self.oids == oid][0] for oid in oids])

    def delete(self, oids):
        keep = ~np.isin(self.oids, oids)
        self.oids, self.values = self.oids[keep], self.values[keep]

    def update(self, oids, values):
        for oid, value in zip(oids, values):
            self.values[self.oids == oid] = value


def window(values, queries=60):
    """A sliding window over the column's domain: one step per query,
    five steps wide."""
    first, last = values.min(), values.max()
    step = (last - first) / queries
    for i in range(queries):
        low, high = first + i * step, first + (i + 5) * step
        yield (int(low), int(high)) if values.dtype.kind == "i" else (low, high)


def check(column, oracle, low, high, low_inclusive, high_inclusive):
    result = column.range_select(
        low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
    )
    # Every answer — inverted and degenerate ranges included — is a span,
    # copied out of storage.
    assert 0 <= result.start <= result.stop <= len(column)
    assert result.count == result.stop - result.start
    assert not np.shares_memory(result.oids, column.oids)
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
    for step, (low, high) in enumerate(window(values, 40)):
        check(column, oracle, low, high, step % 2 == 0, step % 3 == 0)
    pivots_expected = 0 < PIVOT_FACTOR * threshold < len(values)
    assert bool(column.crack_stats.pivot_cracks) == pivots_expected
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
            column.delete(victims, oracle.values_of(victims))
            oracle.delete(victims)
        if step % 10 == 5:
            targets = rng.choice(oracle.oids, 3, replace=False)
            rewrites = np.array([bound() for _ in range(3)], dtype=values.dtype)
            column.update(targets, rewrites, oracle.values_of(targets))
            oracle.update(targets, rewrites)
        if step % 40 == 20:
            column = CrackedColumn.from_state(column.export_state())
            assert column.crack_threshold == 0  # the state carries no cut-off
            column.crack_threshold = threshold  # the opener sets it
    if threshold >= len(values):
        assert column.piece_count == 1 and column.crack_stats.cracks == 0


def test_snapshot_held_across_a_sort_stays_byte_identical():
    column = CrackedColumn.from_arrays(
        np.random.default_rng(0).permutation(1000), crack_threshold=700
    )
    answer = column.range_select(200, 800)  # 1000 > T: cracked
    frozen_values, frozen_oids = answer.values.copy(), answer.oids.copy()
    storage = column.values
    inner = column.range_select(300, 350)  # lands in the 600-tuple piece: sorted
    assert column.crack_stats.sorts == 1
    assert inner.values.tolist() == list(range(300, 350))
    assert np.array_equal(answer.values, frozen_values)
    assert np.array_equal(answer.oids, frozen_oids)
    assert column.values is storage  # sorted in place
    assert not np.shares_memory(answer.values, column.values)
    assert not np.shares_memory(answer.oids, column.oids)
    column.check_invariants()


def test_sorted_piece_is_sorted_once_and_kept_by_a_merge():
    column = CrackedColumn.from_arrays(
        np.random.default_rng(1).permutation(500), crack_threshold=10**6
    )
    column.range_select(10, 20)
    column.range_select(30, 40)
    assert column.observability()["sorted_pieces"] == 1
    assert column.crack_stats.sorts == 1
    assert column.crack_stats.tuples_touched == 500
    column.append([15, 15])
    assert column.range_select(10, 20).count == 12
    # The merge put the new tuples at their searchsorted positions and
    # kept the span: nothing is sorted again.
    assert column.observability()["sorted_pieces"] == 1
    assert column.crack_stats.sorts == 1
    assert np.array_equal(column.values, np.sort(column.values))
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


def test_cracking_remembered_sorted_spans_leaves_them_sorted():
    """Lowering ``crack_threshold`` mid-stream: the pieces not sorted yet
    crack at every bound, and a span remembered as sorted is still
    binary-searched, so it stays sorted and remembered."""
    rng = np.random.default_rng(4)
    values = rng.integers(0, 2000, 4000)
    column = CrackedColumn.from_arrays(values, crack_threshold=150)
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
            column.crack_threshold = 0  # unsorted pieces now get cracked
    assert column.crack_stats.cracks > cracks_at_cutoff
    assert column._sorted_spans  # still remembered, still verified sorted


def tie_heavy_ints(rng):
    return rng.integers(0, 8, 10_000)


def tie_heavy_floats_with_nans(rng):
    values = rng.integers(0, 8, 10_000).astype(np.float64)
    values[rng.random(len(values)) < 0.05] = np.nan
    return values


@pytest.mark.parametrize("threshold", [DEFAULT_CRACK_THRESHOLD, 10**6])
@pytest.mark.parametrize("make", [tie_heavy_ints, tie_heavy_floats_with_nans])
def test_unstable_piece_sort_keeps_tie_heavy_columns_exact(make, threshold):
    """The cut-off sort may put tied values (and NaNs) in any order: a
    tuple keeps its oid, a sorted span stays sorted and no answer moves."""
    rng = np.random.default_rng(12)
    values = make(rng)
    column = CrackedColumn.from_arrays(values, crack_threshold=threshold)
    oracle = Oracle(values)
    bounds = list(range(-1, 9)) + [None]
    if values.dtype.kind == "f":
        bounds += [3.5, np.nan]
    for step in range(150):
        low, high = (bounds[i] for i in rng.integers(0, len(bounds), 2))
        low_inclusive, high_inclusive = step % 2 == 0, step % 3 != 0
        result = column.range_select(low, high, low_inclusive, high_inclusive)
        order = np.argsort(result.oids)
        expected_oids, expected_values = oracle.select(
            low, high, low_inclusive, high_inclusive
        )
        assert np.array_equal(result.oids[order], expected_oids)
        assert np.array_equal(result.values[order], expected_values, equal_nan=True)
        by_oid = np.argsort(column.oids)
        assert np.array_equal(column.oids[by_oid], oracle.oids)
        assert np.array_equal(column.values[by_oid], values, equal_nan=True)
        for start, stop in column._sorted_spans:
            span = column.values[start:stop]
            assert np.array_equal(span, np.sort(span), equal_nan=True)
        column.check_invariants()
    assert column.crack_stats.sorts


@pytest.mark.parametrize("cracking", [False, True])
def test_a_lower_bound_alone_leaves_stored_nans_out(cracking):
    """NaN sorts last and lands right of every boundary, so a one-sided
    ``a > x`` must stop at +inf to count what a scan (and sqlite) counts."""
    db = Database(cracking=cracking)
    schema = Schema([Column("k", "int"), Column("w", "float")])
    w = np.array([1.0, np.nan, 5.0, 3.0, np.nan, 7.0])
    db.catalog.create_table(
        Relation.from_columns("r", schema, {"k": np.arange(len(w)), "w": w})
    )
    for predicate, count in [("w > 3", 2), ("w >= 0", 4), ("w < 4", 2), ("w > 9", 0)]:
        assert db.execute(f"SELECT count(*) FROM r WHERE {predicate}").scalar() == count
        assert len(db.execute(f"SELECT k FROM r WHERE {predicate}").rows) == count


# ---------------------------------------------------------------------- #
# Pivots above PIVOT_FACTOR * T
# ---------------------------------------------------------------------- #

ROWS = 200_000
PERMUTATION = np.random.default_rng(11).permutation(ROWS)


def sliding_window(rows=ROWS, queries=1024):
    """The ledger's ``cold_burst`` window: closed ranges that slide one
    step of ``rows // queries`` (195 here) per query, five steps wide."""
    step = rows // queries
    return [(i * step, (i + 5) * step) for i in range(queries)]


def replay(bounds, values=PERMUTATION, threshold=DEFAULT_CRACK_THRESHOLD):
    """A fresh column that has answered the closed ranges ``bounds``."""
    column = CrackedColumn.from_arrays(values, crack_threshold=threshold)
    for low, high in bounds:
        column.count_range(low, high, True, True)
    column.check_invariants()
    return column


def without_pivots(monkeypatch):
    """Switch the rule off for the rest of a test: no piece is that large."""
    monkeypatch.setattr(cracked_column, "PIVOT_FACTOR", 10**18)


def test_sliding_window_stops_repartitioning_the_remainder(monkeypatch):
    stats = replay(sliding_window()).crack_stats
    assert stats.tuples_touched <= 5_000_000
    assert 0 < stats.pivot_cracks < stats.cracks
    # Query bounds alone: every high bound lands in the uncracked
    # remainder and partitions nearly all of it again (~500 columns).
    without_pivots(monkeypatch)
    assert replay(sliding_window()).crack_stats.tuples_touched > 100_000_000


def test_uniform_ranges_pay_little_for_pivots(monkeypatch):
    """The first bounds halve the whole column, which costs uniform
    ranges work up front; later pieces are balanced and cheaper.  A
    single stream's total swings with where its first bounds land, so
    the guard sums eight."""
    rng = np.random.default_rng(11)
    streams = []
    for _ in range(8):
        lows = rng.integers(0, ROWS, 1024)
        highs = lows + rng.integers(1, ROWS // 4, 1024)
        streams.append(list(zip(lows.tolist(), highs.tolist())))

    def touched():
        return sum(replay(stream).crack_stats.tuples_touched for stream in streams)

    with_pivots = touched()
    without_pivots(monkeypatch)
    assert with_pivots <= 1.1 * touched()


def test_uniform_ranges_converge_to_few_sorted_pieces():
    """At the shipped cut-off, the ledger's uniform stream leaves the
    column in ~100 pieces (754 at T = 512): the burn-in ends by sorting
    a few thousand tuples, not by cracking them."""
    rng = np.random.default_rng(11)
    lows = rng.integers(0, ROWS, 1024)
    highs = lows + rng.integers(1, ROWS // 4, 1024)
    column = replay(zip(lows.tolist(), highs.tolist()))
    assert column.piece_count <= 150
    assert column.crack_stats.sorts


def test_without_a_threshold_every_boundary_is_a_query_bound():
    rng = np.random.default_rng(3)
    lows = rng.integers(0, 20_000, 200)
    bounds = sliding_window(20_000, 200) + list(
        zip(lows.tolist(), (lows + rng.integers(1, 5000, 200)).tolist())
    )
    column = replay(bounds, rng.permutation(20_000), threshold=0)
    asked = {(low, KIND_LT) for low, _ in bounds} | {(high, KIND_LE) for _, high in bounds}
    assert column.crack_stats.pivot_cracks == 0
    assert {(b.value, b.kind) for b in map(column.index.boundary_at, range(len(column.index)))} <= asked


N = 50_000
DEGENERATE = {
    "all_equal": np.full(N, 7),
    "two_valued": np.random.default_rng(5).integers(0, 2, N),
    "sorted": np.arange(N),
    "reverse_sorted": np.arange(N)[::-1].copy(),
    "organ_pipe": np.concatenate([np.arange(N // 2), np.arange(N // 2)[::-1]]),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_columns_terminate_in_bounded_work(name):
    values = DEGENERATE[name]
    column = CrackedColumn.from_arrays(values, crack_threshold=64)
    first, last = int(values.min()) - 2, int(values.max()) + 2
    rng = np.random.default_rng(9)
    lows = rng.integers(first, last + 1, 100)
    bounds = list(window(np.array([first, last]), 100)) + list(
        zip(lows.tolist(), (lows + rng.integers(0, last - first + 1, 100)).tolist())
    )
    for low, high in bounds:
        before = column.crack_stats.tuples_touched
        result = column.range_select(low, high, True, True)
        assert column.crack_stats.tuples_touched - before <= 10 * N
        assert result.count == np.count_nonzero((values >= low) & (values <= high))
    column.check_invariants()


def test_pivot_above_two_to_the_53_is_taken():
    """Odd values above 2**53 have no float64 form, and the index keys
    an int column by its ints: the rule halves at them as anywhere."""
    values = 2**60 + 1 + 256 * np.arange(10_000, dtype=np.int64)
    column = CrackedColumn.from_arrays(
        np.random.default_rng(0).permutation(values), crack_threshold=16
    )
    low = 2**60 + 256 * 5000
    assert column.range_select(low).count == 5000
    assert column.crack_stats.pivot_cracks > 0
    keys, _ = column.index.keys()
    assert keys.dtype == np.int64 and (keys % 2 == 1).any()
    column.check_invariants()


def test_a_nan_pivot_is_skipped():
    """A float column mostly NaN: the median probe is NaN, which no
    boundary can hold, so the rule stops and the bound cracks as usual."""
    values = np.full(1000, np.nan)
    values[:10] = np.arange(10)
    column = CrackedColumn.from_arrays(
        np.random.default_rng(0).permutation(values), crack_threshold=16
    )
    assert column.range_select(3.0).count == 7
    assert column.crack_stats.pivot_cracks == 0
    column.check_invariants()


def test_snapshot_held_across_pivot_cracks_stays_byte_identical():
    values = np.random.default_rng(2).permutation(10_000)
    column = CrackedColumn.from_arrays(values, crack_threshold=100)
    answer = column.range_select()  # the whole column, uncracked
    frozen_values, frozen_oids = answer.values.copy(), answer.oids.copy()
    quarter = len(values) // 4
    pivot = int(np.median(values[[quarter, len(values) // 2, -quarter]]))
    # The first pivot is this very bound: no crack at the bound follows.
    assert column.range_select(pivot).count == len(values) - pivot
    stats = column.crack_stats
    assert (stats.pivot_cracks, stats.cracks, stats.sorts) == (1, 1, 0)
    assert np.array_equal(answer.values, frozen_values)
    assert np.array_equal(answer.oids, frozen_oids)
    assert not np.shares_memory(answer.values, column.values)
    assert not np.shares_memory(answer.oids, column.oids)
    column.check_invariants()


def test_restart_keeps_pivot_boundaries_and_does_not_crack_again():
    bounds = sliding_window(50_000, 256)
    column = replay(bounds, np.random.default_rng(8).permutation(50_000))
    assert column.crack_stats.pivot_cracks
    reopened = CrackedColumn.from_state(column.export_state())
    reopened.crack_threshold = DEFAULT_CRACK_THRESHOLD
    assert len(reopened.index) == len(column.index)
    assert [reopened.index.boundary_at(i) for i in range(len(column.index))] == [
        column.index.boundary_at(i) for i in range(len(column.index))
    ]
    for low, high in bounds:
        assert reopened.count_range(low, high, True, True) == column.count_range(
            low, high, True, True
        )
    stats = reopened.crack_stats
    assert (stats.cracks, stats.sorts, stats.tuples_touched) == (0, 0, 0)


def _profiled_database(rows=20_000):
    db = Database(cracking=True, profile=True)
    schema = Schema([Column("k", "int"), Column("a", "int")])
    values = np.random.default_rng(6).permutation(rows)
    db.catalog.create_table(
        Relation.from_columns("r", schema, {"k": np.arange(rows), "a": values})
    )
    return db


def test_pivot_cracks_reach_lineage_stats_and_repro_stats():
    db = _profiled_database()
    for low, high in sliding_window(20_000, 32):
        db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {high}")
    stats = db.stats()
    detail = stats["cracker_detail"]["r.a"]
    assert 0 < detail["pivot_cracks"] < detail["cracks"]
    lineage = stats["lineage"]["r.a"]
    assert lineage["total_events"] == len(lineage["events"])  # nothing evicted
    moved = sum(event.get("moved", 0) for event in lineage["events"])
    assert moved == detail["tuples_moved"]
    text = "\n".join(_render_stats({**stats, "server": {}, "gateway": {}}))
    assert f"{detail['cracks']} cracks, {detail['pivot_cracks']} at pivots" in text
    sample = f'repro_cracker_pivot_cracks{{column="r.a"}} {detail["pivot_cracks"]}'
    assert sample in db.metrics.render()
