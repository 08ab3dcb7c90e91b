"""The write path costs what a statement changes, not what the column holds.

``CrackedColumn`` answers "is this oid in storage?" from per-oid flags,
and ``Relation`` keeps its tombstones sorted with binary search.  The
whole-column numpy set operations they replace stay here as the
reference: ``np.isin(oids, column.oids)`` for the flags and
``np.setdiff1d``/``np.union1d`` for the tombstone set.  Partial merges,
sorted pieces that stay sorted, snapshots held across a merge and counts
that merge nothing are checked against a model of the live rows.  A
key-range UPDATE or DELETE allocates for the rows in its key window,
not for the table.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cracked_column
from repro.core.cracked_column import DEFAULT_CRACK_THRESHOLD, CrackedColumn
from repro.errors import CrackError, StorageError
from repro.sql import Database
from repro.storage.table import Column, Relation, Schema


def _has_pending(column) -> bool:
    """Anything buffered: inserts, deletes or updates not yet merged."""
    stats = column.observability()
    return bool(
        stats["pending_inserts"] or stats["pending_deletes"] or stats["pending_updates"]
    )



def reference_stored(column: CrackedColumn) -> np.ndarray:
    """The old expression: membership by a full compare over storage."""
    return np.isin(np.arange(len(column._state)), column.oids)


def assert_bitmap_matches_storage(column: CrackedColumn) -> None:
    stored = column._is_stored(np.arange(len(column._state)))
    assert np.array_equal(stored, reference_stored(column))
    column.check_invariants()


def stored_rows(column: CrackedColumn, low=None, high=None) -> list:
    """``(oid, value)`` pairs physically in storage, in ``[low, high]``."""
    values, oids = column.values, column.oids
    keep = np.ones(len(values), dtype=bool)
    if low is not None:
        keep &= values >= low
    if high is not None:
        keep &= values <= high
    return sorted(zip(oids[keep].tolist(), values[keep].tolist()))


# ---------------------------------------------------------------------- #
# CrackedColumn: DML interleavings against a numpy model
# ---------------------------------------------------------------------- #

#: Oids drawn from here are negative, stored, pending-insert, deleted or
#: never seen, depending on when they are used; lists repeat them.
OIDS = st.lists(st.integers(min_value=-3, max_value=60), max_size=8)
VALUES = st.integers(min_value=0, max_value=40)

OPS = st.one_of(
    st.tuples(st.just("append"), st.lists(VALUES, min_size=1, max_size=5)),
    st.tuples(st.just("delete"), OIDS),
    st.tuples(st.just("update"), OIDS, st.lists(VALUES, min_size=8, max_size=8)),
    st.tuples(st.just("select"), VALUES, VALUES),
    # Ranges placed against the values pending right now.
    st.tuples(
        st.just("near"),
        st.sampled_from(["miss", "straddle", "contain", "one-sided"]),
    ),
)


class Model:
    """The live rows, ``{oid: value}``."""

    def __init__(self, values: list[int]) -> None:
        self.live = dict(enumerate(values))

    def old_values(self, oids: list[int]) -> list[int]:
        """What the SQL layer passes: each live row's current value (any
        value for an oid that is not live; the column ignores it)."""
        return [self.live.get(oid, 0) for oid in oids]

    def delete(self, oids: list[int]) -> int:
        distinct = set(oids) & set(self.live)
        for oid in distinct:
            del self.live[oid]
        return len(distinct)

    def update(self, oids: list[int], values: list[int]) -> int:
        written = {o: v for o, v in zip(oids, values) if o in self.live}
        self.live.update(written)
        return len(written)

    def rows(self, low=None, high=None) -> list[tuple[int, int]]:
        return sorted(
            (o, v) for o, v in self.live.items()
            if (low is None or v >= low) and (high is None or v <= high)
        )


def near_range(column: CrackedColumn, mode: str):
    """A range that misses, straddles or contains the pending values."""
    pending = np.concatenate((column._ins_values, column._del_values))
    if pending.size == 0:
        return 5, 25
    low, high = int(pending.min()), int(pending.max())
    if mode == "miss":
        return high + 1, high + 10
    if mode == "straddle":
        return (low + high) // 2, high + 10
    if mode == "contain":
        return low, high + 1
    return low, None


@pytest.mark.parametrize("threshold", [0, 512])
@settings(max_examples=200, deadline=None)
@given(
    initial=st.lists(VALUES, min_size=0, max_size=30),
    ops=st.lists(OPS, max_size=25),
)
def test_dml_interleavings_match_the_model(threshold, initial, ops):
    column = CrackedColumn.from_arrays(
        np.asarray(initial, dtype=np.int64), crack_threshold=threshold
    )
    model = Model(initial)
    for op in ops:
        kind = op[0]
        if kind == "append":
            oids = column.append(op[1])
            model.live.update(zip(oids.tolist(), op[1]))
        elif kind == "delete":
            probe = np.asarray(op[1], dtype=np.int64)
            assert np.array_equal(
                column._is_stored(probe), np.isin(probe, column.oids)
            )
            old = model.old_values(op[1])
            assert column.delete(op[1], old) == model.delete(op[1])
        elif kind == "update":
            oids, values = op[1], op[2][: len(op[1])]
            old = model.old_values(oids)
            assert column.update(oids, values, old) == model.update(oids, values)
        else:
            low, high = (
                sorted(op[1:]) if kind == "select" else near_range(column, op[1])
            )
            result = column.range_select(low, high, high_inclusive=True)
            got = sorted(zip(result.oids.tolist(), result.values.tolist()))
            assert got == model.rows(low, high)
            # What the range can see is merged; storage agrees with the
            # live rows there, whatever else is still pending.
            assert stored_rows(column, low, high) == model.rows(low, high)
        assert_bitmap_matches_storage(column)
    column.range_select()  # unbounded: merges everything
    assert not _has_pending(column)
    assert stored_rows(column) == model.rows()
    assert_bitmap_matches_storage(column)


def test_bitmap_grows_past_its_initial_length():
    column = CrackedColumn.from_arrays(np.empty(0, dtype=np.int64))
    assert len(column._state) == 0
    column.append(np.arange(5))
    column.append([7], oids=[1000])
    assert column.range_select(None, None).count == 6
    assert len(column._state) >= 1001
    assert_bitmap_matches_storage(column)
    assert column.delete([1000, 3, 5000, -1], [7, 3, 0, 0]) == 2
    assert column.range_select(None, None).count == 4
    assert_bitmap_matches_storage(column)


def test_last_write_wins_in_the_insert_buffer_too():
    column = CrackedColumn.from_arrays(np.arange(3))
    column.append([5])
    assert column.update([3, 0, 3, 0], [1, 7, 2, 8], [5, 0, 5, 0]) == 2
    result = column.range_select(None, None)
    assert sorted(zip(result.oids.tolist(), result.values.tolist())) == [
        (0, 8), (1, 1), (2, 2), (3, 2),
    ]


def test_append_rejects_negative_oids():
    column = CrackedColumn.from_arrays(np.arange(4))
    with pytest.raises(CrackError):
        column.append([1], oids=[-1])


def test_invariants_catch_a_reused_oid_and_a_stale_bitmap():
    column = CrackedColumn.from_arrays(np.arange(10))
    column._ins_values, column._ins_oids = np.array([3]), np.array([4])
    with pytest.raises(CrackError, match="reuses an oid"):
        column.check_invariants()
    column = CrackedColumn.from_arrays(np.arange(10))
    column._state[2] = 0
    with pytest.raises(CrackError, match="bitmap"):
        column.check_invariants()
    column = CrackedColumn.from_arrays(np.arange(10))
    column.delete([4], [4])
    column._del_values[0] = 5
    with pytest.raises(CrackError, match="does not hold"):
        column.check_invariants()
    column = CrackedColumn.from_arrays(np.arange(10))
    column.append([5])
    column._state[10] = 0  # the pending insert lost its flag
    with pytest.raises(CrackError, match="pending insert buffer"):
        column.check_invariants()


def test_restored_column_rebuilds_the_bitmap_and_merges_buffered_dml():
    rng = np.random.default_rng(3)
    # 4 000 rows: the DML below stays under the write-side backstop
    # (1/8 of the column), so it is still buffered at the export.
    data = rng.permutation(4000)
    column = CrackedColumn.from_arrays(data)
    for low in range(0, 400, 50):
        column.range_select(low, low + 25)
    column.append([1000, 1001])
    gone, changed = np.arange(0, 400, 7), np.arange(1, 400, 11)
    column.delete(gone, data[gone])
    column.update(changed, np.full(37, 2000), data[changed])
    column.range_select(150, 250)  # a partial merge: the rest stays pending
    state = column.export_state()
    assert "stored" not in " ".join(state)  # derived, never persisted
    clone = CrackedColumn.from_state(state)
    assert clone.observability()["pending_deletes"] and clone.pending_update_count
    pending = ("pending_inserts", "pending_deletes", "pending_updates")
    assert [clone.observability()[key] for key in pending] == [
        column.observability()[key] for key in pending
    ]
    assert np.array_equal(
        np.trim_zeros(clone._state, "b"), np.trim_zeros(column._state, "b")
    )
    left = column.range_select(100, 2001)
    right = clone.range_select(100, 2001)
    assert sorted(left.oids.tolist()) == sorted(right.oids.tolist())
    assert sorted(left.values.tolist()) == sorted(right.values.tolist())
    assert_bitmap_matches_storage(clone)


# ---------------------------------------------------------------------- #
# The early exit: rows all stored and unchanged skip the general path
# ---------------------------------------------------------------------- #

#: 400 stored rows.  Oids 0-11 are the hot set that updates and deletes
#: keep doomed or queued; 400-405 are never seen until appends hand
#: them out; 700 lies inside the grown flag array, 9999 past it.
HOT_OIDS = [-3, -1, *range(12), *range(400, 406), 700, 9999]
EARLY_OIDS = st.one_of(
    st.lists(st.sampled_from(HOT_OIDS), max_size=8),
    # A key-range DML's rows: a run of stored oids, clean unless an
    # earlier statement touched them.
    st.builds(lambda low, count: list(range(low, low + count)),
              st.integers(0, 390), st.integers(1, 10)),
)
EARLY_VALUES = st.integers(min_value=0, max_value=100)
EARLY_OPS = st.one_of(
    st.tuples(st.just("append"), st.lists(EARLY_VALUES, min_size=1, max_size=5)),
    st.tuples(st.just("delete"), EARLY_OIDS),
    st.tuples(st.just("update"), EARLY_OIDS, EARLY_VALUES),
    st.tuples(st.just("count"), EARLY_VALUES, EARLY_VALUES, st.booleans()),
    st.tuples(st.just("select"), EARLY_VALUES, EARLY_VALUES),
)


@pytest.mark.parametrize("threshold", [0, 512])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(ops=st.lists(EARLY_OPS, max_size=30))
def test_early_exit_matches_the_model(threshold, ops):
    initial = np.random.default_rng(1).integers(0, 100, 400)
    column = CrackedColumn.from_arrays(initial, crack_threshold=threshold)
    model = Model(initial.tolist())
    for op in ops:
        kind = op[0]
        if kind == "append":
            oids = column.append(op[1])
            model.live.update(zip(oids.tolist(), op[1]))
        elif kind == "delete":
            assert column.delete(op[1], model.old_values(op[1])) == model.delete(op[1])
        elif kind == "update":
            # Distinct new values: their buffer slots differ, unless one row.
            oids, values = op[1], [op[2] + i for i in range(len(op[1]))]
            old = model.old_values(oids)
            assert column.update(oids, values, old) == model.update(oids, values)
        elif kind == "count":
            (low, high), inclusive = sorted(op[1:3]), op[3]
            expected = sum(
                low <= v and (v <= high if inclusive else v < high)
                for v in model.live.values()
            )
            assert column.count_range(low, high, high_inclusive=inclusive) == expected
        else:
            low, high = sorted(op[1:])
            result = column.range_select(low, high, high_inclusive=True)
            got = sorted(zip(result.oids.tolist(), result.values.tolist()))
            assert got == model.rows(low, high)
        assert_bitmap_matches_storage(column)
    result = column.range_select()
    assert sorted(zip(result.oids.tolist(), result.values.tolist())) == model.rows()


# ---------------------------------------------------------------------- #
# A write-only stream stays bounded
# ---------------------------------------------------------------------- #


def test_writes_without_reads_keep_the_buffers_bounded():
    """With no read in between, a write merges the buffers once they
    pass twice a read's share (1/8 of the column), so an UPDATE never
    pays for every earlier one."""
    n = 20_000
    rng = np.random.default_rng(5)
    values = rng.permutation(n)
    column = CrackedColumn.from_arrays(values, crack_threshold=DEFAULT_CRACK_THRESHOLD)
    for low in rng.integers(0, n, 300):
        column.range_select(int(low), int(low) + 500)
    live = np.ones(n, dtype=bool)
    merges = 0
    for statement in range(2000):
        rows = 50 if statement % 2 else 10
        oids = np.arange(*sorted(rng.integers(0, n - rows, 1) + [0, rows]))
        before = column.query_stats.merged_updates
        if rows == 50:
            new = rng.integers(0, n, 1).repeat(rows)
            assert column.update(oids, new, values[oids]) == np.count_nonzero(live[oids])
            values[oids[live[oids]]] = new[0]
        else:
            assert column.delete(oids, values[oids]) == np.count_nonzero(live[oids])
            live[oids] = False
        merges += column.query_stats.merged_updates != before
        pending = len(column._ins_oids) + len(column._del_oids)
        assert pending <= len(column) / 8 + 2 * rows
        column.check_invariants()
    assert merges >= 10  # the backstop ran: 2 000 writes far exceed n / 8
    result = column.range_select()
    assert sorted(zip(result.oids.tolist(), result.values.tolist())) == sorted(
        zip(np.flatnonzero(live).tolist(), values[live].tolist())
    )
    column.check_invariants()


# ---------------------------------------------------------------------- #
# Partial merges, sorted pieces, snapshots
# ---------------------------------------------------------------------- #


def converged(n: int = 20_000, seed: int = 0) -> CrackedColumn:
    """A column at the shipped cut-off, every piece sorted."""
    rng = np.random.default_rng(seed)
    column = CrackedColumn.from_arrays(
        rng.permutation(n), crack_threshold=DEFAULT_CRACK_THRESHOLD
    )
    for low in rng.integers(0, n, 400):
        column.range_select(int(low), int(low) + int(rng.integers(1, n // 4)))
    edges = column._edges()
    for start, stop in zip(edges[:-1].tolist(), edges[1:].tolist()):
        if start < stop and (start, stop) not in column._sorted_spans:
            column._sort_piece(start, stop)
    return column


def delete_at(column: CrackedColumn, positions) -> None:
    """Delete the stored rows at ``positions``, passing their values."""
    column.delete(column.oids[positions], column.values[positions])


def test_a_merge_takes_only_what_the_range_sees():
    column = converged()
    column.append([100, 15_000])
    low_value, high_value = int(column.values[0]), int(column.values[-1])
    delete_at(column, [0, -1])
    column.range_select(50, 200)
    assert column._ins_values.tolist() == [15_000]
    assert sorted(column._del_values.tolist()) == sorted(
        v for v in (low_value, high_value) if not 50 <= v <= 200
    )
    column.check_invariants()


def test_sorted_pieces_survive_merges_and_are_never_sorted_again():
    column = converged()
    # A merge drops the span of an empty piece; every other one shifts.
    spans = sum(start < stop for start, stop in column._sorted_spans)
    sorts = column.crack_stats.sorts
    rng = np.random.default_rng(1)
    for _ in range(30):
        column.append(rng.integers(0, 20_000, 5))
        delete_at(column, rng.choice(len(column), 3, replace=False))
        low = int(rng.integers(0, 19_000))
        column.range_select(low, low + 1000)
        column.check_invariants()
    column.range_select()  # merges the rest
    assert not _has_pending(column)
    assert column.observability()["sorted_pieces"] == spans
    for low in range(0, 20_000, 100):
        column.range_select(low, low + 1)
    column.check_invariants()
    assert column.crack_stats.sorts == sorts


def test_snapshot_held_across_a_merge_keeps_its_contents():
    column = converged()
    answer = column.range_select(4000, 9000)
    frozen_values, frozen_oids = answer.values.copy(), answer.oids.copy()
    column.append(np.arange(0, 20_000, 997))
    column.delete(answer.oids[:10], answer.values[:10])
    column.range_select()
    assert np.array_equal(answer.values, frozen_values)
    assert np.array_equal(answer.oids, frozen_oids)
    assert not np.shares_memory(answer.values, column.values)
    assert not np.shares_memory(answer.oids, column.oids)
    assert column.range_select(4000, 9000).count == len(frozen_values) - 10 + 5
    column.check_invariants()


def test_merge_places_inserts_where_a_per_piece_search_does():
    """A tuple merged into a remembered sorted piece lands where searching
    that piece alone puts it: the per-piece loop the one binary search
    over the receiving pieces replaced."""
    rng = np.random.default_rng(7)
    column = CrackedColumn.from_arrays(rng.permutation(5000), crack_threshold=64)
    for low in rng.integers(0, 5000, 400):
        column.count_range(int(low), int(low) + 40)
    column.append(rng.integers(0, 5000, 300))  # under both drain shares
    values, oids = column.values.copy(), column.oids.copy()
    edges = np.concatenate(([0], column.index.positions(), [len(values)]))
    spans = [(start, stop) for start, stop in column._sorted_spans if start < stop]
    assert spans
    ins_values, ins_oids = column._ins_values.copy(), column._ins_oids.copy()
    pieces = column.index.piece_assignment(ins_values)
    at = edges[pieces].copy()
    for i, (value, piece) in enumerate(zip(ins_values.tolist(), pieces.tolist())):
        start, stop = int(edges[piece]), int(edges[piece + 1])
        if any(low <= start and stop <= high for low, high in spans):
            at[i] = start + values[start:stop].searchsorted(value, "right")
    column.range_select()  # merges everything
    assert np.array_equal(column.values, np.insert(values, at, ins_values))
    assert np.array_equal(column.oids, np.insert(oids, at, ins_oids))
    column.check_invariants()


# ---------------------------------------------------------------------- #
# Counts merge nothing
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("threshold", [0, 512])
@settings(max_examples=100, deadline=None)
@given(
    initial=st.lists(VALUES, min_size=1, max_size=30),
    ops=st.lists(OPS, max_size=25),
    inclusive=st.tuples(st.booleans(), st.booleans()),
)
def test_counts_match_the_model_and_merge_nothing(threshold, initial, ops, inclusive):
    column = CrackedColumn.from_arrays(
        np.asarray(initial, dtype=np.int64), crack_threshold=threshold
    )
    model = Model(initial)
    low_inclusive, high_inclusive = inclusive
    for op in ops:
        kind = op[0]
        if kind == "append":
            oids = column.append(op[1])
            model.live.update(zip(oids.tolist(), op[1]))
        elif kind == "delete":
            column.delete(op[1], model.old_values(op[1]))
            model.delete(op[1])
        elif kind == "update":
            oids, values = op[1], op[2][: len(op[1])]
            column.update(oids, values, model.old_values(oids))
            model.update(oids, values)
        else:
            low, high = (
                sorted(op[1:]) if kind == "select" else near_range(column, op[1])
            )
            merged = column.query_stats.merged_updates
            pending = len(column._ins_oids) + len(column._del_oids)
            drains = pending > cracked_column.PENDING_SHARE * len(column)
            got = column.count_range(low, high, low_inclusive, high_inclusive)
            expected = sum(
                (low < v or (low_inclusive and low == v))
                and (high is None or v < high or (high_inclusive and high == v))
                for v in model.live.values()
            )
            assert got == expected
            if not drains or (
                low == high and not (low_inclusive and high_inclusive)
            ):
                assert column.query_stats.merged_updates == merged
            else:
                assert not _has_pending(column)  # past the bound: all merged
        column.check_invariants()


# ---------------------------------------------------------------------- #
# DELETE's tombstones against setdiff1d / union1d
# ---------------------------------------------------------------------- #
#
# ``Relation.delete_positions`` takes what the DML matcher gives —
# ascending, distinct, live positions — and only places them.  Repeats,
# rows already tombstoned and an unsorted key are the matcher's to
# absorb, so these cases run as DELETE statements.


def reference_delete(deleted: np.ndarray, positions) -> tuple[np.ndarray, int]:
    """The old expressions: set difference, then union."""
    fresh = np.setdiff1d(np.asarray(positions, dtype=np.int64), deleted)
    return (np.union1d(deleted, fresh) if fresh.size else deleted), int(fresh.size)


def make_relation(rows: int) -> Relation:
    schema = Schema([Column("a", "int")])
    return Relation.from_columns("t", schema, {"a": list(range(rows))})


def tombstone_table(shuffled: bool) -> tuple[Database, np.ndarray]:
    """``t(a)`` of 50 rows: ``a`` ascending, so a DELETE matches in its
    key window, or shuffled, so it scans the whole table."""
    keys = np.arange(50)
    if shuffled:
        keys = np.random.default_rng(0).permutation(50)
    db = Database()
    db.catalog.create_table(
        Relation.from_columns("t", Schema([Column("a", "int")]), {"a": keys})
    )
    return db, keys


def delete_range(db, keys, expected, low: int, high: int) -> np.ndarray:
    """DELETE ``low <= a <= high``, checked against the reference."""
    expected, fresh = reference_delete(
        expected, np.flatnonzero((keys >= low) & (keys <= high))
    )
    assert db.execute(f"DELETE FROM t WHERE a BETWEEN {low} AND {high}").affected == fresh
    assert np.array_equal(db.catalog.table("t").deleted_positions(), expected)
    return expected


@settings(max_examples=100, deadline=None)
@given(
    batches=st.lists(
        st.tuples(st.integers(0, 49), st.integers(0, 12)), max_size=8
    ),
    shuffled=st.booleans(),
)
def test_delete_positions_matches_setdiff_union(batches, shuffled):
    db, keys = tombstone_table(shuffled)
    expected = np.empty(0, dtype=np.int64)
    for low, width in batches:
        expected = delete_range(db, keys, expected, low, low + width)


@pytest.mark.parametrize(
    "ranges,shuffled",
    [([(9, 2)], False), ([(3, 9), (3, 9)], False), ([(0, 6)], False),
     ([(10, 40), (0, 49)], True)],
    ids=["empty", "duplicates", "already-tombstoned", "unsorted"],
)
def test_delete_positions_edge_cases(ranges, shuffled):
    db, keys = tombstone_table(shuffled)
    expected = np.empty(0, dtype=np.int64)
    for key in (2, 5, 30):
        expected = delete_range(db, keys, expected, key, key)
    for low, high in ranges:
        expected = delete_range(db, keys, expected, low, high)
    assert db.catalog.table("t").deleted_positions().dtype == np.int64


@pytest.mark.parametrize("bad", [[-1], [3, 50]])
def test_delete_positions_out_of_range_error_unchanged(bad):
    relation = make_relation(50)
    relation.delete_positions(np.array([4]))
    with pytest.raises(StorageError, match=r"out of range 0\.\.49"):
        relation.delete_positions(np.asarray(bad))
    assert relation.deleted_positions().tolist() == [4]


# ---------------------------------------------------------------------- #
# Structural guard: no whole-column set operation on the write path
# ---------------------------------------------------------------------- #


def dml_round(column: CrackedColumn, data: np.ndarray, rng) -> None:
    """One mixed_dml-sized round of the SQL layer's DML: 10 inserts, 10
    deletes and a 50-row update, the latter two passing each row's
    current value as ``CrackerProvider`` does."""
    n = len(data)
    gone, changed = np.split(rng.choice(n, 60, replace=False), [10])
    column.append(rng.integers(0, n, 10))
    column.delete(gone, data[gone])
    column.update(changed, np.full(50, -1), data[changed])


def full_buffers(n: int) -> tuple[CrackedColumn, np.ndarray]:
    """A converged column whose buffers are about to drain: the most a
    DML statement finds queued ahead of it."""
    rng = np.random.default_rng(0)
    data = rng.permutation(n)
    column = CrackedColumn.from_arrays(data, crack_threshold=512)
    for low in rng.integers(0, n, 2000):
        column.range_select(int(low), int(low) + int(rng.integers(1, n // 4)))
    queued = int(cracked_column.PENDING_SHARE * n) // 2 - 100
    inserts = rng.integers(0, n, queued)
    column.append(inserts)
    column.delete(np.arange(queued), data[:queued])
    assert column.count_range(0, n) == n  # a count does not drain them
    assert _has_pending(column)
    return column, data


def test_write_path_runs_no_whole_column_set_operation(monkeypatch):
    n = 100_000
    rng = np.random.default_rng(0)
    column, data = full_buffers(n)
    relation = make_relation(n)
    relation.delete_positions(np.sort(rng.choice(n, n // 2, replace=False)))
    doomed = np.sort(rng.choice(relation.live_positions(), 60, replace=False))

    sizes: list[int] = []
    sorted_sizes: list[int] = []

    def recording(name, into):
        original = getattr(np, name)

        def wrapper(*args, **kwargs):
            into.extend(np.size(arg) for arg in args if isinstance(arg, np.ndarray))
            return original(*args, **kwargs)

        return wrapper

    for name in ("isin", "setdiff1d", "union1d", "unique"):
        monkeypatch.setattr(np, name, recording(name, sizes))
    for name in ("argsort", "sort", "lexsort"):
        monkeypatch.setattr(np, name, recording(name, sorted_sizes))
    pending = len(column._ins_oids) + len(column._del_oids)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dml_round(column, data, rng)
        column.count_range(n // 3, n // 2)  # merges nothing
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    relation.delete_positions(doomed)
    monkeypatch.undo()
    assert max(sizes, default=0) < n // 2
    # Queueing sorts what the statement changes, never the buffer: each
    # statement copies the buffers once, which is all it allocates.
    assert max(sorted_sizes) <= 60
    assert peak < 6 * pending * data.itemsize < n * data.itemsize
    column.check_invariants()


# ---------------------------------------------------------------------- #
# Structural guard: key-range DML matches inside its key window
# ---------------------------------------------------------------------- #

KEY_RANGE_DML = [
    ("UPDATE r SET a = -7 WHERE k BETWEEN 1000 AND 1049", 50),
    ("DELETE FROM r WHERE k >= 5000 AND k < 5010", 10),
]


def keyed_database(keys: np.ndarray, a: np.ndarray) -> Database:
    """``r(k, a)`` with ``a`` cracked and its pending buffers empty."""
    db = Database()
    db.catalog.create_table(Relation.from_columns(
        "r", Schema([Column("k", "int"), Column("a", "int")]), {"k": keys, "a": a},
    ))
    db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN 10 AND {len(keys) // 3}")
    return db


def test_key_range_dml_allocates_what_it_touches(monkeypatch):
    n = 200_000
    rng = np.random.default_rng(0)
    a = rng.integers(0, n, n)
    windows: list[tuple[int, int]] = []
    live_mask = Relation.live_mask

    def recording(self, start, stop=None):
        windows.append((start, len(self) if stop is None else stop))
        return live_mask(self, start, stop)

    monkeypatch.setattr(Relation, "live_mask", recording)
    shuffled = rng.permutation(n)
    for keys in (np.arange(n), shuffled):
        db = keyed_database(keys, a)
        db.execute("UPDATE r SET a = -1 WHERE k BETWEEN 90 AND 139")  # compiles
        db.execute("DELETE FROM r WHERE k >= 190 AND k < 200")  # both templates
        windows.clear()
        for sql, affected in KEY_RANGE_DML:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert db.execute(sql).affected == affected
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            if keys is not shuffled:
                assert peak < n // 2
        widths = [stop - start for start, stop in windows]
        # The ascending key's window holds the statement's rows; a
        # shuffled key falls back to the whole table, and answers alike.
        assert widths == ([50, 10] if keys is not shuffled else [n, n])
        expected_a = a.copy()
        expected_a[(keys >= 90) & (keys <= 139)] = -1
        expected_a[(keys >= 1000) & (keys <= 1049)] = -7
        live = ~(((keys >= 190) & (keys < 200)) | ((keys >= 5000) & (keys < 5010)))
        rows = db.execute("SELECT r.k, r.a FROM r WHERE k BETWEEN 0 AND 6000").rows
        near = live & (keys <= 6000)
        assert sorted(rows) == sorted(zip(keys[near].tolist(), expected_a[near].tolist()))
        db.check_invariants()
