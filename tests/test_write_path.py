"""The write path finds changed rows in O(k), not O(n).

``CrackedColumn`` answers "is this oid in storage?" from a bitmap indexed
by oid, and ``Relation`` keeps its tombstones sorted with binary search.
The whole-column numpy set operations they replace stay here as the
reference: ``np.isin(oids, column.oids)`` for the bitmap and
``np.setdiff1d``/``np.union1d`` for the tombstone set.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cracked_column import CrackedColumn
from repro.errors import CrackError, StorageError
from repro.storage.table import Column, Relation, Schema


def reference_stored(column: CrackedColumn) -> np.ndarray:
    """The old expression: membership by a full compare over storage."""
    return np.isin(np.arange(len(column._stored)), column.oids)


def assert_bitmap_matches_storage(column: CrackedColumn) -> None:
    assert np.array_equal(column._stored, reference_stored(column))
    column.check_invariants()


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
)


class Model:
    """Visible rows plus the oids physically in storage.

    A deleted row stays in storage until the next query merges it out,
    and an UPDATE of such a row brings it back with the new value — the
    column's "physically in storage" semantics, which the bitmap keeps.
    """

    def __init__(self, values: list[int]) -> None:
        self.live = dict(enumerate(values))
        self.merged = set(self.live)

    def delete(self, oids: list[int]) -> int:
        distinct = set(oids)
        applied = len(distinct & (set(self.live) | self.merged))
        for oid in distinct:
            self.live.pop(oid, None)
        return applied

    def update(self, oids: list[int], values: list[int]) -> int:
        pending = set(self.live) - self.merged
        applied = len(set(oids) & pending)
        applied += sum(oid in self.merged for oid in oids if oid not in pending)
        for oid, value in zip(oids, values):
            if oid in self.live or oid in self.merged:
                self.live[oid] = value
        return applied

    def select(self, low: int, high: int) -> list[tuple[int, int]]:
        self.merged = set(self.live)
        return sorted((o, v) for o, v in self.live.items() if low <= v < high)


@pytest.mark.parametrize("threshold", [0, 512])
@settings(max_examples=150, deadline=None)
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
            assert column.delete(op[1]) == model.delete(op[1])
        elif kind == "update":
            oids, values = op[1], op[2][: len(op[1])]
            assert column.update(oids, values) == model.update(oids, values)
        else:
            low, high = sorted(op[1:])
            result = column.range_select(low, high)
            got = sorted(zip(result.oids.tolist(), result.values.tolist()))
            assert got == model.select(low, high)
        assert_bitmap_matches_storage(column)
        assert set(column.oids.tolist()) == model.merged


def test_bitmap_grows_past_its_initial_length():
    column = CrackedColumn.from_arrays(np.empty(0, dtype=np.int64))
    assert len(column._stored) == 0
    column.append(np.arange(5))
    column.append([7], oids=[1000])
    assert column.range_select(None, None).count == 6
    assert len(column._stored) >= 1001
    assert_bitmap_matches_storage(column)
    assert column.delete([1000, 3, 5000, -1]) == 2
    assert column.range_select(None, None).count == 4
    assert_bitmap_matches_storage(column)


def test_last_write_wins_in_the_insert_buffer_too():
    column = CrackedColumn.from_arrays(np.arange(3))
    column.append([5])
    assert column.update([3, 0, 3, 0], [1, 7, 2, 8]) == 3
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
    column._pending_values.append(np.array([3]))
    column._pending_oids.append(np.array([4]))
    with pytest.raises(CrackError, match="reuses an oid"):
        column.check_invariants()
    column = CrackedColumn.from_arrays(np.arange(10))
    column._stored[2] = False
    with pytest.raises(CrackError, match="bitmap"):
        column.check_invariants()


def test_restored_column_rebuilds_the_bitmap_and_merges_buffered_dml():
    rng = np.random.default_rng(3)
    column = CrackedColumn.from_arrays(rng.permutation(400))
    for low in range(0, 400, 50):
        column.range_select(low, low + 25)
    column.append([1000, 1001])
    column.delete(np.arange(0, 400, 7))
    column.update(np.arange(1, 400, 11), np.full(37, 2000))
    state = column.export_state()
    assert "stored" not in " ".join(state)  # derived, never persisted
    clone = CrackedColumn.from_state(state)
    assert clone.pending_delete_count and clone.pending_update_count
    assert np.array_equal(clone._stored, column._stored)
    left = column.range_select(100, 2001)
    right = clone.range_select(100, 2001)
    assert sorted(left.oids.tolist()) == sorted(right.oids.tolist())
    assert sorted(left.values.tolist()) == sorted(right.values.tolist())
    assert_bitmap_matches_storage(clone)


# ---------------------------------------------------------------------- #
# Relation.delete_positions against setdiff1d / union1d
# ---------------------------------------------------------------------- #


def reference_delete(deleted: np.ndarray, positions) -> tuple[np.ndarray, int]:
    """The old expressions: set difference, then union."""
    fresh = np.setdiff1d(np.asarray(positions, dtype=np.int64), deleted)
    return (np.union1d(deleted, fresh) if fresh.size else deleted), int(fresh.size)


def make_relation(rows: int) -> Relation:
    schema = Schema([Column("a", "int")])
    return Relation.from_columns("t", schema, {"a": list(range(rows))})


@settings(max_examples=100, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(min_value=0, max_value=49), max_size=12), max_size=8
    )
)
def test_delete_positions_matches_setdiff_union(batches):
    relation = make_relation(50)
    expected = np.empty(0, dtype=np.int64)
    for batch in batches:
        expected, fresh = reference_delete(expected, batch)
        assert relation.delete_positions(np.asarray(batch, dtype=np.int64)) == fresh
        assert np.array_equal(relation.deleted_positions(), expected)


@pytest.mark.parametrize(
    "batch",
    [[], [9, 2, 9, 2], [2, 5], [49, 0, 25, 0, 49]],
    ids=["empty", "duplicates", "already-tombstoned", "unsorted"],
)
def test_delete_positions_edge_cases(batch):
    relation = make_relation(50)
    relation.delete_positions(np.array([2, 5, 30]))
    expected, fresh = reference_delete(relation.deleted_positions(), batch)
    assert relation.delete_positions(np.asarray(batch, dtype=np.int64)) == fresh
    assert np.array_equal(relation.deleted_positions(), expected)
    assert relation.deleted_positions().dtype == np.int64


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


def test_write_path_runs_no_whole_column_set_operation(monkeypatch):
    n = 100_000
    rng = np.random.default_rng(0)
    column = CrackedColumn.from_arrays(rng.permutation(n), crack_threshold=512)
    for low in rng.integers(0, n, 20):
        column.range_select(int(low), int(low) + 500)
    relation = make_relation(n)
    relation.delete_positions(rng.choice(n, n // 2, replace=False))

    sizes: list[int] = []

    def recording(name):
        original = getattr(np, name)

        def wrapper(*args, **kwargs):
            sizes.extend(np.size(arg) for arg in args if isinstance(arg, np.ndarray))
            return original(*args, **kwargs)

        return wrapper

    for name in ("isin", "setdiff1d", "union1d", "unique"):
        monkeypatch.setattr(np, name, recording(name))
    column.append(np.arange(10))
    column.delete(rng.integers(0, n, 60))
    column.update(rng.integers(0, n, 60), np.arange(60))
    column.range_select(1000, 2000)  # the merge the DML deferred
    relation.delete_positions(rng.integers(0, n, 60))
    monkeypatch.undo()
    assert sizes, "the recorder saw no call at all"
    assert max(sizes) < n // 2
    column.check_invariants()
