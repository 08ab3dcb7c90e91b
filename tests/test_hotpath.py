"""Hot-path features: the sort-below-T crack cut-off, answers that own
their data, and how few Python calls a converged count and a key-range
DML statement make."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

import repro
from repro.core.cracked_column import DEFAULT_CRACK_THRESHOLD, CrackedColumn
from repro.errors import CrackError
from repro.sql import Database
from repro.storage.bat import BAT
from repro.storage.table import Column, Relation, Schema


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
        assert result.values.flags.owndata and result.oids.flags.owndata
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

    def test_threshold_matches_unbounded_cracking(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1000, 3000)
        bounded = CrackedColumn.from_arrays(values, crack_threshold=64)
        reference = CrackedColumn.from_arrays(values)
        for _ in range(40):
            low = int(rng.integers(0, 1000))
            high = low + int(rng.integers(0, 300))
            left = bounded.range_select(low, high)
            right = reference.range_select(low, high)
            assert sorted(left.oids.tolist()) == sorted(right.oids.tolist())
        bounded.check_invariants()


class TestCopyOnDemandSnapshots:
    """A held answer is a copy made when it is answered: later cracks
    and merges never reach it, and never copy the column for it."""

    def test_snapshot_survives_later_crack(self):
        column = CrackedColumn.from_arrays(np.random.default_rng(0).permutation(10_000))
        answer = column.range_select(2000, 4000)
        frozen_values = answer.values.copy()
        frozen_oids = answer.oids.copy()
        column.range_select(2500, 3500)  # cracks inside the answer's span
        assert np.array_equal(answer.values, frozen_values)
        assert np.array_equal(answer.oids, frozen_oids)
        assert not np.shares_memory(answer.values, column.values)
        assert not np.shares_memory(answer.oids, column.oids)
        column.check_invariants()

    def test_no_copy_without_live_snapshot(self):
        column = CrackedColumn.from_arrays(np.random.default_rng(0).permutation(10_000))
        held = column.range_select(2000, 4000)
        storage = column.values
        column.range_select(2500, 3500)
        assert column.values is storage  # cracked in place, never copied
        assert held.count == 2000

    def test_holding_only_the_array_still_protects(self):
        column = CrackedColumn.from_arrays(np.random.default_rng(0).permutation(10_000))
        values = column.range_select(2000, 4000).values
        frozen = values.copy()
        column.range_select(2500, 3500)
        assert np.array_equal(values, frozen)
        assert not np.shares_memory(values, column.values)

    def test_merge_does_not_disturb_snapshot(self):
        column = CrackedColumn.from_arrays(np.random.default_rng(0).permutation(1000))
        answer = column.range_select(100, 300)
        frozen = answer.values.copy()
        column.append(np.array([150, 250, 2000]))
        column.range_select(400, 500)  # triggers the pending merge
        assert np.array_equal(answer.values, frozen)
        assert not np.shares_memory(answer.values, column.values)
        column.check_invariants()


#: Python calls under ``src/repro`` per count on a converged column, as
#: measured on Python 3.11 (3.12 inlines comprehensions, so it may read
#: fewer): a template hit, an exact hit and the bare ``count_range``.
TEMPLATE_HIT_CALLS, EXACT_HIT_CALLS, COUNT_RANGE_CALLS = 23, 14, 4


def _calls(call) -> int:
    """Python functions under ``src/repro`` that ``call()`` enters."""
    root = os.path.dirname(repro.__file__) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


def test_a_converged_count_makes_few_python_calls():
    rows, rng = 20_000, np.random.default_rng(0)
    db = Database()
    db.catalog.create_table(Relation.from_columns(
        "r", Schema([Column("k", "int"), Column("a", "int")]),
        {"k": np.arange(rows), "a": rng.integers(0, rows, rows)},
    ))
    step = DEFAULT_CRACK_THRESHOLD // 2
    for offset in (0, step // 2):  # cut every piece, then sort each one
        for low in range(offset, rows, step):
            db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + step - 1}")
    lows = range(7, rows, 997)
    for x in lows:  # and sort the pieces the measured bounds land in
        db.execute(f"SELECT count(*) FROM r WHERE a >= {x} AND a <= {x + 500}")
    column = db.cracked_columns()[("r", "a")]
    work = (column.crack_stats.cracks, column.crack_stats.sorts)
    texts = [f"SELECT count(*) FROM r WHERE a BETWEEN {x} AND {x + 500}" for x in lows]
    assert max(_calls(lambda: db.execute(sql)) for sql in texts) <= TEMPLATE_HIT_CALLS
    assert max(_calls(lambda: db.execute(sql)) for sql in texts) <= EXACT_HIT_CALLS
    assert max(
        _calls(lambda: column.count_range(x, x + 500, True, True)) for x in lows
    ) <= COUNT_RANGE_CALLS
    cache = db.stats()["plan_cache"]
    assert cache["template_hits"] >= len(texts) and cache["hits"] >= len(texts)
    assert (column.crack_stats.cracks, column.crack_stats.sorts) == work  # converged


#: Python calls under ``src/repro`` per key-range DML statement, template
#: hits on ``mixed_dml``'s shape.  Before an INSERT's text was keyed a
#: row at a time they read up to 88, 58 and 50.
DML_CALLS = {"insert": 49, "update": 58, "delete": 50}


def test_key_range_dml_makes_few_calls():
    rows, rng = 20_000, np.random.default_rng(0)
    tags = np.array([f"tag{i:02d}" for i in range(16)], dtype=object)
    db = Database()
    db.catalog.create_table(Relation.from_columns(
        "r", Schema([Column(name, kind) for name, kind in (
            ("k", "int"), ("a", "int"), ("b", "int"), ("tag", "str"),
        )]),
        {"k": np.arange(rows), "a": rng.permutation(rows), "b": rng.permutation(rows),
         "tag": tags[rng.integers(0, 16, rows)]},
    ))
    for low in range(0, rows, 1000):
        db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + 999}")
    first = rows

    def insert() -> str:
        nonlocal first
        values = ", ".join(
            f"({first + i}, {int(a)}, {int(b)}, '{tags[t]}')"
            for i, (a, b, t) in enumerate(zip(
                rng.integers(0, rows, 10), rng.integers(0, rows, 10), rng.integers(0, 16, 10),
            ))
        )
        first += 10
        return f"INSERT INTO r VALUES {values}"

    texts = {
        "insert": [insert() for _ in range(9)],
        "update": [f"UPDATE r SET a = {x} WHERE k BETWEEN {x} AND {x + 49}" for x in range(100, 1000, 100)],
        "delete": [f"DELETE FROM r WHERE k BETWEEN {x} AND {x + 9}" for x in range(5000, 5900, 100)],
    }
    for kind, stream in texts.items():
        db.execute(stream[0])  # the template
        counts = [_calls(lambda: db.execute(sql)) for sql in stream[1:]]
        assert max(counts) <= DML_CALLS[kind], (kind, counts)
    assert db.stats()["plan_cache"]["dml_template_hits"] >= 24
    assert db.execute("SELECT count(*) FROM r").scalar() == rows + 90 - 90
    db.check_invariants()
