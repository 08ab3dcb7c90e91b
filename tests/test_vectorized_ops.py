"""Unit and oracle tests for the vectorized batch executor."""

from collections import Counter

import numpy as np
import pytest

from repro.core.cracked_column import CrackedColumn
from repro.errors import ExecutionError
from repro.sql import Database, analyze, build_plan, parse
from repro.storage.bat import BAT
from repro.storage.table import Column, Relation, Schema
from repro.volcano import vectorized
from repro.volcano.vectorized import (
    ColumnBatch,
    VecAggregate,
    VecCrackedScan,
    VecHashJoin,
    VecLimit,
    VecMaterialize,
    VecProject,
    VecScan,
    VecSelect,
    VecSort,
    concat_batches,
)


def _rows(operator) -> list[tuple]:
    """An operator's output decoded into row tuples."""
    batch = concat_batches(operator)
    return [] if batch is None else list(zip(*batch.arrays))


def _relation(name, columns, data):
    schema = Schema([Column(n, t) for n, t in columns])
    return Relation.from_columns(name, schema, data)


@pytest.fixture
def batch_rows(monkeypatch):
    """``batch_rows(n)`` sets the scan batch size for the test."""
    return lambda rows: monkeypatch.setattr(vectorized, "BATCH_ROWS", rows)


@pytest.fixture
def r_rel(rng):
    return _relation(
        "R",
        [("k", "int"), ("a", "int"), ("w", "float")],
        {
            "k": np.arange(500),
            "a": rng.integers(0, 100, 500),
            "w": rng.uniform(0, 1, 500),
        },
    )


@pytest.fixture
def s_rel(rng):
    return _relation(
        "S",
        [("k", "int"), ("g", "int")],
        {"k": rng.integers(0, 500, 300), "g": rng.integers(0, 7, 300)},
    )


class TestColumnBatch:
    def test_selection_vector_applied_lazily(self):
        batch = ColumnBatch(
            ["R.a"], [np.array([10, 20, 30, 40])], sel=np.array([1, 3])
        )
        assert len(batch) == 2
        assert batch.column(0).tolist() == [20, 40]
        # the backing array is untouched until compact()
        assert batch.arrays[0].tolist() == [10, 20, 30, 40]
        compacted = batch.compact()
        assert compacted.sel is None
        assert compacted.arrays[0].tolist() == [20, 40]

class TestVecScan:
    def test_batching_covers_relation(self, r_rel, batch_rows):
        batch_rows(64)
        scan = VecScan(r_rel, alias="R")
        batches = list(scan.batches())
        assert sum(len(b) for b in batches) == 500
        assert len(batches) == 8  # ceil(500/64)
        assert scan.columns == ["R.k", "R.a", "R.w"]

    def test_numeric_batches_are_zero_copy(self, r_rel):
        scan = VecScan(r_rel)  # one batch: 500 rows
        batch = next(scan.batches())
        assert np.shares_memory(batch.arrays[1], r_rel.column("a").tail_array())



class TestVecSelect:
    def test_composes_selection_vectors_without_gather(self, r_rel, batch_rows):
        batch_rows(128)
        scan = VecScan(r_rel, alias="R")
        first = VecSelect(scan, [(["R.a"], lambda v: v >= 20)])
        second = VecSelect(first, [(["R.a"], lambda v: v < 60)])
        a = r_rel.column("a").tail_array()
        expected = a[(a >= 20) & (a < 60)]
        got = np.concatenate([b.column(1) for b in second.batches()])
        assert got.tolist() == expected.tolist()
        for batch in second.batches():
            # the filter stacked sel vectors; arrays still alias the scan
            assert batch.sel is not None
            assert np.shares_memory(batch.arrays[1], a)

    def test_one_operator_ands_its_conjunction(self, r_rel):
        """Single- and two-column conditions in one filter."""
        select = VecSelect(VecScan(r_rel, alias="R"), [
            (["R.a"], lambda v: v >= 20),
            (["R.a"], lambda v: v < 60),
            (["R.k", "R.a"], lambda k, a: k % 2 == a % 2),
        ])
        k, a = r_rel.column("k").tail_array(), r_rel.column("a").tail_array()
        expected = k[(a >= 20) & (a < 60) & (k % 2 == a % 2)]
        assert [row[0] for row in _rows(select)] == expected.tolist()


class TestVecHashJoin:
    def _naive_join(self, left_rows, right_rows, li, ri):
        out = []
        for lrow in left_rows:
            for rrow in right_rows:
                if lrow[li] == rrow[ri]:
                    out.append(lrow + rrow)
        return out

    def test_matches_naive_reference(self, r_rel, s_rel, batch_rows):
        batch_rows(100)
        join = VecHashJoin(
            VecScan(r_rel, alias="R"),
            VecScan(s_rel, alias="S"),
            "R.k",
            "S.k",
        )
        left_rows = list(zip(*(values for values, _ in r_rel.column_arrays())))
        right_rows = list(zip(*(values for values, _ in s_rel.column_arrays())))
        expected = self._naive_join(left_rows, right_rows, 0, 0)
        got = _rows(join)
        assert sorted(got) == sorted(expected)
        assert join.columns == ["R.k", "R.a", "R.w", "S.k", "S.g"]

    def test_left_major_right_storage_order(self, batch_rows):
        batch_rows(1)
        left = _relation(
            "L", [("k", "int"), ("v", "int")],
            {"k": [2, 1, 2, 3], "v": [100, 101, 102, 103]},
        )
        right = _relation(
            "S", [("k", "int"), ("g", "int")],
            {"k": [2, 3, 2, 9], "g": [10, 20, 30, 40]},
        )
        join = VecHashJoin(
            VecScan(left, alias="L"),
            VecScan(right, alias="S"),
            "L.k",
            "S.k",
        )
        assert _rows(join) == [
            (2, 100, 2, 10), (2, 100, 2, 30),
            (2, 102, 2, 10), (2, 102, 2, 30),
            (3, 103, 3, 20),
        ]

    def test_empty_sides(self, r_rel):
        empty = _relation("E", [("k", "int")], {"k": []})
        join = VecHashJoin(
            VecScan(r_rel, alias="R"), VecScan(empty, alias="E"), "R.k", "E.k"
        )
        assert _rows(join) == []
        join = VecHashJoin(
            VecScan(empty, alias="E"), VecScan(r_rel, alias="R"), "E.k", "R.k"
        )
        assert _rows(join) == []


class TestVecAggregate:
    def _naive_groupby(self, rows, group_idx, agg_specs):
        groups = {}
        for row in rows:
            key = tuple(row[i] for i in group_idx)
            groups.setdefault(key, []).append(row)
        out = []
        for key in sorted(groups):
            members = groups[key]
            finals = []
            for fn, idx in agg_specs:
                vals = [m[idx] for m in members] if idx is not None else members
                if fn == "count":
                    finals.append(len(members))
                elif fn == "sum":
                    finals.append(sum(vals))
                elif fn == "min":
                    finals.append(min(vals))
                elif fn == "max":
                    finals.append(max(vals))
                else:
                    finals.append(sum(vals) / len(vals))
            out.append(key + tuple(finals))
        return out

    def test_matches_naive_reference(self, r_rel, batch_rows):
        batch_rows(90)
        scan = VecScan(r_rel, alias="R")
        agg = VecAggregate(
            scan,
            ["R.a"],
            [("count", None), ("sum", "R.k"), ("min", "R.w"),
             ("max", "R.w"), ("avg", "R.k")],
        )
        rows = list(zip(*(values for values, _ in r_rel.column_arrays())))
        expected = self._naive_groupby(
            rows, [1], [("count", None), ("sum", 0), ("min", 2), ("max", 2), ("avg", 0)]
        )
        got = _rows(agg)
        assert len(got) == len(expected)
        for grow, erow in zip(got, expected):
            assert grow[0] == erow[0]
            assert grow[1] == erow[1]
            assert grow[2] == erow[2]
            assert grow[3] == pytest.approx(erow[3])
            assert grow[4] == pytest.approx(erow[4])
            assert grow[5] == pytest.approx(erow[5])

    def test_multi_key_groups_in_ascending_key_order(self, batch_rows):
        batch_rows(2)
        rel = _relation(
            "T",
            [("x", "int"), ("y", "int"), ("v", "int")],
            {"x": [1, 0, 1, 0, 1], "y": [0, 1, 0, 0, 1], "v": [5, 6, 7, 8, 9]},
        )
        vec = VecAggregate(
            VecScan(rel, alias="T"),
            ["T.x", "T.y"],
            [("count", None), ("sum", "T.v")],
        )
        assert _rows(vec) == [
            (0, 0, 1, 8), (0, 1, 1, 6), (1, 0, 2, 12), (1, 1, 1, 9),
        ]

    def test_global_aggregate_and_empty_input(self):
        empty = _relation("E", [("v", "int")], {"v": []})
        agg = VecAggregate(
            VecScan(empty),
            [],
            [("count", None), ("sum", "v"), ("min", "v"), ("avg", "v")],
        )
        assert _rows(agg) == [(0, None, None, None)]  # SQL: sum of nothing is NULL
        # empty input with GROUP BY yields no rows
        grouped = VecAggregate(VecScan(empty), ["v"], [("count", None)])
        assert _rows(grouped) == []

    def test_unknown_aggregate_rejected(self, r_rel):
        with pytest.raises(ExecutionError):
            VecAggregate(VecScan(r_rel), [], [("median", "a")])


class TestVecSortLimitProject:
    def test_sort_stable_and_descending(self, batch_rows):
        batch_rows(2)
        rel = _relation(
            "T",
            [("key", "int"), ("tag", "int")],
            {"key": [2, 1, 2, 0, 1], "tag": [0, 1, 2, 3, 4]},
        )
        # Ties keep their input order in both directions.
        for descending, expected in (
            (False, [(0, 3), (1, 1), (1, 4), (2, 0), (2, 2)]),
            (True, [(2, 0), (2, 2), (1, 1), (1, 4), (0, 3)]),
        ):
            vec = VecSort(VecScan(rel, alias="T"), "T.key", descending=descending)
            assert _rows(vec) == expected

    def test_limit_stops_batch_stream(self, r_rel, batch_rows):
        batch_rows(10)
        limit = VecLimit(VecScan(r_rel, alias="R"), 25)
        assert len(_rows(limit)) == 25
        assert _rows(VecLimit(VecScan(r_rel), 0)) == []
        with pytest.raises(ExecutionError):
            VecLimit(VecScan(r_rel), -1)

    def test_project_reorders_zero_copy(self, r_rel):
        project = VecProject(VecScan(r_rel, alias="R"), ["R.w", "R.k"])
        assert project.columns == ["R.w", "R.k"]
        batch = next(project.batches())
        assert np.shares_memory(batch.arrays[1], r_rel.column("k").tail_array())


class TestVecMaterialize:
    def test_round_trips_types(self, r_rel):
        types = [column.col_type for column in r_rel.schema]
        mat = VecMaterialize(VecScan(r_rel, alias="R"), "copy", types)
        relation = mat.run()
        assert relation.schema.names() == ["k", "a", "w"]
        assert [c.col_type for c in relation.schema] == ["int", "int", "float"]
        assert len(relation) == len(r_rel)
        assert relation.column("a").tail_array().tolist() == (
            r_rel.column("a").tail_array().tolist()
        )

    def test_string_columns_rebuild_heap(self):
        rel = _relation(
            "T", [("s", "str"), ("v", "int")],
            {"s": ["bb", "aa", "bb"], "v": [1, 2, 3]},
        )
        relation = VecMaterialize(VecScan(rel), "copy", ["str", "int"]).run()
        assert [c.col_type for c in relation.schema] == ["str", "int"]
        assert relation.column_values("s") == ["bb", "aa", "bb"]

    def test_engine_materialise_preserves_schema_on_empty_answer(self):
        # Regression: an empty cracked selection must not collapse str/float
        # columns of the materialised target to int.
        from repro.engines import DatabaseEngine

        engine = DatabaseEngine(cracking=True)
        engine.load(
            _relation(
                "R",
                [("a", "int"), ("tag", "str")],
                {"a": [1, 2, 3], "tag": ["x", "y", "z"]},
            )
        )
        outcome = engine.range_query(
            "R", "a", 500, 900, delivery="materialise", target_name="empty_t"
        )
        assert outcome.rows == 0
        target = engine.table("empty_t")
        assert [c.col_type for c in target.schema] == ["int", "str"]
        full = engine.range_query(
            "R", "a", 1, 3, delivery="materialise", target_name="full_t"
        )
        assert full.rows == 3
        assert engine.table("full_t").column_values("tag") == ["x", "y", "z"]

class TestVecCrackedScanZeroCopy:
    def test_span_owns_its_data(self, r_rel):
        column = CrackedColumn(r_rel.column("a"))
        result = column.range_select(20, 60, high_inclusive=True)
        scan = VecCrackedScan(r_rel, "a", result, alias="R")
        batch = next(scan.batches())
        span = batch.arrays[scan.column_index("R.a")]
        assert span is result.values  # the answer's copy, passed through
        assert span.flags.owndata
        assert not np.shares_memory(span, column.values)
        # the span's rows are exactly the answer's oids
        assert sorted(batch.column(0).tolist()) == sorted(
            result.oids.tolist()
        )

    def test_vector_plan_feeds_cracked_span_zero_copy(self, rng, monkeypatch):
        """The delivered ``a`` array is the answer's own copy: the
        column made it under its lock, and nothing copies it again."""
        db = Database(cracking=True)
        db.execute("CREATE TABLE r (k integer, a integer)")
        values = ", ".join(
            f"({i}, {int(v)})" for i, v in enumerate(rng.integers(0, 1000, 400))
        )
        db.execute(f"INSERT INTO r VALUES {values}")
        answers = []
        real = db._cracker.range_select

        def keep(*args, **kwargs):
            answers.append(real(*args, **kwargs))
            return answers[-1]

        monkeypatch.setattr(db._cracker, "range_select", keep)
        result = db.execute("SELECT * FROM r WHERE a BETWEEN 100 AND 500")
        (answer,) = answers
        column = db._cracker.column_for(db.catalog.table("r"), "a")
        assert result.arrays["r.a"] is answer.values
        assert not np.shares_memory(answer.values, column.values)
        assert result.row_count == answer.count > 0

    def test_needed_subset_restricts_columns(self, r_rel):
        column = CrackedColumn(r_rel.column("a"))
        result = column.range_select(10, 30)
        scan = VecCrackedScan(r_rel, "a", result, alias="R", needed=["a"])
        assert scan.columns == ["R.a"]
        batch = next(scan.batches())
        assert len(batch.arrays) == 1


class TestProjectionPushdown:
    """Late materialisation: a scan reconstructs only what the plan reads."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        """BAT name -> number of ``decoded_array`` calls, live."""
        calls: Counter = Counter()
        real = BAT.decoded_array

        def counting(bat, positions=None):
            calls[bat.name] += 1
            return real(bat, positions)

        monkeypatch.setattr(BAT, "decoded_array", counting)
        return calls

    def test_cracked_scan_never_decodes_an_unneeded_column(self, r_rel, decoded):
        column = CrackedColumn(r_rel.column("a"))
        result = column.range_select(10, 30)
        scan = VecCrackedScan(r_rel, "a", result, alias="R", needed=["k", "a"])
        batch = next(scan.batches())
        assert scan.columns == ["R.k", "R.a"] and len(batch) == result.count
        # k is gathered once; a is the cracked span itself; w is never touched.
        assert dict(decoded) == {"R.k": 1}

    def test_scan_nothing_reads_carries_one_cheap_column(self, decoded):
        relation = _relation(
            "T", [("tag", "str"), ("k", "int")],
            {"tag": ["x", "y", "x"], "k": [1, 2, 3]},
        )
        scan = VecScan(relation, needed=[])
        assert scan.columns == ["T.k"]  # the row count rides on a numeric column
        assert len(_rows(scan)) == 3
        assert dict(decoded) == {"T.k": 1}

    @pytest.mark.parametrize("cracking", [True, False])
    def test_planner_passes_only_referenced_columns(self, rng, decoded, cracking):
        db = Database(cracking=cracking)
        db.execute("CREATE TABLE r (k integer, a integer, b integer, tag varchar)")
        values = ", ".join(
            f"({i}, {int(v)}, {i % 7}, 't{i % 3}')"
            for i, v in enumerate(rng.integers(0, 1000, 300))
        )
        db.execute(f"INSERT INTO r VALUES {values}")
        decoded.clear()
        result = db.execute("SELECT k, a FROM r WHERE a BETWEEN 100 AND 500")
        assert result.columns == ["r.k", "r.a"] and result.row_count > 0
        assert "r.b" not in decoded and "r.tag" not in decoded
        decoded.clear()
        db.execute("SELECT k FROM r WHERE a < 600 AND tag <> 't1' ORDER BY b")
        assert "r.tag" in decoded and "r.b" in decoded  # residual + sort key
        decoded.clear()
        assert db.execute("SELECT count(*) FROM r WHERE tag <> 't0'").scalar() == 200
        assert set(decoded) == {"r.tag"}
        decoded.clear()
        star = db.execute("SELECT * FROM r WHERE a >= 0")
        assert star.columns == ["r.k", "r.a", "r.b", "r.tag"]
        assert star.row_count == 300


class TestConcatBatches:
    def test_concat_and_empty(self, r_rel, batch_rows):
        batch_rows(64)
        scan = VecScan(r_rel)
        batch = concat_batches(scan)
        assert len(batch) == 500
        empty = VecSelect(VecScan(r_rel), [(["a"], lambda v: v > 10**9)])
        assert concat_batches(empty) is None


class TestPlanShape:
    """Each binding's conjunction is one filter on its scan; an extra
    join edge is one filter on the join that first holds both sides."""

    @pytest.fixture
    def db(self):
        db = Database(cracking=False)
        db.execute("CREATE TABLE s (k integer, g integer)")
        db.execute(
            "INSERT INTO s VALUES " + ", ".join(f"({i}, {i % 9})" for i in range(300))
        )
        return db

    def _plan(self, db, sql):
        return build_plan(analyze(parse(sql), db.catalog), db.catalog)

    def test_single_relation_predicates_sit_on_their_scans(self, db):
        plan = self._plan(db, (
            "SELECT count(*) FROM s x, s y WHERE x.g = y.g AND x.k < 100 "
            "AND y.k < 100 AND x.g <> 1 AND y.g > 2"
        ))
        assert isinstance(plan, VecAggregate)
        join = plan.child
        assert isinstance(join, VecHashJoin)  # no filter above the join
        for side in (join.left, join.right):
            assert isinstance(side, VecSelect)
            assert isinstance(side.child, VecScan)

    def test_an_extra_edge_sits_on_its_join(self, db):
        plan = self._plan(db, "SELECT count(*) FROM s x, s y WHERE x.k = y.k AND x.g = y.g")
        edge = plan.child
        assert isinstance(edge, VecSelect)
        assert isinstance(edge.child, VecHashJoin)
        assert isinstance(edge.child.left, VecScan)
        assert isinstance(edge.child.right, VecScan)
