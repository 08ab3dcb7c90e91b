"""Plan cache and prepared statements: hits, invalidation, correctness."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import SQLAnalysisError
from repro.sql import Database, template_key
from repro.sql.plan_cache import EXACT_CAPACITY, PlanCache, make_template
from repro.sql.parser import parse

from tests.oracle import assert_sorted_rows_equal


def small_db(**kwargs) -> Database:
    db = Database(cracking=True, **kwargs)
    db.execute("CREATE TABLE r (k integer, a integer, tag varchar)")
    rows = ", ".join(f"({i}, {(i * 37) % 100}, 't{i % 3}')" for i in range(200))
    db.execute(f"INSERT INTO r VALUES {rows}")
    return db


class TestNormalize:
    def test_literals_extracted_in_order(self):
        key, literals = template_key(
            "SELECT * FROM r WHERE a BETWEEN 3 AND 7.5 AND tag <> 'x' LIMIT 2"
        )
        assert literals == (3, 7.5, "x", 2)
        assert key.count("?") == 4

    def test_literal_variants_share_a_key(self):
        key1, _ = template_key("SELECT * FROM r WHERE a > 5")
        key2, _ = template_key("SELECT * FROM r WHERE a > -17")
        key3, _ = template_key("SELECT * FROM r WHERE a > 5 AND a < 9")
        assert key1 == key2
        assert key1 != key3

    def test_binder_roundtrip(self):
        sql = "SELECT r.k FROM r WHERE a BETWEEN 10 AND 20 AND tag <> 't1' LIMIT 3"
        stmt = parse(sql)
        _, literals = template_key(sql)
        template = make_template(stmt, literals)
        assert template is not None
        rebound = template.bind((1, 2, "zz", 9))
        assert rebound.where[0].low.value == 1
        assert rebound.where[0].high.value == 2
        assert rebound.where[1].right.value == "zz"
        assert rebound.limit == 9
        # original template untouched
        assert template.limit == 3

    def test_into_not_templated(self):
        sql = "SELECT * INTO r2 FROM r WHERE a > 5"
        stmt = parse(sql)
        _, literals = template_key(sql)
        assert make_template(stmt, literals) is None


class TestCacheBehaviour:
    def test_exact_repeat_hits(self):
        db = small_db()
        q = "SELECT count(*) FROM r WHERE a BETWEEN 10 AND 40"
        first = db.execute(q).scalar()
        assert db.execute(q).scalar() == first
        assert db.stats()["plan_cache"]["hits"] == 1

    def test_literal_variant_hits_template(self):
        db = small_db()
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 10 AND 40")
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 20 AND 70")
        stats = db.stats()["plan_cache"]
        assert stats["template_hits"] == 1
        assert stats["template_entries"] == 1

    def test_results_identical_to_uncached(self):
        cached = small_db()
        uncached = small_db(plan_cache=False)
        queries = [
            "SELECT * FROM r WHERE a BETWEEN 10 AND 40",
            "SELECT * FROM r WHERE a BETWEEN 10 AND 40",
            "SELECT * FROM r WHERE a BETWEEN 35 AND 90",
            "SELECT r.k FROM r WHERE a > 50 AND tag <> 't0'",
            "SELECT count(*), sum(r.a) FROM r WHERE a < 77",
            "SELECT r.tag, count(*) FROM r WHERE a >= 5 GROUP BY r.tag",
        ]
        for q in queries:
            left = cached.execute(q)
            right = uncached.execute(q)
            assert left.columns == right.columns, q
            assert_sorted_rows_equal(right.rows, left.rows, q)

    def test_insert_invalidates(self):
        db = small_db()
        q = "SELECT count(*) FROM r WHERE a BETWEEN 0 AND 99"
        before = db.execute(q).scalar()
        db.execute(q)
        hits_before = db.stats()["plan_cache"]["hits"]
        db.execute("INSERT INTO r VALUES (999, 50, 'tz')")
        assert db.execute(q).scalar() == before + 1
        stats = db.stats()["plan_cache"]
        # DML bumps no epoch: the post-insert execution is an exact hit,
        # and its plan, rebuilt from the live catalog, counts the new row
        assert stats["hits"] == hits_before + 1
        assert stats["invalidations"] == 1  # the CREATE only

    def test_delete_invalidates(self):
        # A cached COUNT(*) must not serve the pre-DELETE cardinality —
        # by exact text, template or prepared statement.  No epoch is
        # bumped: every route re-plans against the live table.
        db = small_db()
        q = "SELECT count(*) FROM r WHERE a BETWEEN 0 AND 99"
        before = db.execute(q).scalar()
        db.execute(q)  # cached now
        prepared = db.prepare(q)
        assert prepared.execute().scalar() == before
        affected = db.execute("DELETE FROM r WHERE a < 10").affected
        assert affected > 0
        assert db.execute(q).scalar() == before - affected
        template_hits = db.stats()["plan_cache"]["template_hits"]
        variant = "SELECT count(*) FROM r WHERE a BETWEEN -5 AND 99"
        assert db.execute(variant).scalar() == before - affected
        assert db.stats()["plan_cache"]["template_hits"] == template_hits + 1
        assert prepared.execute().scalar() == before - affected

    def test_update_invalidates(self):
        db = small_db()
        q = "SELECT count(*) FROM r WHERE a BETWEEN 90 AND 99"
        before = db.execute(q).scalar()
        db.execute(q)  # cached now
        moved = db.execute("UPDATE r SET a = 95 WHERE a < 5").affected
        assert moved > 0
        assert db.execute(q).scalar() == before + moved

    def test_create_table_invalidates_name(self):
        db = Database()
        db.execute("CREATE TABLE t (v integer, w integer)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        star = "SELECT * FROM t WHERE v > 0"
        count = "SELECT count(*) FROM t"
        for _ in range(2):  # cache both
            assert sorted(db.execute(star).rows) == [(1, 10), (2, 20)]
            assert db.execute(count).scalar() == 2
        prepared = db.prepare("SELECT * FROM t WHERE v > -5")
        assert sorted(prepared.execute().rows) == [(1, 10), (2, 20)]
        # Replace t, narrowing its schema, via materialise into the same
        # name: every route re-resolves ``*`` against the new table.
        db.execute("SELECT v INTO t FROM t WHERE v > 1")
        template_hits = db.stats()["plan_cache"]["template_hits"]
        assert db.execute(star).rows == [(2,)]
        assert db.execute(count).scalar() == 1
        assert db.execute("SELECT * FROM t WHERE v > 1").rows == [(2,)]
        assert db.stats()["plan_cache"]["template_hits"] == template_hits + 3
        assert prepared.execute().rows == [(2,)]
        assert prepared.execute((1,)).rows == [(2,)]

    def test_reopening_a_store_leaves_no_analysis_behind(self, tmp_path):
        db = Database(persist_dir=tmp_path)
        db.execute("CREATE TABLE t (v integer)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        q = "SELECT count(*) FROM t WHERE v > 0"
        for _ in range(2):
            assert db.execute(q).scalar() == 3
        assert db.prepare(q).execute().scalar() == 3
        db.execute("DELETE FROM t WHERE v = 1")
        db.execute("SELECT * INTO t FROM t WHERE v < 3")
        db.close()
        db = Database(persist_dir=tmp_path)
        # Replay ran the WAL through execute; recovery then dropped every
        # analysed statement (invalidate_all) and bumped t's epoch.
        stats = db.stats()["plan_cache"]
        assert stats["exact_entries"] == 0 and stats["invalidations"] > 0
        prepared = db.prepare(q)
        for _ in range(2):  # analysed afresh, then an exact hit
            assert db.execute(q).scalar() == 1
        assert db.execute("SELECT count(*) FROM t WHERE v > -1").scalar() == 1
        assert prepared.execute().scalar() == 1
        db.execute("INSERT INTO t VALUES (7)")
        assert db.execute(q).scalar() == 2
        assert prepared.execute().scalar() == 2
        assert db.stats()["plan_cache"]["template_hits"] >= 1
        db.close()

    def test_cross_session_isolation(self):
        db1 = small_db()
        db2 = Database(cracking=True)
        db2.execute("CREATE TABLE r (k integer, a integer, tag varchar)")
        db2.execute("INSERT INTO r VALUES (1, 5, 'x')")
        q = "SELECT count(*) FROM r WHERE a >= 0"
        assert db1.execute(q).scalar() == 200
        assert db2.execute(q).scalar() == 1
        db2.execute("INSERT INTO r VALUES (2, 6, 'y')")
        # db1's cache must be untouched by db2's insert
        assert db1.execute(q).scalar() == 200
        assert db2.execute(q).scalar() == 2

    def test_concurrent_hits_agree(self):
        db = small_db()
        q = "SELECT count(*) FROM r WHERE a BETWEEN 10 AND 60"
        expected = db.execute(q).scalar()
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    assert db.execute(q).scalar() == expected
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert db.stats()["plan_cache"]["hits"] >= 250

    def test_one_shot_statements_do_not_flush_the_hot_pool(self):
        # point_count's shape: a 256-statement hot pool drawn at random,
        # interleaved 1:1 with statements that never repeat.  A plain
        # 512-entry LRU lets the one-shots evict ~30% of hot repeats.
        cache = PlanCache()
        rng = np.random.default_rng(7)
        hot = [f"SELECT count(*) FROM r WHERE a = {i}" for i in range(256)]
        seen: set[str] = set()
        hits = repeats = 0
        for step in range(2000):
            sql = hot[int(rng.integers(len(hot)))]
            hit = cache.lookup_exact(sql) is not None
            if not hit:
                cache.store_exact(sql, object(), ())
            if sql in seen:
                repeats += 1
                hits += hit
            seen.add(sql)
            one_shot = f"SELECT count(*) FROM r WHERE a = {1000 + step}"
            assert cache.lookup_exact(one_shot) is None
            cache.store_exact(one_shot, object(), ())
        assert len(seen) == len(hot)
        assert hits / repeats >= 0.95
        assert cache.stats()["exact_entries"] <= 2 * EXACT_CAPACITY


class TestPreparedStatements:
    def test_defaults_and_params(self):
        db = small_db()
        stmt = db.prepare("SELECT count(*) FROM r WHERE a BETWEEN 10 AND 40")
        assert stmt.parameter_count == 2
        # a takes every value in 0..99 exactly twice.
        assert stmt.execute().scalar() == 2 * 31
        assert stmt.execute((0, 99)).scalar() == 200

    def test_memoised_reexecution_still_correct(self):
        db = small_db()
        stmt = db.prepare("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 99")
        first = stmt.execute().scalar()
        assert stmt.execute().scalar() == first
        db.execute("INSERT INTO r VALUES (1000, 3, 'tz')")
        assert stmt.execute().scalar() == first + 1

    def test_wrong_param_count(self):
        db = small_db()
        stmt = db.prepare("SELECT count(*) FROM r WHERE a > 5")
        with pytest.raises(SQLAnalysisError):
            stmt.execute((1, 2))

    def test_prepare_rejects_non_select(self):
        db = small_db()
        with pytest.raises(SQLAnalysisError):
            db.prepare("INSERT INTO r VALUES (1, 2, 'x')")
        with pytest.raises(SQLAnalysisError):
            db.prepare("SELECT * INTO r2 FROM r WHERE a > 5")

    def test_prepare_unknown_table_fails_eagerly(self):
        db = Database()
        with pytest.raises(SQLAnalysisError):
            db.prepare("SELECT * FROM ghost WHERE v > 1")

    def test_prepared_works_with_cache_disabled(self):
        db = small_db(plan_cache=False)
        stmt = db.prepare("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 99")
        before = stmt.execute().scalar()
        db.execute("INSERT INTO r VALUES (1001, 4, 'tz')")
        assert stmt.execute().scalar() == before + 1

    def test_string_parameters(self):
        db = small_db()
        stmt = db.prepare("SELECT count(*) FROM r WHERE a >= 0 AND tag <> 't0'")
        base = stmt.execute().scalar()
        other = stmt.execute((0, "t2")).scalar()  # t2 is the smaller bucket
        assert base != other
        assert other == 200 - 66  # 66 of the k in 0..199 have k % 3 == 2


class TestCountPushdown:
    """The planner's COUNT(*) answer from the cracker's span bounds."""

    def test_matches_full_pipeline(self):
        cracked = small_db()
        plain = Database(cracking=False)
        plain.execute("CREATE TABLE r (k integer, a integer, tag varchar)")
        rows = ", ".join(f"({i}, {(i * 37) % 100}, 't{i % 3}')" for i in range(200))
        plain.execute(f"INSERT INTO r VALUES {rows}")
        rng = np.random.default_rng(0)
        for _ in range(25):
            low = int(rng.integers(0, 100))
            high = low + int(rng.integers(0, 40))
            for q in (
                f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {high}",
                f"SELECT count(*) FROM r WHERE a >= {low}",
                f"SELECT count(*) FROM r WHERE a < {high}",
                f"SELECT count(*) FROM r WHERE a = {low}",
            ):
                left = cracked.execute(q)
                right = plain.execute(q)
                assert left.columns == right.columns == ["count(*)"]
                assert left.scalar() == right.scalar(), q

    def test_pushdown_not_taken_with_residuals(self):
        db = small_db()
        q = "SELECT count(*) FROM r WHERE a > 10 AND tag <> 't0'"
        plain = Database()
        plain.execute("CREATE TABLE r (k integer, a integer, tag varchar)")
        rows = ", ".join(f"({i}, {(i * 37) % 100}, 't{i % 3}')" for i in range(200))
        plain.execute(f"INSERT INTO r VALUES {rows}")
        assert db.execute(q).scalar() == plain.execute(q).scalar()
