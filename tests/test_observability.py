"""Integration tests for the observability layer.

Covers the pieces the unit tests in ``test_obs_metrics.py`` cannot:
EXPLAIN ANALYZE output shape across every engine configuration, the
differential guarantee that tracing changes *nothing* about results,
the slow-query log, the unified :meth:`Database.stats` surface, and the
write-path spans (WAL append/fsync, checkpoint, tombstone merge).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import trace as obs_trace
from repro.sql import Database

from oracle import (
    ENGINE_CONFIGS,
    assert_rows_equal,
    load_standard,
    random_mixed_dml,
    random_range_queries,
)

#: The configurations that actually crack (EXPLAIN ANALYZE must show a
#: crack span on these; rowstore legitimately has none).
CRACKING_CONFIGS = {
    name: cfg for name, cfg in ENGINE_CONFIGS.items() if cfg.get("cracking", True)
}


def _load_small(db: Database, n: int = 300) -> None:
    db.execute("CREATE TABLE r (k integer, a integer)")
    values = ", ".join(f"({i}, {(i * 37) % 100})" for i in range(n))
    db.execute(f"INSERT INTO r VALUES {values}")


def _span_names(result) -> list[str]:
    return [row[0].strip() for row in result.rows]


def _find(root, name: str):
    """First span named ``name`` under ``root`` (depth-first), or None."""
    return next((node for _, node in root.walk() if node.name == name), None)


class TestExplainAnalyze:
    @pytest.mark.parametrize("name", sorted(CRACKING_CONFIGS))
    def test_cracked_select_span_tree(self, name):
        """The acceptance shape: parse, plan-cache, crack and gather
        phases, each with a nonzero monotonic timing."""
        db = Database(**CRACKING_CONFIGS[name])
        _load_small(db)
        result = db.execute(
            "EXPLAIN ANALYZE SELECT k FROM r WHERE a BETWEEN 10 AND 60"
        )
        assert result.columns == ["span", "ms", "detail"]
        names = _span_names(result)
        for required in ("statement", "lex", "parse", "plan_cache",
                         "analyze", "plan", "crack", "gather"):
            assert required in names, (name, names)
        # Spans nest: the tree renders depth as two-space indentation,
        # and crack sits under plan (cracking happens while planning).
        by_name = {row[0].strip(): row for row in result.rows}
        assert by_name["statement"][0] == "statement"
        assert by_name["crack"][0].startswith("    ")
        for row in result.rows:
            assert row[1] > 0.0, ("zero-duration span", row)
        assert "column=r.a" in by_name["crack"][2]
        assert "kind=select" in by_name["statement"][2]

    def test_rowstore_has_no_crack_span(self):
        db = Database(cracking=False)
        _load_small(db)
        result = db.execute(
            "EXPLAIN ANALYZE SELECT k FROM r WHERE a BETWEEN 10 AND 60"
        )
        names = _span_names(result)
        assert "crack" not in names
        for required in ("parse", "plan_cache", "analyze", "plan", "gather"):
            assert required in names

    def test_prefix_is_case_insensitive_and_executes_for_real(self):
        db = Database(cracking=True, crack_threshold=0)
        _load_small(db)
        before = db.piece_count("r", "a")
        db.execute("  explain ANALYZE SELECT k FROM r WHERE a > 50")
        # The analyzed statement ran for real: the cracker advanced.
        assert db.piece_count("r", "a") > before

    def test_mutation_under_explain_analyze(self):
        db = Database(cracking=True)
        _load_small(db)
        result = db.execute("EXPLAIN ANALYZE INSERT INTO r VALUES (999, 5)")
        names = _span_names(result)
        assert "statement" in names and "parse" in names
        assert db.execute("SELECT count(*) FROM r").scalar() == 301
        detail = result.rows[0][2]
        assert "affected=1" in detail

    def test_empty_statement_rejected(self):
        from repro.errors import SQLAnalysisError

        with pytest.raises(SQLAnalysisError):
            Database().execute("EXPLAIN ANALYZE    ")

    def test_plan_cache_probe_reported(self):
        db = Database(cracking=True)
        _load_small(db)
        sql = "SELECT count(*) FROM r WHERE a BETWEEN 5 AND 25"
        first = db.execute(f"EXPLAIN ANALYZE {sql}")
        assert "exact_hit=False" in " ".join(row[2] for row in first.rows)
        db.execute(sql)  # now cached
        second = db.execute(f"EXPLAIN ANALYZE {sql}")
        joined = " ".join(row[2] for row in second.rows)
        # The probe sees the cache, but the pipeline still re-analyzes —
        # the trace shape is deterministic regardless of cache warmth.
        assert "exact_hit=True" in joined
        assert "analyze" in _span_names(second)

    def test_last_trace_returns_span_tree(self):
        db = Database(cracking=True)
        _load_small(db)
        assert db.last_trace() is None
        db.execute("EXPLAIN ANALYZE SELECT k FROM r WHERE a > 10")
        root = db.last_trace()
        assert root.name == "statement"
        assert _find(root, "gather") is not None
        assert root.duration_ns > 0


class TestTracingIsInvisible:
    """Tracing-enabled execution must be result-identical to default."""

    @pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
    def test_traced_results_equal_untraced(self, name):
        config = ENGINE_CONFIGS[name]
        plain = Database(**config)
        traced = Database(**config, trace=True, slow_query_ms=0.0)
        for db in (plain, traced):
            load_standard(db, seed=1234)
        rng = np.random.default_rng(99)
        statements = random_range_queries(rng, 30, insert_every=7)
        statements += random_mixed_dml(np.random.default_rng(7), 20)
        for statement in statements:
            expected = plain.execute(statement)
            actual = traced.execute(statement)
            context = (name, statement)
            assert actual.columns == expected.columns, context
            assert actual.affected == expected.affected, context
            # Identical configs ⇒ identical physical order: compare
            # row-for-row, the strictest form of "tracing changed
            # nothing".
            assert_rows_equal(expected.rows, actual.rows, context)
        # And the traced side actually traced (the log also holds the
        # load_standard statements, hence >=).
        assert traced.last_trace() is not None
        assert len(traced.slow_query_log()) >= len(statements)

    def test_explain_analyze_agrees_with_plain_execution(self):
        for name, config in CRACKING_CONFIGS.items():
            db = Database(**config)
            control = Database(**config)
            for d in (db, control):
                _load_small(d)
            sql = "SELECT count(*) FROM r WHERE a BETWEEN 20 AND 70"
            expected = control.execute(sql).scalar()
            db.execute(f"EXPLAIN ANALYZE {sql}")
            assert db.execute(sql).scalar() == expected, name


class TestSlowQueryLog:
    def test_threshold_zero_records_everything(self):
        db = Database(cracking=True, slow_query_ms=0.0)
        _load_small(db)
        db.execute("SELECT count(*) FROM r WHERE a > 10")
        log = db.slow_query_log()
        assert len(log) == 3  # create, insert, select
        record = log[-1]
        assert record["kind"] == "select"
        assert record["ms"] > 0
        assert record["rows"] == 1
        assert record["sql"].startswith("SELECT count(*)")
        span_names = [span["name"] for span in record["spans"]]
        assert "statement" in span_names and "gather" in span_names
        assert db.metrics.snapshot()["counters"][
            "repro_slow_statements_total"
        ] == {"": 3}

    def test_high_threshold_records_nothing(self):
        db = Database(slow_query_ms=60_000.0)
        _load_small(db)
        db.execute("SELECT count(*) FROM r")
        assert db.slow_query_log() == []

    def test_log_is_bounded(self):
        db = Database(slow_query_ms=0.0)
        db.execute("CREATE TABLE r (k integer)")
        for i in range(db.SLOW_LOG_CAPACITY + 20):
            db.execute(f"INSERT INTO r VALUES ({i})")
        assert len(db.slow_query_log()) == db.SLOW_LOG_CAPACITY

    def test_long_sql_is_truncated(self):
        db = Database(slow_query_ms=0.0)
        db.execute("CREATE TABLE r (k integer)")
        values = ", ".join(f"({i})" for i in range(400))
        db.execute(f"INSERT INTO r VALUES {values}")
        record = db.slow_query_log()[-1]
        assert len(record["sql"]) == 503
        assert record["sql"].endswith("...")


class TestStatsSurface:
    def test_unified_stats_shape(self):
        db = Database(cracking=True)
        _load_small(db)
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 10 AND 60")
        stats = db.stats()
        assert set(stats) == {
            "tables", "crackers", "cracker_detail", "plan_cache",
            "persistence", "metrics", "workload", "lineage", "convergence",
        }
        # Without profile=True the introspection views stay empty.
        assert stats["workload"] == {}
        assert stats["lineage"] == {}
        assert stats["convergence"] == {}
        assert stats["tables"] == {"r": 300}
        # The scattered accessors are thin views of the same state.
        assert stats["crackers"]["r.a"] == db.piece_count("r", "a")
        assert stats["plan_cache"]["misses"] >= 1
        assert stats["persistence"] == db.persistence_stats()
        detail = stats["cracker_detail"]["r.a"]
        for key in ("pieces", "tuples", "cracks", "tuples_touched",
                    "queries", "pending_inserts", "pending_deletes",
                    "pending_updates", "piece_tuples"):
            assert key in detail, key
        assert detail["tuples"] == 300
        assert detail["piece_tuples"]["min"] <= detail["piece_tuples"]["max"]

    def test_statement_kind_histograms(self):
        db = Database(cracking=True)
        _load_small(db)
        for _ in range(3):
            db.execute("SELECT count(*) FROM r WHERE a > 40")
        db.execute("UPDATE r SET a = 1 WHERE k = 0")
        db.execute("DELETE FROM r WHERE k = 1")
        hists = db.stats()["metrics"]["histograms"]["repro_statement_seconds"]
        assert hists["kind=select"]["count"] == 3
        assert hists["kind=create"]["count"] == 1
        assert hists["kind=insert"]["count"] == 1
        assert hists["kind=update"]["count"] == 1
        assert hists["kind=delete"]["count"] == 1
        snap = hists["kind=select"]
        assert 0 < snap["p50"] <= snap["p95"] <= snap["p99"]

    def test_cracker_collector_samples(self):
        db = Database(cracking=True)
        _load_small(db)
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 10 AND 60")
        text = db.metrics.render()
        assert 'repro_cracker_pieces{column="r.a"}' in text
        assert 'repro_cracker_tuples{column="r.a"} 300' in text
        assert "repro_plan_cache_misses" in text


class TestWritePathSpans:
    def test_wal_append_and_fsync_spans(self, tmp_path):
        db = Database(
            cracking=True, persist_dir=tmp_path, wal_fsync_every=1,
            trace=True,
        )
        db.execute("CREATE TABLE r (k integer, a integer)")
        db.execute("INSERT INTO r VALUES (1, 10)")
        root = db.last_trace()
        append = _find(root, "wal_append")
        assert append is not None
        assert append.meta["bytes"] > 8  # frame header + payload
        assert _find(root, "wal_fsync") is not None
        db.close()

    def test_checkpoint_span(self, tmp_path):
        db = Database(cracking=True, persist_dir=tmp_path)
        db.execute("CREATE TABLE r (k integer)")
        db.execute("INSERT INTO r VALUES (1)")
        with obs_trace.start_span("test") as root:
            db.checkpoint()
        span = _find(root, "checkpoint")
        assert span is not None
        assert span.meta["generation"] == 1
        assert span.meta["statements_compacted"] == 2
        db.close()

    def test_pending_and_tombstone_merge_spans(self):
        db = Database(cracking=True, trace=True)
        _load_small(db)
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 10 AND 60")
        db.execute("INSERT INTO r VALUES (400, 50)")
        db.execute("DELETE FROM r WHERE k = 3")
        # The next query that reads rows merges the pending insert and
        # the tombstone (a count merges nothing).
        db.execute("SELECT k FROM r WHERE a BETWEEN 10 AND 60")
        root = db.last_trace()
        merge = _find(root, "pending_merge")
        assert merge is not None
        assert merge.meta["inserts"] == 1
        assert _find(root, "tombstone_merge") is not None


class TestTracePrimitives:
    def test_spans_are_noops_outside_a_trace(self):
        assert not obs_trace.tracing()
        with obs_trace.span("anything") as node:
            assert node is None
            assert not obs_trace.tracing()

    def test_nesting_and_walk(self):
        with obs_trace.start_span("root") as root:
            assert obs_trace.tracing()
            with obs_trace.span("child") as child:
                obs_trace.annotate(note="deep")
                with obs_trace.span("grandchild"):
                    pass
        assert not obs_trace.tracing()
        assert [(d, s.name) for d, s in root.walk()] == [
            (0, "root"), (1, "child"), (2, "grandchild"),
        ]
        assert child.meta["note"] == "deep"
        assert root.duration_ns >= child.duration_ns > 0
        assert _find(root, "grandchild").duration_ns > 0

    def test_annotate_without_trace_is_noop(self):
        obs_trace.annotate(ignored=True)  # must not raise
