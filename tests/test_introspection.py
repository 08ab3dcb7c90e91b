"""Tests for the index-introspection layer.

Covers the crack-lineage recorder, the per-column workload profiler and
its differential guarantee (profiling changes *nothing* about results),
EXPLAIN INDEX across every engine configuration, the metrics time-series
ring behind ``repro top``, and the ``# HELP`` exposition satellite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CatalogError, SQLAnalysisError
from repro.obs import introspect as obs_introspect, timeseries
from repro.obs.introspect import ColumnIntrospection
from repro.obs.metrics import MetricsRegistry, render_exposition
from repro.obs.timeseries import TimeSeries, rates
from repro.sql import Database

from oracle import (
    ENGINE_CONFIGS,
    assert_rows_equal,
    load_standard,
    random_mixed_dml,
    random_range_queries,
)

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

CRACKING_CONFIGS = {
    name: cfg for name, cfg in ENGINE_CONFIGS.items() if cfg.get("cracking", True)
}


def _load_small(db: Database, n: int = 300) -> None:
    db.execute("CREATE TABLE r (k integer, a integer)")
    values = ", ".join(f"({i}, {(i * 37) % 100})" for i in range(n))
    db.execute(f"INSERT INTO r VALUES {values}")


# ---------------------------------------------------------------------- #
# Differential: the profiler must be invisible in results
# ---------------------------------------------------------------------- #


class TestProfilerIsInvisible:
    """profile=True execution must be result-identical to default."""

    @pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
    def test_profiled_results_equal_unprofiled(self, name):
        config = ENGINE_CONFIGS[name]
        plain = Database(**config)
        profiled = Database(**config, profile=True)
        for db in (plain, profiled):
            load_standard(db, seed=4321)
        rng = np.random.default_rng(17)
        statements = random_range_queries(rng, 30, insert_every=7)
        statements += random_mixed_dml(np.random.default_rng(3), 20)
        for statement in statements:
            expected = plain.execute(statement)
            actual = profiled.execute(statement)
            context = (name, statement)
            assert actual.columns == expected.columns, context
            assert actual.affected == expected.affected, context
            # Identical configs ⇒ identical physical order: row-for-row
            # is the strictest form of "profiling changed nothing".
            assert_rows_equal(expected.rows, actual.rows, context)
        # And the profiled side actually profiled (cracking configs
        # crack r.a; the rowstore legitimately records nothing).
        if config.get("cracking", True):
            workload = profiled.stats()["workload"]
            assert "r.a" in workload
            assert workload["r.a"]["queries"] > 0
        else:
            assert profiled.stats()["workload"] == {}


# ---------------------------------------------------------------------- #
# Workload histogram property: totals equal executed range predicates
# ---------------------------------------------------------------------- #


def check_histogram_totals(predicates) -> None:
    db = Database(cracking=True, profile=True)
    _load_small(db, n=200)
    for low, width in predicates:
        db.execute(f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + width}")
    workload = db.stats()["workload"]["r.a"]
    assert sum(workload["histogram"]) == len(predicates)
    assert workload["queries"] == len(predicates)


class TestWorkloadHistogramProperty:
    if HAVE_HYPOTHESIS:

        @settings(max_examples=25, deadline=None)
        @given(
            st.lists(
                st.tuples(st.integers(0, 99), st.integers(0, 40)),
                min_size=1,
                max_size=20,
            )
        )
        def test_totals_equal_executed_range_predicates(self, predicates):
            check_histogram_totals(predicates)

    else:  # pragma: no cover - exercised on minimal installs

        def test_totals_equal_executed_range_predicates(self):
            rng = np.random.default_rng(5)
            for _ in range(15):
                count = int(rng.integers(1, 20))
                predicates = [
                    (int(rng.integers(0, 99)), int(rng.integers(0, 40)))
                    for _ in range(count)
                ]
                check_histogram_totals(predicates)

    def test_one_sided_and_repeated_predicates_each_count_once(self):
        db = Database(cracking=True, profile=True)
        _load_small(db)
        statements = [
            "SELECT k FROM r WHERE a >= 40",
            "SELECT k FROM r WHERE a < 70",
            "SELECT k FROM r WHERE a BETWEEN 10 AND 20",
            # exact plan-cache repeat still executes, so it still counts
            "SELECT k FROM r WHERE a BETWEEN 10 AND 20",
        ]
        for sql in statements:
            db.execute(sql)
        workload = db.stats()["workload"]["r.a"]
        assert sum(workload["histogram"]) == len(statements)
        assert workload["hot_range"]["count"] >= 1


# ---------------------------------------------------------------------- #
# Lineage recorder
# ---------------------------------------------------------------------- #


class TestLineage:
    def test_cracks_record_operator_bounds_and_statement(self):
        db = Database(cracking=True, profile=True, crack_threshold=0)
        _load_small(db)
        db.execute("SELECT k FROM r WHERE a BETWEEN 10 AND 60")
        lineage = db.stats()["lineage"]["r.a"]
        assert lineage["total_events"] >= 1
        cracks = [e for e in lineage["events"] if e["op"] == "Ξ"]
        assert cracks, lineage["events"]
        event = cracks[0]
        assert event["bounds"], event
        assert sum(event["pieces"]) > 0
        assert event["statement"] >= 1
        sequences = [e["seq"] for e in lineage["events"]]
        assert sequences == sorted(sequences)
        assert lineage["op_counts"]["Ξ"] == len(cracks)

    def test_merge_and_tombstone_events(self):
        db = Database(cracking=True, profile=True)
        _load_small(db)
        db.execute("SELECT k FROM r WHERE a BETWEEN 10 AND 60")
        db.execute("INSERT INTO r VALUES (9000, 33)")
        db.execute("SELECT k FROM r WHERE a BETWEEN 10 AND 60")
        db.execute("DELETE FROM r WHERE k = 9000")
        db.execute("SELECT k FROM r WHERE a BETWEEN 10 AND 60")
        ops = {e["op"] for e in db.stats()["lineage"]["r.a"]["events"]}
        assert "merge" in ops
        assert "tombstone" in ops

    def test_event_log_is_bounded_but_counts_everything(self, monkeypatch):
        monkeypatch.setattr(obs_introspect, "LINEAGE_CAPACITY", 4)
        intro = ColumnIntrospection("x", 0, 100)
        for i in range(10):
            intro.record_crack(bounds=(i,), piece_sizes=(i, 10 - i), moved=i)
        lineage = intro.lineage()
        assert len(lineage["events"]) == 4
        assert lineage["total_events"] == 10
        assert lineage["capacity"] == 4
        assert lineage["op_counts"]["Ξ"] == 10

    def test_disabled_profiler_records_nothing(self):
        db = Database(cracking=True)  # profile defaults off
        _load_small(db)
        db.execute("SELECT k FROM r WHERE a BETWEEN 10 AND 60")
        stats = db.stats()
        assert stats["lineage"] == {}
        assert stats["convergence"] == {}


# ---------------------------------------------------------------------- #
# Convergence curve
# ---------------------------------------------------------------------- #


class TestConvergence:
    def test_repeated_query_converges_below_scan_cost(self):
        db = Database(cracking=True, profile=True)
        _load_small(db, n=500)
        for _ in range(12):
            db.execute("SELECT count(*) FROM r WHERE a BETWEEN 30 AND 40")
        curve = db.stats()["convergence"]["r.a"]
        assert curve["queries"] == 12
        assert len(curve["curve"]) == 12
        # Once the piece boundaries exist, a query touches one narrow
        # piece: the modelled crack cost falls well below a full scan.
        assert curve["last"] < 1.0
        assert curve["savings"] is not None
        assert curve["crack_cost_total"] > 0
        assert curve["scan_cost_total"] > 0


# ---------------------------------------------------------------------- #
# EXPLAIN INDEX
# ---------------------------------------------------------------------- #


class TestExplainIndex:
    @pytest.mark.parametrize("name", sorted(CRACKING_CONFIGS))
    def test_profiled_shape_on_every_engine(self, name):
        db = Database(**CRACKING_CONFIGS[name], profile=True)
        _load_small(db)
        db.execute("SELECT k FROM r WHERE a BETWEEN 10 AND 60")
        db.execute("SELECT count(*) FROM r WHERE a >= 70")
        result = db.execute("EXPLAIN INDEX r(a)")
        assert result.columns == ["section", "entry", "detail"]
        sections = {row[0] for row in result.rows}
        assert sections == {"index", "lineage", "workload", "convergence"}, name
        by_key = {(row[0], row[1]): row[2] for row in result.rows}
        assert by_key[("index", "status")] == "cracked"
        assert ("workload", "histogram") in by_key
        assert ("convergence", "last") in by_key

    @pytest.mark.parametrize("name", sorted(CRACKING_CONFIGS))
    def test_profiler_off_still_answers(self, name):
        db = Database(**CRACKING_CONFIGS[name])
        _load_small(db)
        db.execute("SELECT k FROM r WHERE a BETWEEN 10 AND 60")
        result = db.execute("EXPLAIN INDEX r(a)")
        by_key = {(row[0], row[1]): row[2] for row in result.rows}
        assert by_key[("index", "status")] == "cracked"
        assert by_key[("profiler", "status")].startswith("off")

    def test_rowstore_and_untouched_column_get_status_rows(self):
        rowstore = Database(cracking=False)
        _load_small(rowstore)
        result = rowstore.execute("EXPLAIN INDEX r(a)")
        assert result.rows == [("index", "status", "cracking off: no cracker index")]

        cracked = Database(cracking=True, profile=True)
        _load_small(cracked)
        result = cracked.execute("explain index r(a)")  # case-insensitive
        assert result.rows[0][2].startswith("not cracked yet")

    def test_unknown_table_and_column_raise(self):
        db = Database(cracking=True)
        _load_small(db)
        with pytest.raises(CatalogError):
            db.execute("EXPLAIN INDEX nosuch(a)")
        with pytest.raises(SQLAnalysisError):
            db.execute("EXPLAIN INDEX r(nosuch)")


# ---------------------------------------------------------------------- #
# Time-series ring
# ---------------------------------------------------------------------- #


class TestTimeSeries:
    def test_ring_keeps_the_last_capacity_samples(self, monkeypatch):
        monkeypatch.setattr(timeseries, "CAPACITY", 3)
        monkeypatch.setattr(timeseries, "INTERVAL_S", 0.5)
        ring = TimeSeries()
        for i in range(7):
            ring.record({"n": i}, at=float(i))
        snap = ring.snapshot()
        assert snap["taken"] == 7
        assert snap["capacity"] == 3
        assert snap["interval"] == 0.5
        assert [s["n"] for s in snap["samples"]] == [4, 5, 6]

    def test_record_drops_non_numeric_and_stamps_time(self):
        ring = TimeSeries()
        ring.record({"ok": 1, "skip": "text", "flag": True, "f": 2.5}, at=10.0)
        (sample,) = ring.snapshot()["samples"]
        assert sample == {"t": 10.0, "ok": 1, "f": 2.5}

    def test_snapshot_last_trims(self):
        ring = TimeSeries()
        for i in range(6):
            ring.record({"n": i}, at=float(i))
        assert len(ring.snapshot(last=2)["samples"]) == 2
        assert len(ring.snapshot()["samples"]) == 6

    def test_rates_between_last_two_samples(self):
        samples = [
            {"t": 0.0, "statements": 100, "gone": 5},
            {"t": 10.0, "statements": 100, "x": 1},
            {"t": 12.0, "statements": 150, "reset": 0},
        ]
        out = rates(samples)
        assert out["statements"] == pytest.approx(25.0)
        assert "t" not in out
        assert "gone" not in out  # only keys in both of the last two
        assert rates(samples[:1]) == {}
        # zero/negative elapsed and counter resets degrade safely
        assert rates([{"t": 5.0, "n": 1}, {"t": 5.0, "n": 2}]) == {}
        down = rates([{"t": 0.0, "n": 9}, {"t": 1.0, "n": 3}])
        assert down["n"] == 0.0


# ---------------------------------------------------------------------- #
# Timeseries wire message
# ---------------------------------------------------------------------- #


class TestTimeseriesWire:
    def _session(self):
        """A session on a server that was built but never started, so
        its sampler never ran."""
        from repro.server import ReproServer
        from repro.server.protocol import PROTOCOL_VERSION
        from repro.server.session import ClientSession

        session = ClientSession(ReproServer(Database(cracking=True)), 1)
        hello = session.handle({"type": "hello", "protocol": PROTOCOL_VERSION})
        assert hello["type"] == "hello"
        return session

    def test_an_unsampled_servers_ring_is_empty(self):
        session = self._session()
        reply = session.handle({"type": "timeseries"})
        assert reply["type"] == "timeseries"
        assert reply["payload"]["taken"] == 0
        assert reply["payload"]["samples"] == []

    def test_snapshot_passthrough_and_last_validation(self):
        session = self._session()
        ring = session.server.timeseries
        ring.record({"statements": 7}, at=1.0)
        ring.record({"statements": 9}, at=3.0)
        reply = session.handle({"type": "timeseries", "last": 1})
        assert reply["type"] == "timeseries"
        assert len(reply["payload"]["samples"]) == 1
        assert reply["payload"]["taken"] == 2
        for bad in ("2", True, 1.5):
            error = session.handle({"type": "timeseries", "last": bad})
            assert error["type"] == "error", bad
            assert error["code"] == "protocol", bad


# ---------------------------------------------------------------------- #
# Prometheus # HELP satellite
# ---------------------------------------------------------------------- #


class TestHelpExposition:
    def test_described_metrics_emit_help_lines(self):
        registry = MetricsRegistry()
        registry.counter(
            "jobs_total", description="Jobs processed"
        ).inc()
        registry.histogram("latency_seconds", description="End-to-end").observe(0.1)
        registry.describe("external_gauge", "Fed by a collector")
        registry.register_collector(lambda: [("external_gauge", None, 4)])
        text = registry.render()
        assert "# HELP jobs_total Jobs processed" in text
        assert "# HELP latency_seconds End-to-end" in text
        assert "# HELP external_gauge Fed by a collector" in text
        # HELP precedes TYPE for the same metric, per the text format.
        lines = text.splitlines()
        assert lines.index("# HELP jobs_total Jobs processed") < lines.index(
            "# TYPE jobs_total counter"
        )

    def test_undescribed_metrics_render_unchanged(self):
        assert render_exposition([("a", None, 1)]) == ["# TYPE a gauge", "a 1"]

    def test_engine_exposition_documents_its_metrics(self):
        db = Database(cracking=True)
        _load_small(db)
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 10 AND 60")
        text = db.metrics.render()
        assert "# HELP repro_statement_seconds " in text
        assert "# HELP repro_cracker_pieces " in text


# ---------------------------------------------------------------------- #
# CLI renderers (pure functions behind `repro top` / `repro stats --watch`)
# ---------------------------------------------------------------------- #


class TestMonitorRenderers:
    def test_render_top_frame_has_greppable_rates(self):
        from repro.__main__ import _render_top

        snapshot = {
            "interval": 1.0,
            "capacity": 600,
            "taken": 2,
            "samples": [
                {"t": 0.0, "statements": 0, "cracks": 0, "tuples_moved": 0,
                 "pieces": 1, "connections": 1, "queue_depth": 0},
                {"t": 2.0, "statements": 90, "cracks": 4, "tuples_moved": 800,
                 "pieces": 5, "connections": 1, "queue_depth": 0,
                 "select_p50_ms": 0.4, "select_p99_ms": 1.2,
                 "convergence:r.a": 0.21},
            ],
        }
        frame = _render_top("127.0.0.1:7744", snapshot)
        assert "qps" in frame
        assert "45.0" in frame  # 90 statements / 2 s
        assert "cracks/s" in frame
        assert "r.a" in frame
        empty = _render_top("x:1", {"interval": 1.0, "samples": []})
        assert "no samples yet" in empty

    def test_renderers_show_the_checkpoint_writer(self):
        from repro.__main__ import _render_stats, _render_top

        sample = {"t": 0.0, "statements": 0, "generation": 4,
                  "durable_generation": 3, "checkpoint_in_flight": 1,
                  "checkpoint_failures": 0}
        frame = _render_top("x:1", {"interval": 1.0, "samples": [sample]})
        assert "generation    4   durable    3   checkpoint writing" in frame
        text = "\n".join(_render_stats({
            "server": {}, "gateway": {}, "metrics": {},
            "plan_cache": {"hits": 1, "template_hits": 2, "misses": 3,
                           "dml_template_hits": 4},
            "persistence": {"persistent": True, "generation": 4,
                            "durable_generation": 4, "durable_statements": 9,
                            "wal_bytes": 0, "checkpoint_in_flight": False,
                            "checkpoint_failures": 1},
        }))
        assert "4 DML template hits" in text
        assert "generation 4 (durable 4)" in text
        assert "checkpoint idle, 1 failed" in text

    def test_render_stats_includes_convergence_line(self):
        from repro.__main__ import _render_stats

        lines = _render_stats({
            "server": {}, "gateway": {},
            "tables": {"r": 10}, "crackers": {"r.a": 3},
            "cracker_detail": {}, "metrics": {},
            "convergence": {
                "r.a": {"last": 0.25, "recent_mean": 0.5, "queries": 8},
            },
        })
        text = "\n".join(lines)
        assert "profile r.a" in text
        assert "0.2500" in text
