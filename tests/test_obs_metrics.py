"""Unit tests for the metrics layer: bucket math, quantiles, registry.

The histogram is the piece with real arithmetic in it — Prometheus
``le`` semantics on a fixed log₂ boundary table, rank-based quantile
readouts — so it gets the bulk of the coverage.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_exposition,
)


class TestBucketBounds:
    def test_log2_table_shape(self):
        assert len(BUCKET_BOUNDS) == 27
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-6)
        for prev, cur in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert cur == pytest.approx(prev * 2)
        # The table spans 1 us .. ~67 s: every engine latency fits.
        assert BUCKET_BOUNDS[-1] == pytest.approx(1e-6 * 2**26)

    def test_value_exactly_on_boundary_lands_in_that_bucket(self):
        # Prometheus le semantics: bucket le=B counts values <= B, so an
        # observation of exactly B must increment bucket B, not the next.
        for index in (0, 1, 13, 26):
            hist = Histogram("h")
            hist.observe(BUCKET_BOUNDS[index])
            counts = hist.bucket_counts()
            assert counts[index] == 1
            assert sum(counts) == 1

    def test_value_just_past_boundary_lands_in_next_bucket(self):
        hist = Histogram("h")
        hist.observe(BUCKET_BOUNDS[3] * 1.0001)
        assert hist.bucket_counts()[4] == 1

    def test_zero_and_submicrosecond_land_in_first_bucket(self):
        hist = Histogram("h")
        hist.observe(0.0)
        hist.observe(1e-9)
        assert hist.bucket_counts()[0] == 2

    def test_negative_clamps_to_zero(self):
        hist = Histogram("h")
        hist.observe(-1.0)
        assert hist.bucket_counts()[0] == 1
        assert hist.sum == 0.0

    def test_overflow_bucket(self):
        hist = Histogram("h")
        hist.observe(BUCKET_BOUNDS[-1] * 10)  # ~11 minutes
        counts = hist.bucket_counts()
        assert len(counts) == len(BUCKET_BOUNDS) + 1
        assert counts[-1] == 1


class TestHistogramQuantiles:
    def test_empty_histogram_answers_zero(self):
        hist = Histogram("h")
        assert hist.quantile(0.5) == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0
        assert snap["buckets"] == []

    def test_quantile_is_bucket_upper_bound(self):
        hist = Histogram("h")
        for _ in range(99):
            hist.observe(3e-6)  # bucket le=4e-6
        hist.observe(1.0)  # way out in a high bucket
        # p50 and p95 rank inside the 99-observation bucket.
        assert hist.quantile(0.50) == pytest.approx(4e-6)
        assert hist.quantile(0.95) == pytest.approx(4e-6)
        # p100 must reach the straggler's bucket bound (>= the value).
        assert hist.quantile(1.0) >= 1.0

    def test_quantile_rank_edges(self):
        hist = Histogram("h")
        hist.observe(3e-6)
        # A single observation answers every quantile (rank clamps to 1).
        assert hist.quantile(0.0) == pytest.approx(4e-6)
        assert hist.quantile(1.0) == pytest.approx(4e-6)

    def test_overflow_quantile_answers_observed_max(self):
        hist = Histogram("h")
        hist.observe(200.0)  # past the last boundary
        # The overflow bucket has no upper bound; the observed max is
        # the only honest answer.
        assert hist.quantile(0.99) == pytest.approx(200.0)

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_snapshot_quantiles_and_minmax(self):
        hist = Histogram("h")
        for value in (1e-5, 2e-5, 4e-5, 1e-3):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(1e-5 + 2e-5 + 4e-5 + 1e-3)
        assert snap["min"] == pytest.approx(1e-5)
        assert snap["max"] == pytest.approx(1e-3)
        assert snap["p50"] <= snap["p95"] <= snap["p99"]
        # Non-empty buckets only, as [le, count] pairs.
        assert all(count > 0 for _, count in snap["buckets"])
        assert sum(count for _, count in snap["buckets"]) == 4


class TestHistogramMerge:
    def test_concurrent_observes_lose_nothing(self):
        hist = Histogram("h")

        def pound():
            for _ in range(1000):
                hist.observe(1e-5)

        threads = [threading.Thread(target=pound) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == 4000
        assert hist.bucket_counts()[4] == 4000  # le=1.6e-5


class TestCountersAndGauges:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_gauge(self):
        g = Gauge("g")
        g.set(10)
        g.dec(3)
        g.inc()
        assert g.value == 8


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.histogram("h", {"kind": "select"}) is reg.histogram(
            "h", {"kind": "select"}
        )
        # Different labels are different metrics; label order is
        # irrelevant to identity.
        assert reg.counter("c", {"x": 1}) is not reg.counter("c")
        assert reg.gauge("g", {"a": 1, "b": 2}) is reg.gauge(
            "g", {"b": 2, "a": 1}
        )

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("requests", {"kind": "select"}).inc(3)
        reg.gauge("depth").set(7)
        reg.histogram("lat", {"kind": "select"}).observe(1e-4)
        snap = reg.snapshot()
        assert snap["counters"]["requests"] == {"kind=select": 3}
        assert snap["gauges"]["depth"] == {"": 7}
        assert snap["histograms"]["lat"]["kind=select"]["count"] == 1

    def test_collectors_surface_as_gauges(self):
        reg = MetricsRegistry()
        reg.register_collector(lambda: [("pieces", {"column": "r.a"}, 9)])
        snap = reg.snapshot()
        assert snap["gauges"]["pieces"] == {"column=r.a": 9}
        assert 'pieces{column="r.a"} 9' in reg.render()

    def test_disabled_registry_is_inert(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc()
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1.0)
        reg.register_collector(lambda: [("x", None, 1)])
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        assert reg.render() == ""
        # Null metrics never read back anything.
        assert reg.counter("c").value == 0
        assert reg.histogram("h").count == 0

    def test_render_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("total", {"kind": "select"}).inc(2)
        hist = reg.histogram("lat")
        hist.observe(3e-6)   # bucket le=4e-6
        hist.observe(100.0)  # overflow
        text = reg.render(extra=[("outside", {"q": 'a"b'}, 1.5)])
        assert "# TYPE total counter" in text
        assert 'total{kind="select"} 2' in text
        assert "# TYPE lat histogram" in text
        # Cumulative le buckets, empty buckets elided, overflow kept.
        assert 'lat_bucket{le="4e-06"} 1' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_count 2" in text
        # Extra samples render as gauges with escaped label values.
        assert 'outside{q="a\\"b"} 1.5' in text
        assert text.endswith("\n")

    def test_render_exposition_helper_skips_none(self):
        lines = render_exposition([("a", None, 1), ("b", None, None)])
        assert lines == ["# TYPE a gauge", "a 1"]
