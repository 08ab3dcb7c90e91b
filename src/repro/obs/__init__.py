"""Engine-wide observability: metrics registry and span tracing.

Cracking's premise is that the index is a *side effect of running
queries* (Kersten & Manegold, CIDR'05) — so the interesting state
(pieces per column, cracks per query, pending-merge backlogs) only
exists if the engine can narrate its own behaviour.  This package is
that narration layer:

* :mod:`repro.obs.metrics` — thread-safe counters, collector-fed gauges and
  fixed-log-bucket latency histograms (p50/p95/p99 readouts) behind a
  per-:class:`~repro.sql.session.Database` :class:`MetricsRegistry`,
  with a Prometheus-style text exposition renderer;
* :mod:`repro.obs.trace` — context-local span tracing over monotonic
  clocks, instrumenting lex → parse → analyze → plan-cache → crack →
  pending-merge → gather on the read path and WAL append/fsync,
  checkpoint and tombstone merge on the write path;
* :mod:`repro.obs.introspect` — per-column index introspection: a
  bounded live lineage log of every crack/merge decision (the §3.2
  "administer the lineage" idea, live), a predicate-range workload
  profiler and a cost-model convergence curve, enabled by
  ``Database(profile=True)``;
* :mod:`repro.obs.timeseries` — a fixed-interval ring buffer of scalar
  metric samples with delta/rate readout, sampled by the server and
  rendered by the ``repro top`` live monitor.

Surfaces built on top: ``EXPLAIN ANALYZE <stmt>`` (span tree as result
rows), ``EXPLAIN INDEX <table>(<col>)`` (lineage/profiler/convergence
rows), ``Database(slow_query_ms=...)`` (structured slow-query log),
``Database.stats()`` (one nested dict unifying the formerly scattered
stats accessors, now including ``workload``/``lineage``/``convergence``),
the server's STATS/METRICS/TIMESERIES wire messages and the
``repro stats`` / ``repro top`` CLIs.

Everything is gated: with tracing off each instrumentation site costs
one ContextVar read, and ``Database(metrics=False)`` switches even the
per-statement histogram off.
"""

from repro.obs.introspect import ColumnIntrospection
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Counter,
    Histogram,
    MetricsRegistry,
    render_exposition,
)
from repro.obs.timeseries import TimeSeries
from repro.obs.trace import Span, annotate, span, start_span, tracing

__all__ = [
    "BUCKET_BOUNDS",
    "ColumnIntrospection",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TimeSeries",
    "annotate",
    "render_exposition",
    "span",
    "start_span",
    "tracing",
]
