"""Thread-safe metrics: counters and log-bucket histograms.

One :class:`MetricsRegistry` lives on every
:class:`~repro.sql.session.Database` (``db.metrics``); the server layers
its own counters on top when it renders the registry for the ``METRICS``
wire message.  Everything here is designed for the engine's hot path:

* metric objects are created once (get-or-create, keyed by name +
  labels) and then held by the instrumented code, so recording is a
  method call on a cached object — no registry lookup per event;
* :meth:`Histogram.observe` is a ``bisect`` over a fixed boundary table
  plus one locked increment, a couple of microseconds.

Histograms use **fixed log₂ buckets**: boundary ``i`` is ``1 µs · 2^i``
seconds, spanning 1 µs to ~67 s with one overflow bucket past the last
boundary.  Bucket semantics are Prometheus-style ``le``: a value lands
in the first bucket whose boundary is >= the value, so every recorded
count maps directly onto a ``_bucket{le=...}`` exposition line.
Quantile readouts (:meth:`Histogram.quantile`, surfaced as p50/p95/p99
in :meth:`Histogram.snapshot`) return the upper boundary of the bucket
holding the requested rank — an upper bound with at most one bucket
(2×) of error, which is what log buckets buy.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "render_exposition",
]

#: Histogram bucket upper bounds in seconds: 1 µs · 2^i for i in 0..26
#: (1 µs .. ~67 s).  Values past the last boundary land in the overflow
#: bucket; values at or below 1 µs land in the first.
BUCKET_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2.0**i for i in range(27))


def _label_key(labels: dict | None) -> tuple:
    """Canonical hashable form of a label dict (sorted item tuple)."""
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count (statements executed, cracks...)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Histogram:
    """Fixed log₂-bucket latency histogram with quantile readouts.

    ``observe`` records a duration in seconds; ``quantile(q)`` answers
    "below what latency did fraction ``q`` of observations fall" as the
    upper bound of the bucket holding that rank.
    """

    __slots__ = ("name", "labels", "_counts", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, labels: dict | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        # One slot per boundary plus the overflow bucket.
        self._counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one duration (negative values clamp to zero)."""
        if seconds < 0.0:
            seconds = 0.0
        index = bisect_left(BUCKET_BOUNDS, seconds)
        with self._lock:
            self._counts[index] += 1
            self._sum += seconds
            if seconds < self._min:
                self._min = seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Latency upper bound for quantile ``q`` in [0, 1].

        Returns 0.0 for an empty histogram.  Ranks landing in the
        overflow bucket answer with the maximum observed value (the
        only upper bound the overflow bucket has).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = sum(self._counts)
            if total == 0:
                return 0.0
            rank = max(1, math.ceil(q * total))
            cumulative = 0
            for index, bucket in enumerate(self._counts):
                cumulative += bucket
                if cumulative >= rank:
                    if index < len(BUCKET_BOUNDS):
                        return BUCKET_BOUNDS[index]
                    return self._max
            return self._max  # pragma: no cover - rank <= total always hits

    def bucket_counts(self) -> list[int]:
        """Per-bucket counts (last entry is the overflow bucket)."""
        with self._lock:
            return list(self._counts)

    def snapshot(self) -> dict:
        """JSON-friendly readout: count, sum, min/max, p50/p95/p99.

        ``buckets`` lists only the non-empty buckets as ``[le, count]``
        pairs (``le`` is ``None`` for the overflow bucket), keeping
        STATS payloads small for converged workloads.
        """
        with self._lock:
            counts = list(self._counts)
            total, total_sum = sum(counts), self._sum
            minimum, maximum = self._min, self._max
        buckets = [
            [BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else None, c]
            for i, c in enumerate(counts)
            if c
        ]
        return {
            "count": total,
            "sum": total_sum,
            "min": 0.0 if total == 0 else minimum,
            "max": maximum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics plus dynamic collectors.

    Metrics are keyed by ``(name, labels)``: asking twice for the same
    pair returns the same object, so instrumented code can resolve its
    metrics once and record on the cached handle.  ``collectors`` cover
    state that is cheaper to read on demand than to maintain as a
    metric — cracker piece counts, plan-cache entries, WAL size: a
    collector is a zero-argument callable returning ``(name, labels,
    value)`` samples, invoked on every :meth:`snapshot` /
    :meth:`render` and exposed as gauges.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, Counter | Histogram] = {}
        self._collectors: list = []
        self._descriptions: dict[str, str] = {}
        self._lock = threading.Lock()

    def _get(
        self,
        factory,
        name: str,
        labels: dict | None,
        description: str | None,
    ):
        key = (name, _label_key(labels))
        with self._lock:
            if description is not None:
                self._descriptions.setdefault(name, description)
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(name, labels)
                self._metrics[key] = metric
            return metric

    def counter(
        self,
        name: str,
        labels: dict | None = None,
        description: str | None = None,
    ) -> Counter:
        """The counter registered under ``name`` + ``labels``."""
        return self._get(Counter, name, labels, description)

    def histogram(
        self,
        name: str,
        labels: dict | None = None,
        description: str | None = None,
    ) -> Histogram:
        """The histogram registered under ``name`` + ``labels``."""
        return self._get(Histogram, name, labels, description)

    def describe(self, name: str, description: str) -> None:
        """Register a ``# HELP`` text for a metric family by name.

        Collector-produced gauges have no register site that could carry
        a description, so their owners call this once at wiring time.
        """
        with self._lock:
            self._descriptions.setdefault(name, description)

    def register_collector(self, collector) -> None:
        """Add a callable yielding ``(name, labels, value)`` samples."""
        with self._lock:
            self._collectors.append(collector)

    def _collect(self) -> list[tuple]:
        samples: list[tuple] = []
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            samples.extend(collector())
        return samples

    def snapshot(self) -> dict:
        """Nested JSON-friendly readout of every metric and collector.

        Shape: ``{"counters": {name: {label_key: int}}, "gauges": {...},
        "histograms": {name: {label_key: histogram-snapshot}}}`` where
        ``label_key`` is ``"k=v,..."`` (``""`` for unlabelled metrics).
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            key = ",".join(f"{k}={v}" for k, v in sorted(metric.labels.items()))
            if isinstance(metric, Histogram):
                out["histograms"].setdefault(metric.name, {})[key] = (
                    metric.snapshot()
                )
            else:
                out["counters"].setdefault(metric.name, {})[key] = metric.value
        for name, labels, value in self._collect():
            key = ",".join(f"{k}={v}" for k, v in sorted((labels or {}).items()))
            out["gauges"].setdefault(name, {})[key] = value
        return out

    def render(self, extra=None) -> str:
        """Prometheus-style text exposition of the whole registry.

        ``extra`` optionally adds ``(name, labels, value)`` gauge
        samples from outside the registry (the server merges its own
        connection and statement counters this way).
        """
        with self._lock:
            metrics = list(self._metrics.values())
            descriptions = dict(self._descriptions)
        lines: list[str] = []
        typed: set[str] = set()
        for metric in sorted(metrics, key=lambda m: m.name):
            if isinstance(metric, Histogram):
                if metric.name not in typed:
                    typed.add(metric.name)
                    if metric.name in descriptions:
                        lines.append(
                            f"# HELP {metric.name} "
                            f"{_escape(descriptions[metric.name])}"
                        )
                    lines.append(f"# TYPE {metric.name} histogram")
                labels = metric.labels
                cumulative = 0
                for index, bucket in enumerate(metric.bucket_counts()):
                    cumulative += bucket
                    if not bucket and index < len(BUCKET_BOUNDS):
                        continue  # keep the exposition small
                    le = (
                        _format_value(BUCKET_BOUNDS[index])
                        if index < len(BUCKET_BOUNDS)
                        else "+Inf"
                    )
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_format_labels({**labels, 'le': le})} {cumulative}"
                    )
                lines.append(
                    f"{metric.name}_sum{_format_labels(labels)} "
                    f"{_format_value(metric.sum)}"
                )
                lines.append(
                    f"{metric.name}_count{_format_labels(labels)} {metric.count}"
                )
            else:
                if metric.name not in typed:
                    typed.add(metric.name)
                    if metric.name in descriptions:
                        lines.append(
                            f"# HELP {metric.name} "
                            f"{_escape(descriptions[metric.name])}"
                        )
                    lines.append(f"# TYPE {metric.name} counter")
                lines.append(
                    f"{metric.name}{_format_labels(metric.labels)} "
                    f"{_format_value(metric.value)}"
                )
        samples = self._collect()
        if extra:
            samples.extend(extra)
        lines.extend(render_exposition(samples, descriptions))
        return "\n".join(lines) + ("\n" if lines else "")


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_exposition(samples, descriptions: dict | None = None) -> list[str]:
    """Render ``(name, labels, value)`` samples as gauge lines.

    Standalone so server-side state that lives outside any registry
    (statement counters, per-connection queue depths) renders through
    the exact same formatting as registry metrics.  ``descriptions``
    optionally maps names to ``# HELP`` texts.
    """
    lines: list[str] = []
    typed: set[str] = set()
    for name, labels, value in samples:
        if value is None:
            continue
        if name not in typed:
            typed.add(name)
            if descriptions and name in descriptions:
                lines.append(f"# HELP {name} {_escape(descriptions[name])}")
            lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{_format_labels(labels or {})} {_format_value(value)}")
    return lines
