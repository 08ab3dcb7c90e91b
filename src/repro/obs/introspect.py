"""Index introspection: live crack lineage and per-column workload profiling.

The paper's §3.2 argues that "cracking the database into pieces should be
complemented with information to reconstruct its original state" — the
lineage of every cracker application.  :mod:`repro.core.lineage` records
that DAG for the simulation harness; this module is the *live* engine
counterpart: a bounded, thread-safe decision log attached to each cracked
column (``column.introspect``), fed by the crack kernels and the
merge-on-query write path, plus a workload profiler that scores every
range predicate against the §2 cost model in
:mod:`repro.simulation.cost_model`.

Three surfaces per column, all JSON-safe:

* **lineage** — the most recent crack/merge/tombstone-merge decisions
  (operator tag — Ξ for a select crack, matching the paper's notation —
  bound(s), resulting piece sizes, tuples moved, and the id of the
  statement that triggered the reorganisation);
* **workload** — a predicate-range histogram over the column's value
  domain (where queries actually cut), observed selectivity, and the
  hottest range;
* **convergence** — a bounded curve of per-query cost ratios
  (``crack_query_cost / scan_query_cost``): 1.0 means the query cost as
  much as a full scan, and the curve decaying toward ``answer/N`` is the
  paper's "the more we crack, the more we learn" made measurable.

The profiler is *off* by default.  ``column.introspect`` is ``None``
unless ``Database(profile=True)`` attached an object, so every hook site
on the query path costs exactly one attribute read and one branch when
disabled — the same discipline :mod:`repro.obs.trace` follows.  When
enabled, all mutation of the introspection state happens inside a
statement, under the database's statement lock, plus a small internal
lock so readers on other threads never see a half-recorded event.
"""

from __future__ import annotations

import threading
from collections import deque
from contextvars import ContextVar

from repro.core.lineage import OP_XI
from repro.simulation.cost_model import CostModel

__all__ = [
    "ColumnIntrospection",
    "LINEAGE_CAPACITY",
    "WORKLOAD_BUCKETS",
    "CONVERGENCE_CAPACITY",
    "set_statement_id",
    "value_domain",
]

#: Bound on the per-column lineage log (oldest decisions drop; the
#: all-time counters keep counting).
LINEAGE_CAPACITY = 256

#: Fixed bucket count of the predicate-range histogram.
WORKLOAD_BUCKETS = 32

#: Bound on the per-column convergence curve.
CONVERGENCE_CAPACITY = 512

#: Merge operator tags.  Cracks use the paper's Ξ; the merge-on-query
#: write path gets its own vocabulary (Ψ/^/Ω mean projection/join/
#: group-by in the paper, not updates).
OP_MERGE = "merge"
OP_TOMBSTONE = "tombstone"

#: The id of the SQL statement currently executing, for lineage events.
#: 0 means "outside any profiled statement" (direct core-layer calls).
_STATEMENT_ID: ContextVar[int] = ContextVar("repro_statement_id", default=0)


def set_statement_id(statement_id: int):
    """Bind the trigger-statement id for this context; returns the token."""
    return _STATEMENT_ID.set(statement_id)


def value_domain(column) -> tuple[float, float]:
    """The (min, max) value span of a cracked column, for histogram bounds.

    An empty column gets the degenerate ``(0.0, 1.0)`` domain.
    """
    values = column.values
    if not len(values):
        return 0.0, 1.0
    return float(values.min()), float(values.max())


def _clean(value):
    """A bound as a JSON-safe plain Python value (numpy scalars unwrapped)."""
    if value is None:
        return None
    item = getattr(value, "item", None)
    return item() if item is not None else value


class ColumnIntrospection:
    """Bounded lineage log plus workload/convergence profile of one column.

    One instance per cracked column.  All recorders take the internal
    lock; all readers return plain dict/list snapshots safe to serialise
    onto the wire.

    Args:
        name: ``table.attr`` label of the column.
        domain_low / domain_high: value span for the workload histogram
            (predicate midpoints outside it clamp to the edge buckets).

    The lineage log keeps :data:`LINEAGE_CAPACITY` events, the histogram
    has :data:`WORKLOAD_BUCKETS` buckets and the convergence curve is
    scored with the default §2 :class:`CostModel`; all are read when the
    column is profiled.
    """

    def __init__(
        self,
        name: str,
        domain_low: float = 0.0,
        domain_high: float = 1.0,
    ) -> None:
        self.name = name
        domain_low = float(domain_low)
        domain_high = float(domain_high)
        if domain_high <= domain_low:
            domain_high = domain_low + 1.0
        self.domain = (domain_low, domain_high)
        self.buckets = WORKLOAD_BUCKETS
        self._bucket_width = (domain_high - domain_low) / self.buckets
        # Hot-path caches: record_query runs once per range predicate on
        # the sustained query loop, so it avoids divisions and repeated
        # attribute chains (the ledger's ``point_count`` ``emb_p50_us``
        # row gates what it may cost).
        self._inv_bucket_width = 1.0 / self._bucket_width
        self._domain_mid = (domain_low + domain_high) / 2.0
        self._lock = threading.Lock()
        # Lineage: bounded event log + all-time accounting.
        self._events: deque = deque(maxlen=LINEAGE_CAPACITY)
        self._event_seq = 0
        self._op_counts: dict[str, int] = {}
        # Workload: predicate-range histogram + selectivity.
        self._histogram = [0] * self.buckets
        self._queries = 0
        self._selectivity_sum = 0.0
        self._last_selectivity = 0.0
        # Convergence: bounded per-query cost-ratio curve.
        cost = CostModel()
        self._scan_cost = cost.scan_query_cost
        self._crack_cost = cost.crack_query_cost
        self._curve: deque = deque(maxlen=CONVERGENCE_CAPACITY)
        self._crack_cost_total = 0.0
        self._scan_cost_total = 0.0

    # ------------------------------------------------------------------ #
    # Recorders (called inside a statement; cheap, allocation-light)
    # ------------------------------------------------------------------ #

    def record_crack(self, bounds, piece_sizes, moved: int, op: str = OP_XI) -> None:
        """One cracker-index reorganisation: a crack-in-two or -three.

        Args:
            bounds: the pivot value(s) the kernel cracked on.
            piece_sizes: tuple sizes of the resulting pieces.
            moved: tuples the kernel physically moved.
            op: operator tag (default Ξ, the paper's select crack).
        """
        with self._lock:
            self._event_seq += 1
            self._op_counts[op] = self._op_counts.get(op, 0) + 1
            self._events.append({
                "seq": self._event_seq,
                "op": op,
                "bounds": [_clean(bound) for bound in bounds],
                "pieces": [int(size) for size in piece_sizes],
                "moved": int(moved),
                "statement": _STATEMENT_ID.get(),
            })

    def record_merge(self, op: str, tuples: int) -> None:
        """One merge-on-query event (pending inserts or tombstones)."""
        with self._lock:
            self._event_seq += 1
            self._op_counts[op] = self._op_counts.get(op, 0) + 1
            self._events.append({
                "seq": self._event_seq,
                "op": op,
                "tuples": int(tuples),
                "statement": _STATEMENT_ID.get(),
            })

    def record_query(
        self, low, high, answer: int, touched: int, moved: int, n: int
    ) -> None:
        """Profile one executed range predicate against the cost model.

        Every call increments exactly one histogram bucket (keyed by the
        predicate's midpoint — the finite bound for one-sided ranges),
        which is the invariant the property tests pin: histogram totals
        equal the number of executed range predicates.
        """
        if low is None:
            midpoint = self._domain_mid if high is None else float(high)
        elif high is None:
            midpoint = float(low)
        else:
            midpoint = (float(low) + float(high)) * 0.5
        bucket = int((midpoint - self.domain[0]) * self._inv_bucket_width)
        if bucket < 0:
            bucket = 0
        elif bucket >= self.buckets:
            bucket = self.buckets - 1
        selectivity = answer / n if n else 0.0
        scan_cost = self._scan_cost(n, answer, count_only=True)
        crack_cost = self._crack_cost(touched, moved, answer, count_only=True)
        ratio = float(crack_cost / scan_cost) if scan_cost else 0.0
        # Direct acquire/release: a `with` block costs a context-manager
        # dispatch per query on the sustained hot path.
        lock = self._lock
        lock.acquire()
        self._histogram[bucket] += 1
        self._queries += 1
        self._selectivity_sum += selectivity
        self._last_selectivity = selectivity
        self._curve.append(ratio)
        self._crack_cost_total += crack_cost
        self._scan_cost_total += scan_cost
        lock.release()

    # ------------------------------------------------------------------ #
    # Readouts (plain snapshots, JSON-safe)
    # ------------------------------------------------------------------ #

    def lineage(self) -> dict:
        """The decision log: recent events plus all-time operator counts."""
        with self._lock:
            return {
                "column": self.name,
                "total_events": self._event_seq,
                "capacity": self._events.maxlen,
                "op_counts": dict(self._op_counts),
                "events": [dict(event) for event in self._events],
            }

    def workload(self) -> dict:
        """Predicate-range histogram, selectivity and the hottest range."""
        low, high = self.domain
        with self._lock:
            counts = list(self._histogram)
            queries = self._queries
            mean = self._selectivity_sum / queries if queries else 0.0
            last = self._last_selectivity
        hot = max(range(self.buckets), key=counts.__getitem__) if queries else None
        return {
            "column": self.name,
            "queries": queries,
            "domain": [low, high],
            "bucket_width": self._bucket_width,
            "histogram": counts,
            "selectivity": {"mean": mean, "last": last},
            "hot_range": None if hot is None else {
                "low": low + hot * self._bucket_width,
                "high": low + (hot + 1) * self._bucket_width,
                "count": counts[hot],
            },
        }

    def convergence(self) -> dict:
        """The cost-model curve: per-query crack-vs-scan cost ratios.

        ``last`` near ``selectivity`` (and far below 1.0) means the
        column has converged — queries pay the answer, not the scan.
        ``savings`` is cumulative: total crack cost over total scan cost
        for every profiled query.
        """
        with self._lock:
            curve = list(self._curve)
            crack_total = self._crack_cost_total
            scan_total = self._scan_cost_total
            queries = self._queries
        recent = curve[-32:]
        return {
            "column": self.name,
            "queries": queries,
            "curve": curve,
            "last": curve[-1] if curve else None,
            "recent_mean": sum(recent) / len(recent) if recent else None,
            "crack_cost_total": crack_total,
            "scan_cost_total": scan_total,
            "savings": crack_total / scan_total if scan_total else None,
        }

    def snapshot(self) -> dict:
        """All three surfaces in one dict (the stats()/EXPLAIN INDEX feed)."""
        return {
            "lineage": self.lineage(),
            "workload": self.workload(),
            "convergence": self.convergence(),
        }
