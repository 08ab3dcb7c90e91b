"""Sequence runner: execute a multi-query sequence and collect metrics.

Drives one engine through a profile-generated query sequence, recording
per-step wall-clock times, cost-model counters and cumulative series —
the raw material of Figures 10 and 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchmark.profiles import RangeQuery
from repro.engines.base import DELIVERY_COUNT, Engine, QueryOutcome
from repro.errors import BenchmarkError


@dataclass
class StepMetrics:
    """Metrics of one step in a sequence run."""

    step: int
    rows: int
    elapsed_s: float
    page_reads: int
    page_writes: int
    tuples_moved: int = 0
    pieces: int = 0
    tuples_read: int = 0


@dataclass
class SequenceResult:
    """Aggregate outcome of a sequence run on one engine.

    ``cumulative_s[i]`` is the total time through step i+1 — the y-axis
    of Figures 10 and 11.
    """

    engine: str
    profile: str
    steps: list[StepMetrics] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(step.elapsed_s for step in self.steps)

    @property
    def cumulative_s(self) -> list[float]:
        series = []
        total = 0.0
        for step in self.steps:
            total += step.elapsed_s
            series.append(total)
        return series

    @property
    def per_step_s(self) -> list[float]:
        return [step.elapsed_s for step in self.steps]

    @property
    def total_tuples_touched(self) -> int:
        """Tuples read by predicate evaluation plus tuples moved by crack
        kernels, per the engines' cost accounting — the deterministic
        counterpart of :attr:`total_s` (identical on every run)."""
        return sum(step.tuples_read + step.tuples_moved for step in self.steps)

    @property
    def total_page_io(self) -> int:
        return sum(step.page_reads + step.page_writes for step in self.steps)

    def summary(self) -> dict:
        """Headline numbers for reports."""
        return {
            "engine": self.engine,
            "profile": self.profile,
            "steps": len(self.steps),
            "total_s": self.total_s,
            "final_step_s": self.steps[-1].elapsed_s if self.steps else 0.0,
            "total_page_io": self.total_page_io,
        }


def run_sequence(
    engine: Engine,
    table: str,
    queries: list[RangeQuery],
    delivery: str = DELIVERY_COUNT,
    profile: str = "unknown",
) -> SequenceResult:
    """Run ``queries`` in order against ``engine`` and collect metrics."""
    if not queries:
        raise BenchmarkError("cannot run an empty query sequence")
    result = SequenceResult(engine=engine.name, profile=profile)
    for query in queries:
        outcome = engine.range_query(
            table,
            query.attr,
            query.low,
            query.high,
            delivery=delivery,
            low_inclusive=True,
            high_inclusive=True,
        )
        result.steps.append(_step_metrics(query.step, outcome))
    return result


def _step_metrics(step: int, outcome: QueryOutcome) -> StepMetrics:
    return StepMetrics(
        step=step,
        rows=outcome.rows,
        elapsed_s=outcome.elapsed_s,
        page_reads=outcome.io.page_reads,
        page_writes=outcome.io.page_writes,
        tuples_moved=outcome.extra.get("tuples_moved", 0),
        pieces=outcome.extra.get("pieces", 0),
        tuples_read=outcome.io.tuples_read,
    )


def compare_engines(
    engines: list[Engine],
    table: str,
    queries: list[RangeQuery],
    delivery: str = DELIVERY_COUNT,
    profile: str = "unknown",
) -> dict[str, SequenceResult]:
    """Run the same sequence on several engines; results keyed by name."""
    results = {}
    for engine in engines:
        results[engine.name] = run_sequence(
            engine, table, queries, delivery=delivery, profile=profile
        )
    return results
