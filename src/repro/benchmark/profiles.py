"""Multi-query user profiles: homerun, hiking and strolling (§4).

The paper organises the space of multi-query sequences around three
idealised user behaviours:

* **homerun** — zooming into a target subset of σN tuples with
  monotonically shrinking, nested range queries;
* **hiking** — a fixed-size window (σN tuples) drifting toward a final
  location, with the overlap between consecutive answers growing to 100%;
* **strolling** — a random walk: bounds drawn at random, selectivities
  taken from a ρ series (in order for a "converge" stroll, or drawn at
  random with/without replacement).

A sequence is characterised by the tuple ``MQS(α, N, k, σ, ρ, δ)``
(Definition, §4); :func:`homerun_sequence`, :func:`hiking_sequence` and
:func:`strolling_sequence` turn one into concrete range queries over the
tapestry value domain 1..N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.benchmark.distributions import get_distribution
from repro.errors import BenchmarkError

PROFILE_HOMERUN = "homerun"
PROFILE_HIKING = "hiking"
PROFILE_STROLLING = "strolling"
PROFILES = (PROFILE_HOMERUN, PROFILE_HIKING, PROFILE_STROLLING)


@dataclass(frozen=True)
class MQS:
    """The multi-query sequence space descriptor (paper Definition, §4).

    Attributes:
        alpha: table arity.
        n: table cardinality N.
        k: sequence length (steps to reach the target set).
        sigma: target selectivity factor σ.
        rho: selectivity distribution name ('linear'/'exponential'/'logarithmic').
        delta: overlap model name for hiking (defaults to rho).
    """

    alpha: int
    n: int
    k: int
    sigma: float
    rho: str = "linear"
    delta: str | None = None

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise BenchmarkError(f"alpha must be >= 1, got {self.alpha}")
        if self.n < 1:
            raise BenchmarkError(f"N must be >= 1, got {self.n}")
        if self.k < 1:
            raise BenchmarkError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.sigma <= 1.0:
            raise BenchmarkError(f"sigma must be in (0, 1], got {self.sigma}")
        get_distribution(self.rho)  # validates
        if self.delta is not None:
            get_distribution(self.delta)


@dataclass(frozen=True)
class RangeQuery:
    """One step of a multi-query sequence: ``attr ∈ [low, high]``."""

    step: int
    attr: str
    low: int
    high: int


def _interval_for_selectivity(
    selectivity: float, n: int
) -> int:
    """Window width (in domain values) for a selectivity over 1..N."""
    return max(1, min(n, round(selectivity * n)))


def homerun_sequence(
    mqs: MQS, attr: str = "a", seed: int = 0
) -> list[RangeQuery]:
    """Nested zooming queries converging on a random σN target interval.

    Each query strictly contains the next and the last equals the target
    window — the "consistently improving" user of §4.
    """
    rng = np.random.default_rng(seed)
    rho = get_distribution(mqs.rho)
    target_width = _interval_for_selectivity(mqs.sigma, mqs.n)
    target_low = int(rng.integers(1, mqs.n - target_width + 2))
    target_high = target_low + target_width - 1
    # A fixed fraction decides how the slack is distributed around the
    # target, so successive windows are nested.
    slack_fraction = float(rng.uniform(0.0, 1.0))
    queries = []
    for step in range(1, mqs.k + 1):
        width = _interval_for_selectivity(rho(step, mqs.k, mqs.sigma), mqs.n)
        width = max(width, target_width)
        slack = width - target_width
        low = target_low - int(round(slack * slack_fraction))
        low = max(1, min(low, mqs.n - width + 1))
        high = low + width - 1
        if high < target_high:  # clamp drift at the domain edge
            high = target_high
            low = high - width + 1
        queries.append(RangeQuery(step=step, attr=attr, low=low, high=high))
    return queries


def hiking_sequence(
    mqs: MQS, attr: str = "a", seed: int = 0
) -> list[RangeQuery]:
    """A fixed-width window drifting toward a final location.

    Every query selects exactly σN tuples; the step-i drift is
    δ(i)·width with δ(i) = ρ(i; k, 0), so the overlap of consecutive
    answers grows to 100% at the end of the sequence.
    """
    rng = np.random.default_rng(seed)
    delta_name = mqs.delta if mqs.delta is not None else mqs.rho
    delta = get_distribution(delta_name)
    width = _interval_for_selectivity(mqs.sigma, mqs.n)
    position = float(rng.integers(1, mqs.n - width + 2))
    direction = 1.0 if rng.uniform() < 0.5 else -1.0
    queries = []
    for step in range(1, mqs.k + 1):
        low = int(round(position))
        low = max(1, min(low, mqs.n - width + 1))
        queries.append(
            RangeQuery(step=step, attr=attr, low=low, high=low + width - 1)
        )
        if step == mqs.k:
            break
        # The drift *into* query step+1 is δ(step+1); δ(k) = 0, so the
        # final pair of answers overlaps 100% (§4).
        drift = delta(step + 1, mqs.k, 0.0) * width * direction
        position += drift
        if not width <= position <= mqs.n - width:
            direction = -direction
            position += 2 * drift * -1
    return queries


def strolling_sequence(
    mqs: MQS,
    attr: str = "a",
    seed: int = 0,
    mode: str = "converge",
    with_replacement: bool = True,
) -> list[RangeQuery]:
    """Random-walk queries with ρ-driven selectivities (§4, strolling).

    Modes:
        * ``converge`` — use ρ(i) in sequence order, so the walk converges
          to σ (the Figure 11 workload);
        * ``random`` — at each step draw a random step number and use its
          selectivity, with or without replacement.

    Query bounds are uniform random in all modes.
    """
    if mode not in ("converge", "random"):
        raise BenchmarkError(f"unknown strolling mode {mode!r}")
    rng = np.random.default_rng(seed)
    rho = get_distribution(mqs.rho)
    if mode == "converge":
        step_numbers = list(range(1, mqs.k + 1))
    elif with_replacement:
        step_numbers = [int(rng.integers(1, mqs.k + 1)) for _ in range(mqs.k)]
    else:
        step_numbers = list(rng.permutation(np.arange(1, mqs.k + 1))[: mqs.k])
    queries = []
    for step, rho_step in enumerate(step_numbers, start=1):
        width = _interval_for_selectivity(rho(int(rho_step), mqs.k, mqs.sigma), mqs.n)
        low = int(rng.integers(1, mqs.n - width + 2))
        queries.append(
            RangeQuery(step=step, attr=attr, low=low, high=low + width - 1)
        )
    return queries
