"""Selectivity-contraction distribution functions ρ(i; k, σ) (§4, Figure 8).

The homerun/hiking/strolling profiles draw their per-step selectivities
from one of three convergence models:

* **linear** — "a user is consistently able to remove a constant number
  of tuples": ρ(i) = 1 − i·(1−σ)/k;
* **exponential** — "the candidate set is quickly trimmed [early] and in
  the tail the hard work takes place":
  ρ(i) = σ + (1−σ)·exp(−2(1−σ)·i²/k);
* **logarithmic** — the complement, "quick reduction to the desired
  target in the tail": ρ(i) = 1 − (1−σ)·exp(−2(1−σ)·(k−i)²/k).

All three satisfy ρ(0) ≈ 1 and ρ(k) ≈ σ and are monotonically
non-increasing in i, which is what Figure 8 shows for σ = 0.2, k = 20.

Note on fidelity: the paper's formulas are typeset as
``σ + (1−σ)e^((1−σ)2ki2)`` and ``1 − (1−σ)e^((1−σ)2(k−i))`` with the
exponent signs and groupings lost to the PDF-to-text conversion; the
forms above are the standard reconstruction that matches the plotted
curves (endpoints, curvature and crossover of Figure 8).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import BenchmarkError


def _check_args(step: int, k: int, sigma: float) -> None:
    if k < 1:
        raise BenchmarkError(f"sequence length k must be >= 1, got {k}")
    if not 0.0 <= sigma <= 1.0:
        raise BenchmarkError(f"target selectivity must be in [0, 1], got {sigma}")
    if not 0 <= step <= k:
        raise BenchmarkError(f"step {step} out of range 0..{k}")


def linear(step: int, k: int, sigma: float) -> float:
    """Linear contraction: a constant number of tuples removed per step."""
    _check_args(step, k, sigma)
    return 1.0 - step * (1.0 - sigma) / k


def exponential(step: int, k: int, sigma: float) -> float:
    """Exponential contraction: fast early trim, fine-tuning in the tail."""
    _check_args(step, k, sigma)
    return sigma + (1.0 - sigma) * math.exp(-2.0 * (1.0 - sigma) * step * step / k)


def logarithmic(step: int, k: int, sigma: float) -> float:
    """Logarithmic contraction: the bulk of the reduction happens late."""
    _check_args(step, k, sigma)
    remaining = k - step
    return 1.0 - (1.0 - sigma) * math.exp(
        -2.0 * (1.0 - sigma) * remaining * remaining / k
    )


#: Registry used by profiles and the Figure 8 experiment.
DISTRIBUTIONS: dict[str, Callable[[int, int, float], float]] = {
    "linear": linear,
    "exponential": exponential,
    "logarithmic": logarithmic,
}


def get_distribution(name: str) -> Callable[[int, int, float], float]:
    """Look up a ρ function by name."""
    try:
        return DISTRIBUTIONS[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown distribution {name!r}; have {sorted(DISTRIBUTIONS)}"
        ) from None
