"""Tests for the ρ selectivity-contraction functions (Figure 8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark.distributions import (
    DISTRIBUTIONS,
    exponential,
    get_distribution,
    linear,
    logarithmic,
)
from repro.errors import BenchmarkError


class TestEndpoints:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_starts_near_one(self, name):
        rho = DISTRIBUTIONS[name]
        assert rho(0, 20, 0.2) >= 0.95

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_ends_at_sigma(self, name):
        rho = DISTRIBUTIONS[name]
        assert rho(20, 20, 0.2) == pytest.approx(0.2, abs=1e-6)

    def test_linear_exact(self):
        assert linear(10, 20, 0.2) == pytest.approx(0.6)

    def test_exponential_contracts_early(self):
        # By the midpoint the exponential model is already near sigma.
        assert exponential(10, 20, 0.2) < linear(10, 20, 0.2)

    def test_logarithmic_contracts_late(self):
        assert logarithmic(10, 20, 0.2) > linear(10, 20, 0.2)

    def test_figure8_ordering_at_early_steps(self):
        # Figure 8, early steps: logarithmic >= linear >= exponential.
        for step in range(1, 10):
            assert logarithmic(step, 20, 0.2) >= linear(step, 20, 0.2)
            assert linear(step, 20, 0.2) >= exponential(step, 20, 0.2) - 1e-9


class TestValidation:
    def test_bad_k_rejected(self):
        with pytest.raises(BenchmarkError):
            linear(0, 0, 0.2)

    def test_bad_sigma_rejected(self):
        with pytest.raises(BenchmarkError):
            linear(1, 10, 1.5)

    def test_step_out_of_range_rejected(self):
        with pytest.raises(BenchmarkError):
            linear(11, 10, 0.2)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(BenchmarkError):
            get_distribution("parabolic")


class TestSeries:
    def test_delta_series_ends_at_zero(self):
        # δ(i) = ρ(i; k, 0), the hiking drift: the overlap reaches 100%.
        for rho in DISTRIBUTIONS.values():
            series = [rho(step, 20, 0.0) for step in range(1, 21)]
            assert series[-1] == pytest.approx(0.0, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(DISTRIBUTIONS)),
    k=st.integers(1, 200),
    sigma=st.floats(0.0, 1.0, allow_nan=False),
)
def test_property_rho_bounded_and_monotone(name, k, sigma):
    rho = DISTRIBUTIONS[name]
    series = [rho(step, k, sigma) for step in range(0, k + 1)]
    for value in series:
        assert sigma - 1e-9 <= value <= 1.0 + 1e-9
    for earlier, later in zip(series, series[1:]):
        assert later <= earlier + 1e-9  # monotonically non-increasing
