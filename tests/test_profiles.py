"""Tests for the homerun/hiking/strolling sequence generators and MQS."""

import pytest

from repro.benchmark.profiles import (
    MQS,
    hiking_sequence,
    homerun_sequence,
    strolling_sequence,
)
from repro.errors import BenchmarkError


@pytest.fixture
def mqs():
    return MQS(alpha=2, n=10_000, k=16, sigma=0.05)


class TestMQS:
    def test_valid_construction(self, mqs):
        assert mqs.k == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0, n=10, k=5, sigma=0.1),
            dict(alpha=1, n=0, k=5, sigma=0.1),
            dict(alpha=1, n=10, k=0, sigma=0.1),
            dict(alpha=1, n=10, k=5, sigma=0.0),
            dict(alpha=1, n=10, k=5, sigma=1.5),
            dict(alpha=1, n=10, k=5, sigma=0.1, rho="bogus"),
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(BenchmarkError):
            MQS(**kwargs)


class TestHomerun:
    def test_length(self, mqs):
        assert len(homerun_sequence(mqs, seed=1)) == 16

    def test_widths_monotonically_shrink(self, mqs):
        widths = [q.high - q.low + 1 for q in homerun_sequence(mqs, seed=1)]
        assert all(w1 >= w2 for w1, w2 in zip(widths, widths[1:]))

    def test_queries_are_nested(self, mqs):
        queries = homerun_sequence(mqs, seed=2)
        for outer, inner in zip(queries, queries[1:]):
            assert outer.low <= inner.low
            assert inner.high <= outer.high

    def test_final_width_is_target(self, mqs):
        final = homerun_sequence(mqs, seed=3)[-1]
        assert final.high - final.low + 1 == round(mqs.sigma * mqs.n)

    def test_bounds_inside_domain(self, mqs):
        for query in homerun_sequence(mqs, seed=4):
            assert 1 <= query.low <= query.high <= mqs.n

    def test_deterministic_per_seed(self, mqs):
        assert homerun_sequence(mqs, seed=7) == homerun_sequence(mqs, seed=7)

    def test_different_seeds_differ(self, mqs):
        assert homerun_sequence(mqs, seed=7) != homerun_sequence(mqs, seed=8)


class TestHiking:
    def test_fixed_width(self, mqs):
        queries = hiking_sequence(mqs, seed=1)
        widths = {q.high - q.low + 1 for q in queries}
        assert len(widths) == 1

    def test_drift_decays_to_full_overlap(self, mqs):
        queries = hiking_sequence(mqs, seed=1)
        early_shift = abs(queries[1].low - queries[0].low)
        late_shift = abs(queries[-1].low - queries[-2].low)
        assert late_shift <= early_shift
        assert late_shift <= 1  # ~100% overlap at the end

    def test_bounds_inside_domain(self, mqs):
        for query in hiking_sequence(mqs, seed=5):
            assert 1 <= query.low <= query.high <= mqs.n


class TestStrolling:
    def test_converge_mode_widths_follow_rho(self, mqs):
        queries = strolling_sequence(mqs, seed=1, mode="converge")
        widths = [q.high - q.low + 1 for q in queries]
        assert widths[0] > widths[-1]
        assert widths[-1] == round(mqs.sigma * mqs.n)

    def test_random_mode_with_replacement(self, mqs):
        queries = strolling_sequence(mqs, seed=1, mode="random")
        assert len(queries) == mqs.k

    def test_random_mode_without_replacement(self, mqs):
        queries = strolling_sequence(
            mqs, seed=1, mode="random", with_replacement=False
        )
        assert len(queries) == mqs.k

    def test_unknown_mode_rejected(self, mqs):
        with pytest.raises(BenchmarkError):
            strolling_sequence(mqs, mode="teleport")

    def test_bounds_inside_domain(self, mqs):
        for query in strolling_sequence(mqs, seed=9):
            assert 1 <= query.low <= query.high <= mqs.n
