"""Figure 8 benchmark: evaluating the ρ contraction functions."""

import pytest

from repro.experiments import fig8


def test_fig8_series_evaluation(benchmark):
    result = benchmark(fig8.run, 128, 0.2)
    assert len(result.series) == 4
    for series in result.series:
        assert len(series.y) == 128
        assert series.y[-1] == pytest.approx(0.2, abs=1e-6)
