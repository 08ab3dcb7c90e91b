"""Tests for the consolidated reproduction report."""

from repro.experiments import fig2, fig3, fig8
from repro.experiments.report import headline_claims, write_bundle


def _mini_results():
    return {
        "fig1_count": _fake_fig1_count(),
        "fig2": fig2.run(n_granules=20_000, steps=10,
                         selectivities=(0.05,), repetitions=3),
        "fig3": fig3.run(n_granules=20_000, steps=20,
                         selectivities=(0.05, 0.1, 0.01), repetitions=3),
        "fig8": fig8.run(),
        "fig9": _fake_fig9(),
        "fig10": _fake_fig10(),
        "fig11": _fake_fig11(),
        "sec51": _fake_sec51(),
    }


def _fake_fig1_count():
    from repro.experiments.common import ExperimentResult, Series

    result = ExperimentResult(name="fig1_count", title="t", x_label="x", y_label="y")
    result.series.append(Series(label="rowstore", x=[1, 2], y=[1.0, 2.0]))
    result.series.append(Series(label="columnstore", x=[1, 2], y=[0.1, 0.2]))
    return result


def _fake_fig9():
    from repro.experiments.common import ExperimentResult, Series

    result = ExperimentResult(name="fig9", title="t", x_label="x", y_label="y",
                              notes={"rowstore_fallback_lengths": [24]})
    result.series.append(Series(label="rowstore", x=[2], y=[1.0]))
    result.series.append(Series(label="columnstore", x=[2], y=[0.1]))
    return result


def _fake_fig10():
    from repro.experiments.common import ExperimentResult, Series

    result = ExperimentResult(name="fig10", title="t", x_label="x", y_label="y",
                              notes={"tuples_touched": {}})
    for pct in (5, 45, 75):
        result.series.append(Series(label=f"nocrack {pct}%", x=[1], y=[2.0]))
        result.series.append(Series(label=f"crack {pct}%", x=[1], y=[1.0]))
        result.notes["tuples_touched"].update(
            {f"nocrack {pct}%": 200, f"crack {pct}%": 100}
        )
    return result


def _fake_fig11():
    from repro.experiments.common import ExperimentResult, Series

    result = ExperimentResult(
        name="fig11", title="t", x_label="x", y_label="y",
        notes={"tuples_touched": {"nocrack": 200, "sort": 120, "crack": 100}},
    )
    result.series.append(Series(label="nocrack", x=[1], y=[2.0]))
    result.series.append(Series(label="sort", x=[1], y=[1.2]))
    result.series.append(Series(label="crack", x=[1], y=[1.0]))
    return result


def _fake_sec51():
    from repro.experiments.common import ExperimentResult, Series

    result = ExperimentResult(name="sec51", title="t", x_label="x", y_label="y",
                              notes={"crack_over_print_factor": 20.0})
    result.series.append(Series(label="seconds", x=["query_print"], y=[0.1]))
    return result


class TestHeadlineClaims:
    def test_all_claims_pass_on_healthy_results(self):
        lines = headline_claims(_mini_results())
        assert len(lines) == 8
        assert all("✅" in line for line in lines)

    def test_failed_claim_is_flagged(self):
        results = _mini_results()
        results["fig11"].notes["tuples_touched"]["crack"] = 1000
        lines = headline_claims(results)
        assert any("❌" in line and "Fig 11" in line for line in lines)

    def test_fig8_curve_off_target_is_flagged(self):
        results = _mini_results()
        results["fig8"].series_by_label("Linear contraction").y[-1] += 0.01
        lines = headline_claims(results)
        assert any("❌" in line and "Fig 8" in line for line in lines)


class TestBundle:
    def test_bundle_written(self, tmp_path):
        results = _mini_results()
        report_path = write_bundle(results, str(tmp_path / "bundle"))
        assert report_path.exists()
        text = report_path.read_text()
        assert "Headline claims" in text
        for name in results:
            assert (tmp_path / "bundle" / f"{name}.txt").exists()
            assert (tmp_path / "bundle" / f"{name}.csv").exists()
