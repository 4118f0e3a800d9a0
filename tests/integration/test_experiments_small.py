"""Integration tests: every experiment module runs at a tiny scale and
reproduces the paper's qualitative shapes."""

from __future__ import annotations

import pytest

from repro.eval.experiments import (
    fig7_thresholds,
    fig8_history,
    fig9_caching,
    fig10_efficiency,
    fig11_stopcond,
    fig12_scalability,
    table2_weights,
    table3_baselines,
    table4_scenarios,
)

# Tiny shared parameters so the whole module stays fast; the benchmarks
# run the same experiments at a more representative scale.
TINY = dict(days=5, population=12, seed=7)


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7_thresholds.run(per_device=5,
                                   tau_low_grid=(10, 20, 30),
                                   tau_high_grid=(60, 120, 180), **TINY)

    def test_series_lengths(self, result):
        assert len(result.pc_by_tau_low) == 3
        assert len(result.pc_by_tau_high) == 3

    def test_precision_percent_range(self, result):
        for value in result.pc_by_tau_low + result.pc_by_tau_high:
            assert 0.0 <= value <= 100.0

    def test_render(self, result):
        text = result.render()
        assert "tau_l" in text and "tau_h" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2_weights.run(per_device=5, **TINY)

    def test_all_cells_present(self, result):
        assert set(result.combinations) == {"C1", "C2", "C3", "C4"}
        assert set(result.pf_independent) == set(result.combinations)
        assert set(result.pf_dependent) == set(result.combinations)

    def test_insensitive_to_weights(self, result):
        """Paper: all combinations obtain similar precision.  At this
        tiny query scale sampling noise is large, so the bound is loose;
        the benchmark runs the paper-scale version."""
        for table in (result.pf_independent, result.pf_dependent):
            values = list(table.values())
            assert max(values) - min(values) <= 40.0

    def test_render(self, result):
        assert "I-FINE" in result.render()


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8_history.run(weeks_grid=(0, 0.5), population=10,
                                per_device=3)

    def test_one_point_per_history_length(self, result):
        assert result.bands
        for metric in ("Pc", "Pf", "Po"):
            for band in result.bands:
                series = result.series(metric, band)
                assert len(series) == len(result.weeks) == 2
                assert all(0.0 <= value <= 100.0 for value in series)

    def test_render(self, result):
        assert "Fig 8: Pf vs history" in result.render()


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9_caching.run(per_device=5, **TINY)

    def test_four_variants(self, result):
        assert set(result.po) == {"I-LOCATER", "I-LOCATER+C",
                                  "D-LOCATER", "D-LOCATER+C"}

    def test_caching_loss_bounded(self, result):
        """Paper Fig. 9: caching reduces precision by at most ~5-10%."""
        assert result.loss("I-LOCATER", "I-LOCATER+C") <= 15.0
        assert result.loss("D-LOCATER", "D-LOCATER+C") <= 15.0


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3_baselines.run(per_device=6, **TINY)

    def test_locater_beats_baseline1_overall(self, result):
        """Paper: LOCATER significantly outperforms Baseline1."""
        total_b1 = sum(result.triple("Baseline1", band)[2]
                       for band in result.bands)
        total_d = sum(result.triple("D-LOCATER", band)[2]
                      for band in result.bands)
        assert total_d > total_b1

    def test_all_cells_filled(self, result):
        for system in result.systems:
            for band in result.bands:
                pc, pf, po = result.triple(system, band)
                assert 0.0 <= pc <= 100.0
                assert 0.0 <= pf <= 100.0
                assert 0.0 <= po <= 100.0

    def test_render_has_paper_format(self, result):
        text = result.render()
        assert "Baseline1" in text and "D-LOCATER" in text
        assert "|" in text


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return table4_scenarios.run(days=3, population_scale=0.2,
                                    scenarios=("office", "airport"))

    def test_cell_and_margin_for_every_profile(self, result):
        assert result.scenarios == ["office", "airport"]
        for scenario in result.scenarios:
            assert result.profiles[scenario]
            for profile in result.profiles[scenario]:
                assert all(0.0 <= value <= 100.0
                           for value in result.triple(scenario, profile))
                assert -100.0 <= result.margin(scenario, profile) <= 100.0
        assert set(result.cells) == set(result.margins) == {
            (scenario, profile) for scenario in result.scenarios
            for profile in result.profiles[scenario]}

    def test_render(self, result):
        text = result.render()
        assert "Table 4 [office]" in text and "Table 4 [airport]" in text


class TestEfficiencyFigures:
    def test_fig10_curves(self):
        result = fig10_efficiency.run(per_device=4, generated_count=40,
                                      n_checkpoints=3, **TINY)
        assert len(result.checkpoints) >= 1
        for curve in result.series.values():
            assert len(curve) == len(result.checkpoints)
            assert all(v > 0 for v in curve)

    def test_fig11_stop_conditions_not_slower(self):
        result = fig11_stopcond.run(per_device=4, generated_count=30,
                                    **TINY)
        # Stop conditions must never process MORE neighbors.
        assert result.neighbors_processed["stop"] <= \
            result.neighbors_processed["no-stop"] + 1e-9

    def test_fig12_reports_both_variants(self):
        result = fig12_scalability.run(per_device=4, generated_count=30,
                                       **TINY)
        variants = {variant for variant, _ in result.mean_ms}
        assert variants == {"D-LOCATER", "D-LOCATER+C"}
        assert all(ms > 0 for ms in result.mean_ms.values())
