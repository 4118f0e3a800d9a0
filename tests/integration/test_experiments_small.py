"""Integration tests: every experiment module runs at a tiny scale and
reproduces the paper's qualitative shapes."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.eval.experiments import (
    cluster_caching,
    cluster_recovery,
    cluster_scaling,
    fig7_thresholds,
    fig9_caching,
    fig10_efficiency,
    fig11_stopcond,
    fig12_scalability,
    table2_weights,
    table3_baselines,
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


class TestClusterScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return cluster_scaling.run(days=2, population=12, buildings=2,
                                   queries=40, shard_counts=(1, 2), seed=7)

    def test_sweep_covers_both_executors_per_shard_count(self, result):
        assert [(run.shards, run.executor) for run in result.runs] == [
            (1, "serial"), (1, "process"), (2, "serial"), (2, "process")]

    def test_every_configuration_matches_the_lone_system(self, result):
        assert result.all_identical
        assert result.best("process") is not None
        assert all(result.speedup(run) > 0 for run in result.runs)

    def test_render(self, result):
        text = result.render()
        assert "answers identical: True" in text
        assert "serial" in text and "process" in text


#: One chaos run: two kills of the busiest of three shards, absorbed
#: across three batches of a three-building isolated campus.
RECOVERY = dict(buildings=3, population=24, days=3, queries=30, shards=3,
                batches=3, kills=2, seed=17)


class TestClusterRecovery:
    @pytest.fixture(scope="class")
    def result(self):
        return cluster_recovery.run(executor="serial", **RECOVERY)

    def test_every_kill_is_absorbed_bitwise(self, result):
        assert result.equivalence_verified
        assert result.availability == 1.0
        assert [episode["outcome"] for episode in result.episodes] == \
            ["recovered"] * RECOVERY["kills"]
        assert {episode["shard_id"] for episode in result.episodes} == \
            {result.victim_shard}

    def test_render(self, result):
        text = result.render()
        assert "bitwise identical: True" in text
        assert f"shard {result.victim_shard}" in text

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            cluster_recovery.run(executor="thread", **RECOVERY)


class TestClusterCaching:
    @pytest.fixture(scope="class")
    def result(self):
        return cluster_caching.run(buildings=3, population=24, days=3,
                                   labeled_per_device=1, generated=20,
                                   shard_counts=(1, 2), seed=17)

    def test_both_settings_match_the_lone_system(self, result):
        assert result.all_identical
        assert [(run.shards, run.caching) for run in result.runs] == [
            (1, False), (1, True), (2, False), (2, True)]
        assert result.component_count == 3

    def test_sharding_leaves_cache_traffic_unchanged(self, result):
        # Component routing makes the per-shard caches exact, so the
        # summed counters cannot depend on the shard count.
        traffic = {(run.hits, run.misses) for run in result.runs
                   if run.caching}
        assert len(traffic) == 1
        hits, misses = traffic.pop()
        assert hits + misses > 0
        assert all(run.hit_rate is None for run in result.runs
                   if not run.caching)

    def test_json_mirrors_the_runs(self, result):
        payload = result.to_json()
        assert payload["workload"]["component_count"] == 3
        assert [(row["shards"], row["caching"], row["identical"])
                for row in payload["runs"]] == [
            (run.shards, run.caching, True) for run in result.runs]
