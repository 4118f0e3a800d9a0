"""Unit tests for the evaluation harness (metrics, bands, queries, runner)."""

from __future__ import annotations

import pytest

from repro.eval.metrics import PrecisionCounts, precision_summary
from repro.eval.predictability import (
    PREDICTABILITY_BANDS,
    band_label,
    band_of,
    group_by_band,
)
from repro.eval.queries import generated_query_set, labeled_query_set
from repro.eval.reporting import format_series, format_table
from repro.eval.runner import evaluate, evaluate_batch, pooled_counts


class TestPrecisionCounts:
    def test_formulas_match_paper(self):
        counts = PrecisionCounts()
        # 2 correct-outside, 3 region-correct of which 2 room-correct,
        # 5 total (no wrong queries yet).
        counts.record(True, True, False, False)
        counts.record(True, True, False, False)
        counts.record(False, False, True, True)
        counts.record(False, False, True, True)
        counts.record(False, False, True, False)
        assert counts.coarse_precision == pytest.approx(5 / 5)
        assert counts.fine_precision == pytest.approx(2 / 3)
        assert counts.overall_precision == pytest.approx(4 / 5)

    def test_wrong_answers_counted_in_total_only(self):
        counts = PrecisionCounts()
        counts.record(True, False, False, False)   # said inside, was out
        counts.record(False, True, False, False)   # said outside, was in
        assert counts.total == 2
        assert counts.coarse_precision == 0.0
        assert counts.overall_precision == 0.0

    def test_empty_counts_zero(self):
        counts = PrecisionCounts()
        assert counts.coarse_precision == 0.0
        assert counts.fine_precision == 0.0

    def test_merge(self):
        a = PrecisionCounts(total=2, correct_outside=1, correct_region=1,
                            correct_room=1)
        b = PrecisionCounts(total=3, correct_outside=0, correct_region=2,
                            correct_room=1)
        merged = a.merge(b)
        assert merged.total == 5
        assert merged.correct_room == 2

    def test_summary_percentages(self):
        counts = PrecisionCounts(total=4, correct_outside=1,
                                 correct_region=2, correct_room=1)
        summary = precision_summary(counts)
        assert summary["Pc"] == pytest.approx(75.0)
        assert summary["Po"] == pytest.approx(50.0)


class TestPredictabilityBands:
    def test_band_of(self):
        assert band_of(0.45) == (40, 55)
        assert band_of(0.55) == (55, 70)
        assert band_of(0.999) == (85, 100)
        assert band_of(1.0) == (85, 100)
        assert band_of(0.2) is None

    def test_band_label(self):
        assert band_label((40, 55)) == "[40,55)"

    def test_group_by_band_partitions(self, small_dataset):
        groups = group_by_band(small_dataset)
        assert set(groups) == set(PREDICTABILITY_BANDS)
        all_macs = [mac for band in groups.values() for mac in band]
        assert len(all_macs) == len(set(all_macs))


class TestQuerySets:
    def test_labeled_queries_balanced(self, small_dataset):
        queries = labeled_query_set(small_dataset, per_device=5, seed=3)
        assert len(queries) == 5 * len(small_dataset.macs())
        per_mac = {}
        for query in queries:
            per_mac[query.mac] = per_mac.get(query.mac, 0) + 1
        assert set(per_mac.values()) == {5}

    def test_labeled_queries_deterministic(self, small_dataset):
        a = labeled_query_set(small_dataset, per_device=3, seed=3)
        b = labeled_query_set(small_dataset, per_device=3, seed=3)
        assert [(q.mac, q.timestamp) for q in a] == \
            [(q.mac, q.timestamp) for q in b]

    def test_generated_queries_count_and_span(self, small_dataset):
        queries = generated_query_set(small_dataset, count=50, seed=1)
        assert len(queries) == 50
        for query in queries:
            assert small_dataset.span.contains(query.timestamp) or \
                query.timestamp == small_dataset.span.start

    def test_query_times_within_span(self, small_dataset):
        queries = labeled_query_set(small_dataset, per_device=5, seed=3)
        for query in queries:
            assert 0 <= query.timestamp <= small_dataset.span.end


class TestRunner:
    class PerfectSystem:
        """Oracle that reads the ground truth directly."""

        def __init__(self, dataset):
            self.dataset = dataset

        def locate(self, mac, timestamp):
            from repro.system.locater import LocationAnswer
            from repro.system.query import LocationQuery
            truth = self.dataset.true_room_at(mac, timestamp)
            query = LocationQuery(mac=mac, timestamp=timestamp)
            if truth is None:
                return LocationAnswer(query=query, inside=False,
                                      region_id=None, room_id=None,
                                      from_event=False, fine=None)
            region = self.dataset.building.regions_of_room(truth)[0]
            return LocationAnswer(query=query, inside=True,
                                  region_id=region.region_id,
                                  room_id=truth, from_event=False,
                                  fine=None)

    def test_oracle_scores_perfectly(self, small_dataset):
        queries = labeled_query_set(small_dataset, per_device=4, seed=5)
        result = evaluate(self.PerfectSystem(small_dataset), small_dataset,
                          queries)
        assert result.counts.coarse_precision == 1.0
        assert result.counts.fine_precision == 1.0
        assert result.counts.overall_precision == 1.0

    def test_per_device_counts_sum_to_total(self, small_dataset):
        queries = labeled_query_set(small_dataset, per_device=3, seed=5)
        result = evaluate(self.PerfectSystem(small_dataset), small_dataset,
                          queries)
        assert sum(c.total for c in result.per_device.values()) == \
            result.counts.total

    def test_pooled_counts(self, small_dataset):
        queries = labeled_query_set(small_dataset, per_device=3, seed=5)
        result = evaluate(self.PerfectSystem(small_dataset), small_dataset,
                          queries)
        macs = small_dataset.macs()[:2]
        pooled = pooled_counts(result, macs)
        assert pooled.total == 6

    def test_latency_recording(self, small_dataset):
        queries = labeled_query_set(small_dataset, per_device=1, seed=5)
        result = evaluate(self.PerfectSystem(small_dataset), small_dataset,
                          queries, record_latency=True)
        assert len(result.per_query_seconds) == len(queries)
        assert result.mean_query_ms >= 0.0

    class PerfectBatchSystem(PerfectSystem):
        def locate_batch(self, queries):
            return [self.locate(q.mac, q.timestamp) for q in queries]

    def test_mean_query_ms_without_recorded_latencies(self, small_dataset):
        # Neither a batch nor an unrecorded per-query run keeps
        # latencies; the mean still divides the elapsed time by the
        # queries scored.
        queries = labeled_query_set(small_dataset, per_device=2, seed=5)
        system = self.PerfectBatchSystem(small_dataset)
        for result in (evaluate_batch(system, small_dataset, queries),
                       evaluate(system, small_dataset, queries)):
            assert not result.per_query_seconds
            assert result.elapsed_seconds > 0
            assert result.mean_query_ms == \
                1000.0 * result.elapsed_seconds / len(queries)
            assert result.mean_query_ms > 0


class TestReporting:
    def test_format_table_aligned(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series("s", ["x1", "x2"], [1.0, 2.5], unit="ms")
        assert "x1: 1.00 ms" in text
