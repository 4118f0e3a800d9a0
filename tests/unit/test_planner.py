"""Unit tests for the batch query planner."""

from __future__ import annotations

import pytest

from repro.system.planner import (
    BUCKET_SECONDS,
    QueryPlan,
    plan_queries,
)
from repro.system.query import LocationQuery


def _q(mac: str, t: float) -> LocationQuery:
    return LocationQuery(mac=mac, timestamp=t)


class TestPlanQueries:
    def test_empty_batch(self):
        plan = plan_queries([])
        assert isinstance(plan, QueryPlan)
        assert len(plan) == 0
        assert plan.groups == ()
        assert plan.ordered_queries() == []

    def test_groups_by_device_and_bucket(self):
        queries = [_q("a", 100.0), _q("b", 200.0), _q("a", 300.0),
                   _q("a", 7300.0)]
        plan = plan_queries(queries)
        keys = [(g.mac, g.bucket) for g in plan.groups]
        assert keys == [("a", 0), ("b", 0), ("a", 2)]
        assert len(plan) == 4
        assert plan.group_count == 3

    def test_groups_sweep_time_front_to_back(self):
        queries = [_q("z", 9000.0), _q("a", 100.0), _q("m", 4000.0)]
        plan = plan_queries(queries)
        assert [g.bucket for g in plan.groups] == [0, 1, 2]
        ordered = plan.ordered_queries()
        assert [q.timestamp for q in ordered] == [100.0, 4000.0, 9000.0]

    def test_within_group_sorted_by_timestamp(self):
        queries = [_q("a", 300.0), _q("a", 100.0), _q("a", 200.0)]
        plan = plan_queries(queries)
        (group,) = plan.groups
        assert [p.query.timestamp for p in group.queries] == \
            [100.0, 200.0, 300.0]
        assert group.start == 100.0 and group.end == 300.0

    def test_duplicates_keep_input_order(self):
        # Duplicate (mac, timestamp) pairs must execute in input order so
        # storage short-circuiting matches the sequential path exactly.
        queries = [_q("a", 100.0), _q("a", 100.0), _q("a", 100.0)]
        plan = plan_queries(queries)
        (group,) = plan.groups
        assert [p.index for p in group.queries] == [0, 1, 2]

    def test_indices_cover_input(self):
        queries = [_q("b", 50.0), _q("a", 9999.0), _q("b", 4000.0)]
        plan = plan_queries(queries)
        indices = sorted(p.index for p in plan.ordered())
        assert indices == [0, 1, 2]
        for planned in plan.ordered():
            assert queries[planned.index] == planned.query

    def test_default_bucket_is_one_hour(self):
        assert BUCKET_SECONDS == 3600.0
        plan = plan_queries([_q("a", 0.0), _q("a", 3599.0), _q("a", 3600.0)])
        assert [g.bucket for g in plan.groups] == [0, 1]

    def test_stats(self):
        plan = plan_queries([_q("a", 1.0), _q("a", 2.0), _q("b", 3.0)])
        stats = plan.stats()
        assert stats["queries"] == 3.0
        assert stats["groups"] == 2.0
        assert stats["max_group"] == 2.0
        assert stats["mean_group"] == pytest.approx(1.5)

    def test_group_str_mentions_device(self):
        plan = plan_queries([_q("dev1", 10.0)])
        assert "dev1" in str(plan.groups[0])
