"""Unit tests for the caching engine (paper §5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.engine import CachingEngine
from repro.cache.global_graph import GlobalAffinityGraph
from repro.cache.local_graph import LocalAffinityGraph
from repro.errors import ConfigurationError
from repro.fine.neighbors import NeighborDevice
from repro.util.timeutil import SECONDS_PER_DAY

from oracles.cache import prepare_neighbors as reference_prepare


def _neighbor(mac: str) -> NeighborDevice:
    return NeighborDevice(mac=mac, region_id=0,
                          candidate_rooms=("a", "b"),
                          shared_rooms=frozenset({"a"}))


class TestLocalAffinityGraph:
    def test_add_and_iterate(self):
        local = LocalAffinityGraph(center="d1", timestamp=100.0)
        local.add_edge("d2", 0.4)
        local.add_edge("d3", 0.7)
        assert len(local) == 2
        assert dict(local) == {"d2": 0.4, "d3": 0.7}

    def test_self_edge_rejected(self):
        local = LocalAffinityGraph(center="d1", timestamp=100.0)
        with pytest.raises(ValueError):
            local.add_edge("d1", 0.5)

    def test_negative_weight_rejected(self):
        local = LocalAffinityGraph(center="d1", timestamp=100.0)
        with pytest.raises(ValueError):
            local.add_edge("d2", -0.1)


class TestGlobalAffinityGraph:
    def test_merge_and_lookup(self):
        graph = GlobalAffinityGraph()
        local = LocalAffinityGraph(center="d1", timestamp=100.0)
        local.add_edge("d2", 0.4)
        graph.merge_local(local)
        assert graph.affinity_at("d1", "d2", 100.0) == pytest.approx(0.4)
        assert graph.affinity_at("d2", "d1", 100.0) == pytest.approx(0.4)

    def test_unseen_edge_returns_none(self):
        graph = GlobalAffinityGraph()
        assert graph.affinity_at("x", "y", 0.0) is None

    def test_vector_of_observations_kept(self):
        # Paper Fig. 6: the d1-d2 edge stores (.4,t1),(.3,t2),(.5,t3).
        graph = GlobalAffinityGraph()
        for weight, t in ((0.4, 1.0), (0.3, 2.0), (0.5, 3.0)):
            graph.add_observation("d1", "d2", weight, t)
        observations = graph.observations("d1", "d2")
        assert [(o.weight, o.timestamp) for o in observations] == \
            [(0.4, 1.0), (0.3, 2.0), (0.5, 3.0)]

    def test_temporal_weighting_prefers_near_observations(self):
        graph = GlobalAffinityGraph(sigma=SECONDS_PER_DAY)
        graph.add_observation("d1", "d2", 1.0, 0.0)
        graph.add_observation("d1", "d2", 0.0, 10 * SECONDS_PER_DAY)
        near_first = graph.affinity_at("d1", "d2", 0.0)
        near_second = graph.affinity_at("d1", "d2", 10 * SECONDS_PER_DAY)
        assert near_first > 0.9
        assert near_second < 0.1

    def test_observation_cap_fifo(self):
        graph = GlobalAffinityGraph(max_observations_per_edge=3)
        for i in range(5):
            graph.add_observation("a", "b", float(i), float(i))
        observations = graph.observations("a", "b")
        assert len(observations) == 3
        assert observations[0].weight == 2.0

    def test_self_edge_rejected(self):
        graph = GlobalAffinityGraph()
        with pytest.raises(ValueError):
            graph.add_observation("a", "a", 0.5, 0.0)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_record_changes_nothing(self, weight):
        # Every edge of a record is checked before any is merged, so a
        # bad weight leaves no edge behind to rank or count as a hit.
        engine = CachingEngine()
        with pytest.raises(ConfigurationError):
            engine.record("a", 100.0, {"b": weight, "c": 0.3})
        assert engine.graph.edge_count == 0
        _, caps = engine.prepare_neighbors(
            "a", [_neighbor("b"), _neighbor("c")], 100.0)
        assert engine.hits == 0
        assert np.isnan(caps).all()

    def test_counts_and_clear(self):
        graph = GlobalAffinityGraph()
        graph.add_observation("a", "b", 0.5, 0.0)
        graph.add_observation("a", "c", 0.5, 0.0)
        graph.add_observation("c", "a", 0.1, 1.0)  # same edge again
        assert graph.edge_count == 2
        assert graph.node_count == 3
        graph.clear()
        assert graph.edge_count == 0
        assert graph.node_count == 0


class TestCachingEngine:
    def test_cold_cache_keeps_order_and_counts_miss(self):
        engine = CachingEngine()
        neighbors = [_neighbor("d3"), _neighbor("d2")]
        ordered, _ = engine.prepare_neighbors("d1", neighbors, 0.0)
        assert [n.mac for n in ordered] == ["d3", "d2"]
        assert engine.stats()["misses"] == 1

    def test_warm_cache_reorders_and_counts_hit(self):
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d3": 0.9, "d2": 0.1})
        neighbors = [_neighbor("d2"), _neighbor("d3")]
        ordered, _ = engine.prepare_neighbors("d1", neighbors, 0.0)
        assert [n.mac for n in ordered] == ["d3", "d2"]
        assert engine.stats()["hits"] == 1

    def test_prepare_orders_by_affinity(self):
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d2": 0.2, "d3": 0.8})
        ordered, caps = engine.prepare_neighbors(
            "d1", [_neighbor("d4"), _neighbor("d2"), _neighbor("d3")], 0.0)
        assert [n.mac for n in ordered] == ["d3", "d2", "d4"]
        assert np.isnan(caps[2])  # unseen device ranks last, no cap

    def test_prepare_cached_zero_outranks_unseen(self):
        # Regression: a cached zero-weight edge is *evidence* (the pair
        # was processed and found apart) and must not be conflated with
        # a never-seen edge — the cached edge sorts first, with the
        # floor cap.
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d9": 0.0})
        ordered, caps = engine.prepare_neighbors(
            "d1", [_neighbor("d2"), _neighbor("d9")], 0.0)
        assert [n.mac for n in ordered] == ["d9", "d2"]
        assert caps[0] == 0.02
        assert np.isnan(caps[1])

    def test_caps_only_for_cached(self):
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d2": 0.2})
        ordered, caps = engine.prepare_neighbors(
            "d1", [_neighbor("d3"), _neighbor("d2")], 0.0)
        # Aligned vector: a cap for cached d2, NaN for uncached d3.
        assert [n.mac for n in ordered] == ["d2", "d3"]
        assert caps.shape == (2,)
        assert 0.0 < caps[0] <= 0.95
        assert np.isnan(caps[1])

    def test_cached_zero_weight_orders_before_unseen(self):
        # The engine's neighbor ordering must treat a recorded
        # zero-weight edge as warmer than a never-recorded one.
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d3": 0.0})
        ordered, _ = engine.prepare_neighbors(
            "d1", [_neighbor("d2"), _neighbor("d3")], 0.0)
        assert [n.mac for n in ordered] == ["d3", "d2"]

    def test_empty_neighbors(self):
        # An empty read on a warm cache returns nothing and counts
        # neither a hit nor a miss.
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d2": 0.4})
        ordered, caps = engine.prepare_neighbors("d1", [], 0.0)
        assert ordered == [] and caps.size == 0
        assert (engine.hits, engine.misses) == (0, 0)

    def test_prepare_neighbors_preserves_duplicate_multiplicity(self):
        # Regression: the old implementation collapsed same-MAC entries
        # through a dict; duplicates must come back, grouped per MAC in
        # input order at the MAC's ranked position, sharing the cap of
        # the MAC's last entry.
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d3": 0.9, "d2": 0.1})
        dup_a = _neighbor("d2")
        dup_b = NeighborDevice(mac="d2", region_id=1,
                               candidate_rooms=("c",),
                               shared_rooms=frozenset({"c"}))
        ordered, caps = engine.prepare_neighbors(
            "d1", [dup_a, _neighbor("d3"), dup_b], 0.0)
        assert [n.mac for n in ordered] == ["d3", "d2", "d2"]
        assert ordered[1] is dup_a and ordered[2] is dup_b
        assert caps[1] == caps[2] == pytest.approx(0.1 * 2.0 * 1)

    def test_zero_weight_edges_count_as_hit(self):
        # Regression: a cached edge with weight 0.0 is information
        # ("these two are not companions") and must count as a hit —
        # the old code treated an all-zero cache row as a miss.
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d2": 0.0, "d3": 0.0})
        ordered, caps = engine.prepare_neighbors(
            "d1", [_neighbor("d3"), _neighbor("d2")], 0.0)
        assert engine.stats() == {"hits": 1, "misses": 0, "edges": 2,
                                  "nodes": 3}
        # All-zero weights rank by MAC (the ranking's tie rule), and
        # zero-weight edges still produce (tiny) caps.
        assert [n.mac for n in ordered] == ["d2", "d3"]
        assert not np.isnan(caps).any()

    def test_prepare_neighbors_duplicates_on_cold_cache(self):
        engine = CachingEngine()
        neighbors = [_neighbor("d2"), _neighbor("d2")]
        ordered, caps = engine.prepare_neighbors("d1", neighbors, 0.0)
        assert len(ordered) == 2 and np.isnan(caps).all()
        assert engine.stats()["misses"] == 1

    def test_prepare_neighbors_matches_two_call_path(self):
        # The one-read path against the two-pass oracle (rank, then a
        # second read for the caps), warm and cold.
        neighbors = [_neighbor("d2"), _neighbor("d3"), _neighbor("d4"),
                     _neighbor("d5"), _neighbor("d6"), _neighbor("d2")]
        for warm in (True, False):
            engine = CachingEngine()
            if warm:
                engine.record("d1", 0.0, {"d3": 0.9, "d2": 0.1, "d5": 0.0})
                engine.record("d4", 3600.0, {"d1": 0.3})
            expected_order, expected_caps, hit = reference_prepare(
                engine.graph, "d1", neighbors, 1800.0)
            ordered, caps = engine.prepare_neighbors("d1", neighbors,
                                                     1800.0)
            assert ordered == expected_order
            assert np.array_equal(caps, expected_caps, equal_nan=True)
            assert hit is warm
            assert (engine.hits, engine.misses) == \
                ((1, 0) if hit else (0, 1))

    def test_prepare_neighbors_cold_cache(self):
        engine = CachingEngine()
        neighbors = [_neighbor("d2"), _neighbor("d3")]
        ordered, caps = engine.prepare_neighbors("d1", neighbors, 0.0)
        assert ordered == neighbors
        assert caps.shape == (2,) and np.isnan(caps).all()
        assert engine.stats()["misses"] == 1

    def test_prepare_neighbors_empty(self):
        engine = CachingEngine()
        ordered, caps = engine.prepare_neighbors("d1", [], 0.0)
        assert ordered == [] and caps.size == 0
        assert engine.stats() == {"hits": 0, "misses": 0, "edges": 0,
                                  "nodes": 0}
