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

    def test_edge_weight_formula(self):
        # w = sum of per-room group affinities / |R(gx)| (paper §5).
        weight = LocalAffinityGraph.edge_weight(
            {"a": 0.4, "b": 0.2}, ["a", "b", "c"])
        assert weight == pytest.approx(0.6 / 3)

    def test_edge_weight_empty_candidates(self):
        assert LocalAffinityGraph.edge_weight({}, []) == 0.0


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

    def test_rank_orders_by_affinity(self):
        graph = GlobalAffinityGraph()
        graph.add_observation("d1", "d2", 0.2, 0.0)
        graph.add_observation("d1", "d3", 0.8, 0.0)
        ranked = graph.rank("d1", ["d2", "d3", "d4"], 0.0)
        assert [mac for mac, _ in ranked] == ["d3", "d2", "d4"]
        assert ranked[2][1] == 0.0  # unseen device ranks last

    def test_rank_cached_zero_outranks_unseen(self):
        # Regression: a cached zero-weight edge is *evidence* (the pair
        # was processed and found apart) and must not be conflated with
        # a never-seen edge — the cached edge sorts first.
        graph = GlobalAffinityGraph()
        graph.add_observation("d1", "d9", 0.0, 0.0)
        ranked = graph.rank("d1", ["d2", "d9"], 0.0)
        assert [mac for mac, _ in ranked] == ["d9", "d2"]
        assert [weight for _, weight in ranked] == [0.0, 0.0]

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
        assert graph.edge_count == 2
        assert graph.node_count == 3
        assert graph.neighbors_of("a") == {"b", "c"}
        graph.clear()
        assert graph.edge_count == 0


class TestCachingEngine:
    def test_cold_cache_keeps_order_and_counts_miss(self):
        engine = CachingEngine()
        neighbors = [_neighbor("d2"), _neighbor("d3")]
        ordered = engine.order_neighbors("d1", neighbors, 0.0)
        assert [n.mac for n in ordered] == ["d2", "d3"]
        assert engine.stats()["misses"] == 1

    def test_warm_cache_reorders_and_counts_hit(self):
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d3": 0.9, "d2": 0.1})
        neighbors = [_neighbor("d2"), _neighbor("d3")]
        ordered = engine.order_neighbors("d1", neighbors, 0.0)
        assert [n.mac for n in ordered] == ["d3", "d2"]
        assert engine.stats()["hits"] == 1

    def test_neighbor_caps_only_for_cached(self):
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d2": 0.2})
        caps = engine.neighbor_caps("d1", [_neighbor("d2"),
                                           _neighbor("d3")], 0.0)
        # Aligned vector: a cap for cached d2, NaN for uncached d3.
        assert caps.shape == (2,)
        assert 0.0 < caps[0] <= 0.95
        assert np.isnan(caps[1])

    def test_cached_zero_weight_orders_before_unseen(self):
        # Mirror of the graph-level rank regression: the engine's
        # neighbor ordering must treat a recorded zero-weight edge as
        # warmer than a never-recorded one.
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d3": 0.0})
        ordered, _ = engine.prepare_neighbors(
            "d1", [_neighbor("d2"), _neighbor("d3")], 0.0)
        assert [n.mac for n in ordered] == ["d3", "d2"]

    def test_empty_neighbors(self):
        engine = CachingEngine()
        assert engine.order_neighbors("d1", [], 0.0) == []

    def test_order_neighbors_preserves_duplicate_multiplicity(self):
        # Regression: the old implementation collapsed same-MAC entries
        # through a dict; duplicates must come back, grouped per MAC in
        # input order at the MAC's ranked position.
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d3": 0.9, "d2": 0.1})
        dup_a = _neighbor("d2")
        dup_b = NeighborDevice(mac="d2", region_id=1,
                               candidate_rooms=("c",),
                               shared_rooms=frozenset({"c"}))
        ordered = engine.order_neighbors(
            "d1", [dup_a, _neighbor("d3"), dup_b], 0.0)
        assert [n.mac for n in ordered] == ["d3", "d2", "d2"]
        assert ordered[1] is dup_a and ordered[2] is dup_b

    def test_zero_weight_edges_count_as_hit(self):
        # Regression: a cached edge with weight 0.0 is information
        # ("these two are not companions") and must count as a hit, per
        # order_neighbors' documented contract — the old code treated
        # an all-zero cache row as a miss.
        engine = CachingEngine()
        engine.record("d1", 0.0, {"d2": 0.0, "d3": 0.0})
        ordered, caps = engine.prepare_neighbors(
            "d1", [_neighbor("d3"), _neighbor("d2")], 0.0)
        assert engine.stats() == {"hits": 1, "misses": 0, "edges": 2,
                                  "nodes": 3}
        # All-zero weights rank by MAC (GlobalAffinityGraph.rank's tie
        # rule), and zero-weight edges still produce (tiny) caps.
        assert [n.mac for n in ordered] == ["d2", "d3"]
        assert not np.isnan(caps).any()

    def test_order_neighbors_duplicates_on_cold_cache(self):
        engine = CachingEngine()
        neighbors = [_neighbor("d2"), _neighbor("d2")]
        ordered = engine.order_neighbors("d1", neighbors, 0.0)
        assert len(ordered) == 2
        assert engine.stats()["misses"] == 1

    def test_prepare_neighbors_matches_two_call_path(self):
        reference = CachingEngine()
        combined = CachingEngine()
        for engine in (reference, combined):
            engine.record("d1", 0.0, {"d3": 0.9, "d2": 0.1})
        neighbors = [_neighbor("d2"), _neighbor("d3"), _neighbor("d4")]
        expected_order = reference.order_neighbors("d1", neighbors, 0.0)
        expected_caps = reference.neighbor_caps("d1", expected_order, 0.0)
        ordered, caps = combined.prepare_neighbors("d1", neighbors, 0.0)
        assert ordered == expected_order
        assert np.array_equal(caps, expected_caps, equal_nan=True)
        assert combined.stats()["hits"] == reference.stats()["hits"]
        assert combined.stats()["misses"] == reference.stats()["misses"]

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

    def test_record_batch_merges_in_order(self):
        sequential = CachingEngine()
        bulk = CachingEngine()
        records = [("d1", 10.0, {"d2": 0.4}),
                   ("d2", 20.0, {}),            # empty: skipped
                   ("d1", 30.0, {"d2": 0.6, "d3": 0.2})]
        for mac, t, weights in records:
            if weights:
                sequential.record(mac, t, weights)
        merged = bulk.record_batch(records)
        assert merged == 2
        assert bulk.stats() == sequential.stats()
        assert bulk.graph.observations("d1", "d2") == \
            sequential.graph.observations("d1", "d2")
