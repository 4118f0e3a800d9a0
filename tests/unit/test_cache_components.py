"""Unit tests of affinity components and cache-edge migration."""

from __future__ import annotations

import pytest

from repro.cache.components import AffinityComponents
from repro.cache.global_graph import GlobalAffinityGraph


class TestAffinityComponents:
    def test_nodes_start_as_singletons(self):
        comps = AffinityComponents()
        comps.add_node("b")
        comps.add_node("a")
        assert comps.node_count == 2
        assert comps.component_count == 2
        assert comps.representative("a") == "a"
        assert comps.component("b") == {"b"}
        assert not comps.connected("a", "b")

    def test_add_edge_merges_and_reports(self):
        comps = AffinityComponents()
        assert comps.add_edge("b", "c")       # creates + merges
        assert not comps.add_edge("c", "b")   # already one component
        assert comps.add_edge("a", "b")
        assert comps.component("c") == {"a", "b", "c"}
        assert comps.component_count == 1
        assert comps.connected("a", "c")

    def test_self_loop_only_materializes_the_node(self):
        comps = AffinityComponents()
        assert not comps.add_edge("a", "a")
        assert "a" in comps
        assert comps.component("a") == {"a"}

    def test_representative_is_the_minimum_member(self):
        comps = AffinityComponents()
        comps.add_edge("m", "z")
        assert comps.representative("z") == "m"
        comps.add_edge("z", "c")  # smaller member joins: rep drops
        assert comps.representative("m") == "c"
        comps.add_edge("m", "t")  # larger member joins: rep sticks
        assert comps.representative("t") == "c"

    def test_representative_unknown_node_raises(self):
        with pytest.raises(KeyError):
            AffinityComponents().representative("ghost")

    def test_components_iterate_sorted_by_representative(self):
        comps = AffinityComponents()
        comps.add_edge("x", "y")
        comps.add_edge("a", "b")
        comps.add_node("m")
        assert list(comps.components()) == [
            {"a", "b"}, {"m"}, {"x", "y"}]
        assert comps.representatives() == ["a", "m", "x"]

    def test_insertion_order_is_irrelevant(self):
        edges = [("a", "b"), ("c", "d"), ("b", "c"), ("e", "f")]
        forward = AffinityComponents()
        forward.update_from_edges(edges)
        backward = AffinityComponents()
        backward.update_from_edges(reversed(edges))
        assert list(forward.components()) == list(backward.components())
        assert forward.representatives() == backward.representatives()

    def test_update_from_edges_counts_merges_only(self):
        comps = AffinityComponents()
        assert comps.update_from_edges(
            [("a", "b"), ("a", "b"), ("b", "c"), ("c", "a")]) == 2


class TestEdgeMigration:
    @staticmethod
    def _warm_graph() -> GlobalAffinityGraph:
        graph = GlobalAffinityGraph()
        graph.add_observation("d1", "d2", 0.4, 1.0)
        graph.add_observation("d1", "d2", 0.3, 2.0)
        graph.add_observation("d2", "d3", 0.5, 3.0)
        graph.add_observation("x1", "x2", 0.9, 4.0)
        return graph

    def test_extract_then_insert_round_trips_whole_vectors(self):
        source = self._warm_graph()
        edges = source.extract_edges(["d1", "d2", "d3"])
        assert {(a, b) for a, b, _ in edges} == \
            {("d1", "d2"), ("d2", "d3")}
        # The source forgot the moved edges, their endpoints included.
        assert source.edge_count == 1
        assert source.node_count == 2
        assert source.affinity_at("d1", "d2", 1.0) is None
        target = GlobalAffinityGraph()
        assert target.insert_edges(edges) == 3  # observations, not edges
        assert [(o.weight, o.timestamp)
                for o in target.observations("d1", "d2")] == \
            [(0.4, 1.0), (0.3, 2.0)]
        assert target.affinity_at("d2", "d3", 3.0) == \
            self._warm_graph().affinity_at("d2", "d3", 3.0)

    def test_extract_touches_only_the_requested_devices(self):
        source = self._warm_graph()
        assert source.extract_edges(["ghost"]) == []
        source.extract_edges(["d3"])  # pops d2-d3, leaves d1-d2 and x1-x2
        assert source.affinity_at("d1", "d2", 1.0) is not None
        assert source.affinity_at("x1", "x2", 4.0) is not None
        assert source.affinity_at("d2", "d3", 3.0) is None
