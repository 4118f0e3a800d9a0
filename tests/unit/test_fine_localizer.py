"""Unit tests for Algorithm 2 (the fine-grained localizer)."""

from __future__ import annotations

import pytest

from repro.fine.affinity import DeviceAffinityIndex, RoomAffinityModel
from repro.fine.localizer import FineLocalizer, FineMode, FineSharedState


def _localizer(fig1_building, fig1_metadata, fig1_table,
               mode=FineMode.INDEPENDENT, **kwargs) -> FineLocalizer:
    return FineLocalizer(
        fig1_building, fig1_table,
        RoomAffinityModel(fig1_metadata),
        DeviceAffinityIndex(fig1_table),
        mode=mode, **kwargs)


class TestIndependentFine:
    def test_answer_among_candidates(self, fig1_building, fig1_metadata,
                                     fig1_table):
        localizer = _localizer(fig1_building, fig1_metadata, fig1_table)
        wap3 = fig1_building.region_of_ap("wap3").region_id
        result = localizer.locate("d1", 8.5 * 3600, wap3)
        assert result.room_id in fig1_building.region_of_ap("wap3").rooms

    def test_posterior_is_distribution(self, fig1_building, fig1_metadata,
                                       fig1_table):
        localizer = _localizer(fig1_building, fig1_metadata, fig1_table)
        wap3 = fig1_building.region_of_ap("wap3").region_id
        result = localizer.locate("d1", 8.5 * 3600, wap3)
        assert sum(result.posterior.values()) == pytest.approx(1.0)
        assert set(result.posterior) == \
            fig1_building.region_of_ap("wap3").rooms

    def test_no_neighbors_prior_argmax(self, fig1_building, fig1_metadata,
                                       fig1_table):
        # At 17:00 nobody is online; the answer must be d1's preferred
        # room (highest room affinity).
        localizer = _localizer(fig1_building, fig1_metadata, fig1_table)
        wap3 = fig1_building.region_of_ap("wap3").region_id
        result = localizer.locate("d1", 17 * 3600, wap3)
        assert result.neighbors_total == 0
        assert result.room_id == "2061"

    def test_edge_weights_recorded(self, fig1_building, fig1_metadata,
                                   fig1_table):
        localizer = _localizer(fig1_building, fig1_metadata, fig1_table)
        wap3 = fig1_building.region_of_ap("wap3").region_id
        result = localizer.locate("d1", 8.5 * 3600, wap3)
        assert result.neighbors_processed == len(result.edge_weights)
        for weight in result.edge_weights.values():
            assert weight >= 0.0

    def test_empty_region_rejected(self, fig1_building, fig1_metadata,
                                   fig1_table):
        localizer = _localizer(fig1_building, fig1_metadata, fig1_table)
        with pytest.raises(Exception):
            localizer.locate("d1", 8.5 * 3600, 99)

    def test_stop_conditions_process_fewer(self, fig1_building,
                                           fig1_metadata, fig1_table):
        wap3 = fig1_building.region_of_ap("wap3").region_id
        with_stop = _localizer(fig1_building, fig1_metadata, fig1_table,
                               use_stop_conditions=True)
        without = _localizer(fig1_building, fig1_metadata, fig1_table,
                             use_stop_conditions=False)
        a = with_stop.locate("d1", 8.5 * 3600, wap3)
        b = without.locate("d1", 8.5 * 3600, wap3)
        assert a.neighbors_processed <= b.neighbors_processed
        assert not b.stopped_early

    def test_neighbor_order_respected(self, fig1_building, fig1_metadata,
                                      fig1_table):
        from repro.fine.neighbors import find_neighbors
        wap3 = fig1_building.region_of_ap("wap3").region_id
        neighbors = find_neighbors(fig1_building, fig1_table, "d1",
                                   8.5 * 3600, wap3)
        localizer = _localizer(fig1_building, fig1_metadata, fig1_table)
        result = localizer.locate("d1", 8.5 * 3600, wap3,
                                  neighbor_order=neighbors)
        assert result.neighbors_total == len(neighbors)


class TestDependentFine:
    def test_answer_among_candidates(self, fig1_building, fig1_metadata,
                                     fig1_table):
        localizer = _localizer(fig1_building, fig1_metadata, fig1_table,
                               mode=FineMode.DEPENDENT)
        wap3 = fig1_building.region_of_ap("wap3").region_id
        result = localizer.locate("d1", 8.5 * 3600, wap3)
        assert result.room_id in fig1_building.region_of_ap("wap3").rooms

    def test_companion_pulls_toward_shared_public_room(self, fig1_building,
                                                       fig1_metadata,
                                                       fig1_table):
        """d1 and d2 are strong companions; the meeting room (2065) gains
        posterior over a no-neighbor query (the paper's Fig. 3 story)."""
        localizer = _localizer(fig1_building, fig1_metadata, fig1_table,
                               mode=FineMode.DEPENDENT)
        wap3 = fig1_building.region_of_ap("wap3").region_id
        with_neighbor = localizer.locate("d1", 8.5 * 3600, wap3)
        alone = localizer.locate("d1", 17 * 3600, wap3)
        assert with_neighbor.posterior["2065"] > alone.posterior["2065"]

    def test_modes_agree_with_single_neighbor(self, fig1_building,
                                              fig1_metadata, fig1_table):
        """With exactly one neighbor there is one cluster of one device,
        so I-FINE and D-FINE compute the same posterior."""
        wap3 = fig1_building.region_of_ap("wap3").region_id
        ind = _localizer(fig1_building, fig1_metadata, fig1_table,
                         mode=FineMode.INDEPENDENT,
                         use_stop_conditions=False)
        dep = _localizer(fig1_building, fig1_metadata, fig1_table,
                         mode=FineMode.DEPENDENT,
                         use_stop_conditions=False)
        a = ind.locate("d1", 8.5 * 3600, wap3)
        b = dep.locate("d1", 8.5 * 3600, wap3)
        assert a.neighbors_total == b.neighbors_total == 1
        for room in a.posterior:
            assert a.posterior[room] == pytest.approx(b.posterior[room])


class TestSharedState:
    def test_shared_state_never_changes_answers(self, fig1_building,
                                                fig1_metadata, fig1_table):
        h = 3600.0
        wap3 = fig1_building.region_of_ap("wap3").region_id
        queries = [("d1", 8.5 * h, wap3), ("d2", 8.6 * h, wap3),
                   ("d1", 9.0 * h, wap3), ("d1", 8.5 * h, wap3)]
        for mode in (FineMode.INDEPENDENT, FineMode.DEPENDENT):
            plain = _localizer(fig1_building, fig1_metadata, fig1_table,
                               mode=mode)
            shared_loc = _localizer(fig1_building, fig1_metadata,
                                    fig1_table, mode=mode)
            shared = FineSharedState()
            for mac, t, region in queries:
                expected = plain.locate(mac, t, region)
                got = shared_loc.locate(mac, t, region, shared=shared)
                assert got == expected

    def test_shared_state_memoizes(self, fig1_building, fig1_metadata,
                                   fig1_table):
        localizer = _localizer(fig1_building, fig1_metadata, fig1_table,
                               mode=FineMode.DEPENDENT)
        shared = FineSharedState()
        wap3 = fig1_building.region_of_ap("wap3").region_id
        localizer.locate("d1", 8.5 * 3600, wap3, shared=shared)
        stats = shared.stats()
        assert stats["priors"] >= 1
        assert stats["pairs"] >= 1
        # A repeat query adds no new prior entries (everything is cached).
        localizer.locate("d1", 8.5 * 3600, wap3, shared=shared)
        assert shared.stats()["priors"] == stats["priors"]

    def test_locate_many_matches_locate(self, fig1_building,
                                        fig1_metadata, fig1_table):
        wap3 = fig1_building.region_of_ap("wap3").region_id
        queries = [("d1", 8.5 * 3600, wap3), ("d2", 8.6 * 3600, wap3)]
        reference = _localizer(fig1_building, fig1_metadata, fig1_table)
        expected = [reference.locate(mac, t, region)
                    for mac, t, region in queries]
        batch = _localizer(fig1_building, fig1_metadata, fig1_table)
        shared = FineSharedState()
        assert [batch.locate(mac, t, region, shared=shared)
                for mac, t, region in queries] == expected
