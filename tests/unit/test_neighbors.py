"""Unit tests for neighbor discovery (paper §4.2)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import UnknownRegionError
from repro.events.event import ConnectivityEvent
from repro.events.validity import DeltaEstimator, valid_event_at
from repro.fine.neighbors import NeighborIndex, find_neighbors
from repro.util.timeutil import minutes


def scalar_snapshot(building, table, timestamp) -> list[tuple[str, int]]:
    """(mac, region id) of each online device, one device at a time."""
    online = []
    for mac in sorted(table.macs()):
        hit = valid_event_at(table.log(mac), timestamp)
        if hit is not None:
            online.append((mac, building.region_of_ap(hit.ap_id).region_id))
    return online


class TestFindNeighbors:
    def test_companion_found(self, fig1_building, fig1_table):
        # At 08:30 both d1 and d2 are online at wap3.
        wap3 = fig1_building.region_of_ap("wap3").region_id
        neighbors = find_neighbors(fig1_building, fig1_table, "d1",
                                   8.5 * 3600, wap3)
        macs = [n.mac for n in neighbors]
        assert "d2" in macs

    def test_non_overlapping_region_excluded(self, fig1_building,
                                             fig1_table):
        # d3 is online at wap1 whose rooms don't intersect wap3's.
        wap3 = fig1_building.region_of_ap("wap3").region_id
        neighbors = find_neighbors(fig1_building, fig1_table, "d1",
                                   8.5 * 3600, wap3)
        assert "d3" not in [n.mac for n in neighbors]

    def test_offline_device_excluded(self, fig1_building, fig1_table):
        # At 11:00 d1 is in its gap; query for d2's neighbors should not
        # include d1 (both share the gap window by construction).
        wap3 = fig1_building.region_of_ap("wap3").region_id
        neighbors = find_neighbors(fig1_building, fig1_table, "d2",
                                   11 * 3600, wap3)
        assert "d1" not in [n.mac for n in neighbors]

    def test_self_excluded(self, fig1_building, fig1_table):
        wap3 = fig1_building.region_of_ap("wap3").region_id
        neighbors = find_neighbors(fig1_building, fig1_table, "d1",
                                   8.5 * 3600, wap3)
        assert "d1" not in [n.mac for n in neighbors]

    def test_shared_rooms_computed(self, fig1_building, fig1_table):
        wap3 = fig1_building.region_of_ap("wap3").region_id
        neighbors = find_neighbors(fig1_building, fig1_table, "d1",
                                   8.5 * 3600, wap3)
        d2 = next(n for n in neighbors if n.mac == "d2")
        assert d2.shared_rooms == \
            fig1_building.region_of_ap("wap3").rooms

    def test_max_neighbors_cap(self, fig1_building, fig1_table):
        wap3 = fig1_building.region_of_ap("wap3").region_id
        neighbors = find_neighbors(fig1_building, fig1_table, "d1",
                                   8.5 * 3600, wap3, max_neighbors=0)
        assert neighbors == []

    def test_deterministic_order(self, fig1_building, fig1_table):
        wap3 = fig1_building.region_of_ap("wap3").region_id
        a = find_neighbors(fig1_building, fig1_table, "d1", 8.5 * 3600,
                           wap3)
        b = find_neighbors(fig1_building, fig1_table, "d1", 8.5 * 3600,
                           wap3)
        assert [n.mac for n in a] == [n.mac for n in b]


class TestNeighborIndex:
    def test_matches_find_neighbors_everywhere(self, fig1_building,
                                               fig1_table):
        # The index must reproduce find_neighbors exactly for every
        # device/region/timestamp combination, including the cap.
        index = NeighborIndex(fig1_building, fig1_table)
        h = 3600.0
        for timestamp in (100.0, 8.5 * h, 9 * h, 11 * h, 13 * h):
            for mac in ("d1", "d2", "d3"):
                for region in fig1_building.regions:
                    for cap in (None, 0, 1, 24):
                        expected = find_neighbors(
                            fig1_building, fig1_table, mac, timestamp,
                            region.region_id, max_neighbors=cap)
                        got = index.neighbors_for(
                            mac, timestamp, region.region_id,
                            max_neighbors=cap)
                        assert got == expected

    def test_unvalidated_region_ids_raise(self, fig1_building, fig1_table):
        # A negative id must not wrap into the building's region tables.
        index = NeighborIndex(fig1_building, fig1_table)
        for region_id in (-1, len(fig1_building.regions)):
            with pytest.raises(UnknownRegionError):
                index.neighbors_for("d1", 8.5 * 3600, region_id)
            with pytest.raises(UnknownRegionError):
                find_neighbors(fig1_building, fig1_table, "d1", 8.5 * 3600,
                               region_id)

    def test_snapshot_cached_per_timestamp(self, fig1_building,
                                           fig1_table):
        index = NeighborIndex(fig1_building, fig1_table)
        first = index.snapshot(8.5 * 3600)
        second = index.snapshot(8.5 * 3600)
        assert first is second  # one scan per distinct timestamp

    def test_snapshot_lists_online_devices_sorted(self, fig1_building,
                                                  fig1_table):
        index = NeighborIndex(fig1_building, fig1_table)
        snap = index.snapshot(8.5 * 3600)
        macs = [mac for mac, _ in snap.online()]
        assert macs == sorted(macs)
        assert "d1" in macs and "d2" in macs


class TestSnapshotFreshness:
    """The index reads a view the table rebuilds per generation."""

    def test_append_without_freeze_seen_at_a_new_time(self, fig1_building,
                                                      fig1_table):
        index = NeighborIndex(fig1_building, fig1_table)
        late = 20 * 3600.0
        assert index.snapshot(late - 3600.0).online() == []
        fig1_table.append(ConnectivityEvent(late, "d3", "wap1"))
        snap = index.snapshot(late)
        assert [mac for mac, _ in snap.online()] == ["d3"]
        wap1 = fig1_building.region_of_ap("wap1").region_id
        assert index.neighbors_for("d1", late, wap1) == find_neighbors(
            fig1_building, fig1_table, "d1", late, wap1)

    def test_delta_refit_without_new_generation_is_honoured(
            self, fig1_building, fig1_table):
        # d3 logs every 20 min; with δ = 10 min it is online 15 min after
        # its last event only once its δ is refit to 20 min.
        index = NeighborIndex(fig1_building, fig1_table)
        last = float(fig1_table.log("d3").times[-1])
        assert "d3" not in [
            mac for mac, _ in index.snapshot(last + 900).online()]
        generation = fig1_table.generation
        DeltaEstimator(minimum=minutes(2), maximum=minutes(30)).fit_devices(
            fig1_table, ["d3"])
        assert fig1_table.registry.get("d3").delta == minutes(20)
        assert fig1_table.generation == generation
        later = index.snapshot(last + 901)  # an uncached timestamp
        assert "d3" in [mac for mac, _ in later.online()]

    def test_view_shared_per_generation(self, fig1_building, fig1_table):
        first = NeighborIndex(fig1_building, fig1_table)
        second = NeighborIndex(fig1_building, fig1_table)
        first.snapshot(9 * 3600.0)
        second.snapshot(10 * 3600.0)
        view = fig1_table.flat_logs()
        assert fig1_table.flat_logs() is view
        fig1_table.append(ConnectivityEvent(21 * 3600.0, "d1", "wap3"))
        assert fig1_table.flat_logs() is not view
        assert fig1_table.flat_logs().generation == view.generation + 1


    def test_memoized_snapshot_survives_a_row_shifting_generation(
            self, fig1_building, fig1_table):
        # "a0" sorts before every other MAC, so the new view shifts every
        # row by one; the memo outside δ of the append is kept, and its
        # rows must still decode through the view it was computed from.
        index = NeighborIndex(fig1_building, fig1_table)
        at = 8.5 * 3600.0
        memo = index.snapshot(at)
        fig1_table.append(ConnectivityEvent(20 * 3600.0, "a0", "wap3"))
        fig1_table.freeze()
        assert fig1_table.flat_logs().macs[0] == "a0"
        assert index.snapshot(at) is memo
        for mac in fig1_table.macs():
            for region in fig1_building.regions:
                assert index.neighbors_for(mac, at, region.region_id) == \
                    find_neighbors(fig1_building, fig1_table, mac, at,
                                   region.region_id)

    def test_unknown_ap_raises_only_where_its_device_is_online(
            self, fig1_building, fig1_table):
        fig1_table.append(ConnectivityEvent(20 * 3600.0, "d0",
                                            "no-such-ap"))
        index = NeighborIndex(fig1_building, fig1_table)
        with pytest.raises(UnknownRegionError):
            index.snapshot(20 * 3600.0)
        assert index.snapshot(9 * 3600.0).online() == \
            scalar_snapshot(fig1_building, fig1_table, 9 * 3600.0)


def test_concurrent_first_reads_share_one_generation(fig1_building,
                                                     fig1_table):
    # In-process shards read one table from several lane threads; the
    # first reads after a new generation may race to build the view.
    times = [8 * 3600.0 + 97.0 * i for i in range(120)]
    expected = [NeighborIndex(fig1_building, fig1_table).snapshot(t).online()
                for t in times]
    fig1_table.append(ConnectivityEvent(23 * 3600.0, "d2", "wap2"))
    results: dict[int, list] = {}

    def read(worker: int) -> None:
        index = NeighborIndex(fig1_building, fig1_table)
        results[worker] = [index.snapshot(t).online() for t in times]

    # Ingest, and so freeze, runs between windows, never during them.
    fig1_table.freeze()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(worker,))
                   for worker in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == {worker: expected for worker in range(6)}
    assert fig1_table.flat_logs().generation == fig1_table.generation
