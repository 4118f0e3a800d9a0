"""Unit tests for rooms, APs, regions, buildings and the builder."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import (
    SpaceModelError,
    UnknownRegionError,
    UnknownRoomError,
)
from repro.space.access_point import AccessPoint
from repro.space.builder import BuildingBuilder
from repro.space.building import Building
from repro.space.region import Region
from repro.space.room import Room, RoomType


class TestRoom:
    def test_public_private_flags(self):
        pub = Room("a", RoomType.PUBLIC)
        priv = Room("b", RoomType.PRIVATE)
        assert pub.is_public and not pub.is_private
        assert priv.is_private and not priv.is_public

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Room("", RoomType.PUBLIC)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Room("a", RoomType.PUBLIC, capacity=0)

    def test_str_mentions_type(self):
        assert "public" in str(Room("a", RoomType.PUBLIC))


class TestAccessPoint:
    def test_create_and_covers(self):
        ap = AccessPoint.create("wap1", ["a", "b"])
        assert ap.covers("a")
        assert not ap.covers("z")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            AccessPoint.create("wap1", ["a", "a"])

    def test_rejects_empty_coverage(self):
        with pytest.raises(ValueError):
            AccessPoint.create("wap1", [])


class TestRegion:
    def test_shared_rooms(self):
        r1 = Region(0, "wap1", frozenset({"a", "b"}))
        r2 = Region(1, "wap2", frozenset({"b", "c"}))
        assert r1.shared_rooms(r2) == frozenset({"b"})

    def test_len_and_contains(self):
        region = Region(0, "wap1", frozenset({"a", "b"}))
        assert len(region) == 2
        assert region.contains("a")
        assert not region.contains("c")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Region(0, "wap1", frozenset())


class TestBuilding:
    def test_fig1_shape(self, fig1_building: Building):
        assert len(fig1_building.rooms) == 10
        assert len(fig1_building.regions) == 4
        assert len(fig1_building.access_points) == 4

    def test_region_of_ap(self, fig1_building: Building):
        region = fig1_building.region_of_ap("wap3")
        assert region.rooms == frozenset(
            {"2059", "2061", "2065", "2069", "2099"})

    def test_regions_of_room_overlap(self, fig1_building: Building):
        regions = fig1_building.regions_of_room("2059")
        ap_ids = {r.ap_id for r in regions}
        assert ap_ids == {"wap2", "wap3"}  # overlapping coverage

    def test_candidate_rooms_sorted(self, fig1_building: Building):
        region = fig1_building.region_of_ap("wap3")
        ids = fig1_building.candidate_room_ids(region.region_id)
        assert list(ids) == sorted(region.rooms)

    def test_unknown_lookups_raise(self, fig1_building: Building):
        with pytest.raises(UnknownRoomError):
            fig1_building.room("nope")
        with pytest.raises(UnknownRegionError):
            fig1_building.region(99)
        with pytest.raises(UnknownRegionError):
            fig1_building.region_of_ap("wap99")
        with pytest.raises(UnknownRoomError):
            fig1_building.regions_of_room("nope")

    def test_overlap_tables_match_shared_rooms(self,
                                               fig1_building: Building):
        # The precomputed tables equal Region.shared_rooms pair by pair.
        regions = fig1_building.regions
        for gx in regions:
            overlap = fig1_building.region_overlap(gx.region_id)
            shared = fig1_building.shared_rooms_of(gx.region_id)
            for gy in regions:
                rooms = gx.shared_rooms(gy)
                assert bool(overlap[gy.region_id]) == bool(rooms)
                assert shared.get(gy.region_id, frozenset()) == rooms
        assert not fig1_building.region_overlap(0).flags.writeable

    def test_overlap_tables_reject_unvalidated_ids(self,
                                                   fig1_building: Building):
        # A negative id would wrap silently in a tuple or array index.
        for region_id in (-1, -4, 4):
            for lookup in (fig1_building.region_overlap,
                           fig1_building.shared_rooms_of,
                           fig1_building.candidate_room_ids):
                with pytest.raises(UnknownRegionError):
                    lookup(region_id)

    def test_pickle_round_trip_keeps_tables(self, fig1_building: Building):
        # Spawn workers receive the building inside the shard factory.
        copy = pickle.loads(pickle.dumps(fig1_building))
        for region in fig1_building.regions:
            region_id = region.region_id
            assert (copy.region_overlap(region_id) ==
                    fig1_building.region_overlap(region_id)).all()
            assert copy.shared_rooms_of(region_id) == \
                fig1_building.shared_rooms_of(region_id)
            assert copy.candidate_room_ids(region_id) == \
                fig1_building.candidate_room_ids(region_id)

    def test_public_private_partition(self, fig1_building: Building):
        publics = {r.room_id for r in fig1_building.public_rooms()}
        privates = {r.room_id for r in fig1_building.private_rooms()}
        assert publics == {"2065", "2002"}
        assert publics.isdisjoint(privates)
        assert len(publics) + len(privates) == len(fig1_building.rooms)

    def test_stats(self, fig1_building: Building):
        stats = fig1_building.stats()
        assert stats["rooms"] == 10
        assert stats["access_points"] == 4
        assert stats["rooms_in_multiple_regions"] >= 3

    def test_duplicate_room_rejected(self):
        rooms = [Room("a", RoomType.PUBLIC), Room("a", RoomType.PRIVATE)]
        with pytest.raises(SpaceModelError):
            Building("x", rooms, [AccessPoint.create("w", ["a"])])

    def test_ap_covering_unknown_room_rejected(self):
        with pytest.raises(SpaceModelError):
            Building("x", [Room("a", RoomType.PUBLIC)],
                     [AccessPoint.create("w", ["a", "ghost"])])

    def test_empty_building_rejected(self):
        with pytest.raises(SpaceModelError):
            Building("x", [], [])


class TestBuildingBuilder:
    def test_fluent_build(self):
        building = (BuildingBuilder("demo")
                    .add_private_room("101")
                    .add_public_room("lounge")
                    .add_access_point("wap1", ["101", "lounge"])
                    .build())
        assert len(building.rooms) == 2

    def test_duplicate_room_rejected(self):
        builder = BuildingBuilder("demo").add_private_room("101")
        with pytest.raises(SpaceModelError):
            builder.add_private_room("101")

    def test_duplicate_ap_rejected(self):
        builder = (BuildingBuilder("demo").add_private_room("101")
                   .add_access_point("wap1", ["101"]))
        with pytest.raises(SpaceModelError):
            builder.add_access_point("wap1", ["101"])

    def test_ap_requires_existing_rooms(self):
        builder = BuildingBuilder("demo").add_private_room("101")
        with pytest.raises(SpaceModelError):
            builder.add_access_point("wap1", ["102"])

    def test_uncovered_rooms_reported(self):
        builder = (BuildingBuilder("demo")
                   .add_private_room("101")
                   .add_private_room("102")
                   .add_access_point("wap1", ["101"]))
        assert builder.uncovered_rooms() == {"102"}

    def test_empty_name_rejected(self):
        with pytest.raises(SpaceModelError):
            BuildingBuilder("")
