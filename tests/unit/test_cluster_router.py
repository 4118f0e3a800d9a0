"""Unit tests of shard routing: the component router and the cluster's rule.

The cluster builds one :class:`ComponentAffinityRouter`.  With caching
on it binds every device before the first query and re-binds at every
ingest; with caching off it never feeds the router, so every device
keeps its ``stable_hash(mac)`` route.
"""

from __future__ import annotations

import pytest

from repro.cluster import ShardedLocater
from repro.cluster.router import (
    ComponentAffinityRouter,
    partition_events,
    stable_hash,
)
from repro.errors import ConfigurationError
from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.sim.scenarios import isolated_campus_dataset
from repro.space.access_point import AccessPoint
from repro.space.building import Building
from repro.space.room import Room, RoomType
from repro.system.config import LocaterConfig
from repro.system.ingestion import IngestionEngine
from repro.system.streaming import StreamingSession


def _evt(mac: str, t: float, ap: str) -> ConnectivityEvent:
    return ConnectivityEvent(timestamp=t, mac=mac, ap_id=ap)


def _unit_building() -> Building:
    # ap0 and ap1 overlap on r1; ap2 and ap3 are each isolated.
    rooms = [Room(f"r{i}", RoomType.PUBLIC) for i in range(6)]
    aps = [AccessPoint("ap0", frozenset({"r0", "r1"})),
           AccessPoint("ap1", frozenset({"r1", "r2"})),
           AccessPoint("ap2", frozenset({"r3", "r4"})),
           AccessPoint("ap3", frozenset({"r5"}))]
    return Building("unit", rooms, aps)


def _bound(events: "list[ConnectivityEvent]") -> ComponentAffinityRouter:
    return ComponentAffinityRouter.from_table(
        EventTable.from_events(events), _unit_building())


class TestUnboundRoute:
    def test_deterministic_and_in_range(self):
        router = ComponentAffinityRouter(_unit_building())
        for mac in (f"mac{i:03d}" for i in range(200)):
            shard = router.shard_of(mac, 4)
            assert 0 <= shard < 4
            assert shard == router.shard_of(mac, 4)

    def test_salt_free_hash_is_stable_across_processes(self):
        # Python's builtin hash() is salted per process; routes must
        # not depend on it.  CRC32 of the bytes is fixed forever.
        assert stable_hash("7fbh") == 339757273
        router = ComponentAffinityRouter(_unit_building())
        assert router.shard_of("7fbh", 4) == 339757273 % 4

    def test_spreads_devices_over_all_shards(self):
        router = ComponentAffinityRouter(_unit_building())
        used = {router.shard_of(f"device-{i}", 4) for i in range(100)}
        assert used == {0, 1, 2, 3}

    def test_partition_preserves_order_and_multiplicity(self):
        router = ComponentAffinityRouter(_unit_building())
        items = list(range(50))
        macs = [f"m{i % 7}" for i in range(50)]
        parts = router.partition(items, macs, 3)
        assert sorted(x for part in parts for x in part) == items
        for shard, part in enumerate(parts):
            assert part == sorted(part)  # input order kept per shard
            for item in part:
                assert router.shard_of(macs[item], 3) == shard

    def test_partition_rejects_misaligned_inputs(self):
        with pytest.raises(ConfigurationError):
            ComponentAffinityRouter(_unit_building()).partition(
                [1, 2], ["a"], 2)

    def test_partition_events_unions_to_input_exactly_once(self):
        events = [_evt(f"m{i % 5}", float(i), "ap") for i in range(20)]
        parts = partition_events(
            events, ComponentAffinityRouter(_unit_building()), 3)
        flat = [event for part in parts for event in part]
        assert sorted(flat, key=lambda e: e.timestamp) == events
        assert len(flat) == len(events)


class TestComponentAffinityRouter:
    def test_room_sharing_devices_share_a_shard(self):
        router = _bound([_evt("d1", 1.0, "ap0"), _evt("d2", 2.0, "ap1"),
                         _evt("d3", 3.0, "ap2")])
        # d1 and d2 overlap on r1 — one component, keyed by its minimum.
        assert router.representative("d1") == "d1"
        assert router.representative("d2") == "d1"
        assert router.component_of("d2") == {"d1", "d2"}
        for shards in (2, 3, 5):
            assert router.shard_of("d1", shards) == \
                router.shard_of("d2", shards)
        # d3 never shares a room with them: its own component.
        assert router.component_of("d3") == {"d3"}

    def test_singleton_routes_exactly_like_the_unbound_route(self):
        # Binding a loner must never move it: the component key of a
        # singleton is the device's own MAC, i.e. the hash route.
        router = ComponentAffinityRouter(_unit_building())
        before = router.shard_of("d9", 4)
        table = EventTable.from_events([_evt("d9", 1.0, "ap3")])
        assert router.observe_table(table, ["d9"]) == frozenset()
        assert router.representative("d9") == "d9"
        assert router.shard_of("d9", 4) == before == stable_hash("d9") % 4

    def test_unknown_ap_leaves_the_device_unbound(self):
        router = _bound([_evt("ghost", 1.0, "not-an-ap")])
        assert router.representative("ghost") is None
        assert router.component_of("ghost") == frozenset()
        assert router.shard_of("ghost", 4) == stable_hash("ghost") % 4

    def test_merge_reports_the_rekeyed_side(self):
        router = ComponentAffinityRouter(_unit_building())
        table = EventTable.from_events([_evt("d1", 1.0, "ap0"),
                                        _evt("d2", 2.0, "ap2")])
        assert router.observe_table(table, table.macs()) == frozenset()
        # d2 now also shows up at ap1 → merges with d1's component; the
        # representative of {d1,d2} is d1, so d2 is the device that
        # moved.
        grown = EventTable.from_events([_evt("d1", 1.0, "ap0"),
                                        _evt("d2", 2.0, "ap2"),
                                        _evt("d2", 3.0, "ap1")])
        assert router.observe_table(grown, ["d2"]) == {"d2"}

    def test_merge_may_move_devices_outside_the_ingested_macs(self):
        router = _bound([_evt("d5", 1.0, "ap0"), _evt("d6", 2.0, "ap0")])
        # A *smaller* MAC joins: the whole existing component re-keys
        # even though only d1's events were ingested.
        table = EventTable.from_events([_evt("d1", 3.0, "ap1")])
        moved = router.observe_table(table, ["d1"])
        assert moved == {"d5", "d6"}
        assert router.representative("d6") == "d1"

    def test_first_binding_into_a_component_reports_the_device(self):
        # A device seen before only at an unknown AP routes by its own
        # hash; joining a component keyed by a smaller MAC moves it, so
        # the cluster must hear about it (its answers and edges live on
        # the old shard).
        router = _bound([_evt("d1", 1.0, "ap0"),
                         _evt("d7", 2.0, "not-an-ap")])
        grown = EventTable.from_events([_evt("d1", 1.0, "ap0"),
                                        _evt("d7", 2.0, "not-an-ap"),
                                        _evt("d7", 3.0, "ap1")])
        assert router.observe_table(grown, ["d7"]) == {"d7"}
        assert router.representative("d7") == "d1"

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_observe_after_each_ingest_equals_one_from_table(self, order):
        # Components depend only on the (device, AP) pairs seen, so a
        # router fed ingest by ingest ends where one built over the
        # final table starts — whatever order the events arrived in.
        events = [_evt("d4", 1.0, "ap3"), _evt("d2", 2.0, "ap1"),
                  _evt("d3", 3.0, "ap2"), _evt("d9", 4.0, "not-an-ap"),
                  _evt("d1", 5.0, "ap0"), _evt("d3", 6.0, "ap1"),
                  _evt("d9", 7.0, "ap3"), _evt("d0", 8.0, "ap2")]
        if order == "reverse":
            events = events[::-1]
        chunks = [events[i:i + 3] for i in range(0, len(events), 3)]
        table = EventTable.from_events(chunks[0])
        incremental = ComponentAffinityRouter.from_table(
            table, _unit_building())
        engine = IngestionEngine(table)
        for chunk in chunks[1:]:
            report = engine.ingest(chunk)
            incremental.observe_table(table, report.changed)
        whole = ComponentAffinityRouter.from_table(table, _unit_building())
        for mac in table.macs():
            assert incremental.representative(mac) == \
                whole.representative(mac)
            assert incremental.component_of(mac) == whole.component_of(mac)
            for shards in (2, 3, 5):
                assert incremental.shard_of(mac, shards) == \
                    whole.shard_of(mac, shards)

    def test_building_without_regions_rejected(self):
        class Bare:
            regions = ()

        with pytest.raises(ConfigurationError):
            ComponentAffinityRouter(Bare())  # type: ignore[arg-type]


@pytest.fixture(scope="module")
def isolated_world():
    # Three buildings that never exchange devices: three components.
    return isolated_campus_dataset(buildings=3, population=24, days=3,
                                   seed=17)


def _bridge(table, mac: str, ap_id: str, offset: float):
    start = table.span().end + offset
    return [ConnectivityEvent(timestamp=start + i * 30.0, mac=mac,
                              ap_id=ap_id) for i in range(3)]


class TestClusterRoutes:
    """The one routing rule of ``ShardedLocater``."""

    def test_caching_on_routes_by_component_before_any_ingest(
            self, isolated_world):
        dataset = isolated_world
        probe = ComponentAffinityRouter.from_table(dataset.table,
                                                   dataset.building)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4) as cluster:
            for mac in dataset.table.macs():
                representative = probe.representative(mac)
                assert representative is not None  # bound at start
                assert cluster.shard_of(mac) == \
                    stable_hash(representative) % 4
        assert len({probe.representative(mac)
                    for mac in dataset.table.macs()}) == 3

    def test_caching_off_routes_by_mac_hash_and_never_moves(
            self, isolated_world):
        dataset = isolated_world
        table = dataset.table.restrict(dataset.table.span())
        b0 = sorted(mac for mac in table.macs() if mac.startswith("b0:"))
        with ShardedLocater(dataset.building, dataset.metadata, table,
                            shard_count=3,
                            config=LocaterConfig(use_caching=False)
                            ) as cluster:
            session = StreamingSession(cluster)
            # A bridge that would merge two components, through both
            # ingest entry points, plus a device first seen mid-stream.
            cluster.ingest(_bridge(table, b0[0], "b1-wap1", 60.0))
            session.ingest(_bridge(table, b0[1], "b2-wap1", 300.0)
                           + _bridge(table, "fresh", "b1-wap2", 600.0))
            for mac in table.macs():
                assert cluster.shard_of(mac) == stable_hash(mac) % 3
                assert cluster.router.representative(mac) is None
            assert "fresh" in table.macs()
            session.close()

    def test_every_ingest_entry_point_rebinds_like_from_table(
            self, isolated_world):
        # A device must route the same whichever entry point its events
        # arrived through: cluster.ingest, or a StreamingSession whose
        # engine merged into the shared table and called on_ingest.
        dataset = isolated_world
        table = dataset.table.restrict(dataset.table.span())
        b0 = sorted(mac for mac in table.macs() if mac.startswith("b0:"))
        with ShardedLocater(dataset.building, dataset.metadata, table,
                            shard_count=3) as cluster:
            session = StreamingSession(cluster)

            def assert_routes_match_a_fresh_router():
                whole = ComponentAffinityRouter.from_table(
                    table, dataset.building)
                for mac in table.macs():
                    assert cluster.shard_of(mac) == whole.shard_of(mac, 3)

            cluster.ingest(_bridge(table, b0[0], "b1-wap1", 60.0))
            assert_routes_match_a_fresh_router()
            session.ingest(_bridge(table, "fresh", "b2-wap1", 300.0))
            assert_routes_match_a_fresh_router()
            session.ingest(_bridge(table, b0[1], "b2-wap2", 600.0))
            assert_routes_match_a_fresh_router()
            # The bridges left one component spanning all three
            # buildings, the fresh device included.
            assert cluster.router.component_of("fresh") == \
                frozenset(table.macs())
            session.close()
