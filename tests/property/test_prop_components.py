"""Property-based tests: affinity components and component routing."""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.cache.components import AffinityComponents
from repro.cluster.router import ComponentAffinityRouter
from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.space.access_point import AccessPoint
from repro.space.building import Building
from repro.space.room import Room, RoomType
from repro.system.ingestion import IngestionEngine

nodes = st.integers(min_value=0, max_value=15).map(lambda i: f"n{i:02d}")
edge_lists = st.lists(st.tuples(nodes, nodes), max_size=40)

#: ap0/ap1 overlap on r1, ap2/ap3 on r4 — two mergeable AP groups plus
#: the isolated ap4, so generated observations produce every component
#: shape (singletons, pairwise merges, transitive bridges).
_BUILDING = Building(
    "prop",
    [Room(f"r{i}", RoomType.PUBLIC) for i in range(6)],
    [AccessPoint("ap0", frozenset({"r0", "r1"})),
     AccessPoint("ap1", frozenset({"r1", "r2"})),
     AccessPoint("ap2", frozenset({"r3", "r4"})),
     AccessPoint("ap3", frozenset({"r4", "r5"})),
     AccessPoint("ap4", frozenset({"r0"}))])

devices = st.integers(min_value=0, max_value=9).map(lambda i: f"d{i}")
ap_ids = st.sampled_from(["ap0", "ap1", "ap2", "ap3", "ap4", "ghost"])
observations = st.lists(st.tuples(devices, ap_ids), max_size=30)
#: A stream of observations cut into successive ingests.
ingests = st.lists(st.lists(st.tuples(devices, ap_ids), max_size=10),
                   min_size=1, max_size=4)


def _ingest_one_by_one(chunks):
    """Ingest ``chunks`` in turn; yield the table and the ingested MACs.

    Timestamps increase across the whole stream, as a live log's do.
    """
    table = EventTable.from_events([])
    engine = IngestionEngine(table)
    clock = 0
    for chunk in chunks:
        events = []
        for mac, ap_id in chunk:
            events.append(ConnectivityEvent(timestamp=float(clock),
                                            mac=mac, ap_id=ap_id))
            clock += 1
        yield table, engine.ingest(events).changed


def _route_key(router, mac):
    representative = router.representative(mac)
    return mac if representative is None else representative


@given(edge_lists)
@settings(max_examples=80)
def test_components_partition_the_node_set(edges):
    comps = AffinityComponents()
    comps.update_from_edges(edges)
    members = [node for component in comps.components()
               for node in component]
    # Every node in exactly one component, none invented or dropped.
    assert len(members) == len(set(members)) == comps.node_count
    assert set(members) == {node for edge in edges for node in edge}
    assert comps.component_count == sum(1 for _ in comps.components())


@given(edge_lists, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_decomposition_is_invariant_to_insertion_order(edges, rng):
    forward = AffinityComponents()
    forward.update_from_edges(edges)
    shuffled = list(edges)
    rng.shuffle(shuffled)
    reordered = AffinityComponents()
    reordered.update_from_edges(shuffled)
    assert list(forward.components()) == list(reordered.components())
    assert forward.representatives() == reordered.representatives()


@given(edge_lists)
@settings(max_examples=60)
def test_representative_is_the_component_minimum(edges):
    comps = AffinityComponents()
    comps.update_from_edges(edges)
    for component in comps.components():
        for node in component:
            assert comps.representative(node) == min(component)
    for node_a, node_b in edges:
        assert comps.connected(node_a, node_b)


@given(observations, st.integers(min_value=2, max_value=5))
@settings(max_examples=60)
def test_edge_sharing_devices_route_to_the_same_shard(pairs, shards):
    # Two devices observed at the same AP share a room, hence can share
    # an affinity edge — the router must co-locate them (transitive
    # overlaps only tighten this, so same-AP pairs are the floor).
    table = EventTable.from_events([
        ConnectivityEvent(timestamp=float(i), mac=mac, ap_id=ap_id)
        for i, (mac, ap_id) in enumerate(pairs)])
    router = ComponentAffinityRouter.from_table(table, _BUILDING)
    seen_at: "defaultdict[str, set[str]]" = defaultdict(set)
    for mac, ap_id in pairs:
        if ap_id != "ghost":
            seen_at[ap_id].add(mac)
    for group in seen_at.values():
        routes = {router.shard_of(mac, shards) for mac in group}
        assert len(routes) == 1
        assert routes <= set(range(shards))


@given(ingests)
@settings(max_examples=60)
def test_observing_each_ingest_equals_one_from_table(chunks):
    # Components depend only on the (device, AP) pairs seen, so a router
    # fed ingest by ingest binds what one router over the final table
    # binds — the cluster re-binds at every ingest and relies on it.
    router = ComponentAffinityRouter(_BUILDING)
    for table, macs in _ingest_one_by_one(chunks):
        router.observe_table(table, macs)
    whole = ComponentAffinityRouter.from_table(table, _BUILDING)
    for mac in table.macs():
        assert router.representative(mac) == whole.representative(mac)
        assert router.component_of(mac) == whole.component_of(mac)


@given(ingests)
@settings(max_examples=60)
def test_observe_table_reports_exactly_the_rerouted_devices(chunks):
    # The cluster migrates cache edges and clears stored answers of the
    # devices observe_table reports: it must name every device whose
    # route key changed (an unbound device's key is its own MAC) and
    # no other.
    router = ComponentAffinityRouter(_BUILDING)
    for table, macs in _ingest_one_by_one(chunks):
        before = {mac: _route_key(router, mac) for mac in table.macs()}
        moved = router.observe_table(table, macs)
        assert moved == {mac for mac in table.macs()
                         if _route_key(router, mac) != before[mac]}


@given(st.lists(devices, max_size=40), st.integers(min_value=1, max_value=5),
       observations)
@settings(max_examples=60)
def test_partition_sends_each_item_once_to_its_owner(macs, shards, pairs):
    table = EventTable.from_events([
        ConnectivityEvent(timestamp=float(i), mac=mac, ap_id=ap_id)
        for i, (mac, ap_id) in enumerate(pairs)])
    router = ComponentAffinityRouter.from_table(table, _BUILDING)
    items = list(range(len(macs)))
    parts = router.partition(items, macs, shards)
    assert len(parts) == shards
    assert sorted(item for part in parts for item in part) == items
    for shard, part in enumerate(parts):
        assert part == sorted(part)  # input order kept per shard
        assert all(router.shard_of(macs[item], shards) == shard
                   for item in part)
