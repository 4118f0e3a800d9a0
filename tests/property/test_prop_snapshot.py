"""Vectorized neighbor snapshots equal the scalar validity reference.

``NeighborIndex.snapshot`` answers "who is online at t" for every device
in one pass over :meth:`EventTable.flat_logs`
(:func:`~repro.events.validity.valid_events_at`).  The reference is a
loop of :func:`~repro.events.validity.valid_event_at` calls, one per
device in sorted-MAC order, and :func:`find_neighbors` for neighbor
lists.  Times and δ are drawn on a quarter-second grid so that query
times land exactly on window edges (t ± δ), on events, on duplicate
timestamps and on the next event's time, and windows clamp at 0.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.events.validity import valid_event_at, valid_events_at
from repro.fine.neighbors import NeighborIndex, find_neighbors
from repro.space.builder import BuildingBuilder
from repro.util.timeutil import TimeInterval

MACS = ("m0", "m1", "m2", "m3", "m4")
#: The first batch of events uses these APs; a later batch adds the
#: rest, growing the table's AP vocabulary after the first view.
FIRST_APS = ("wap1", "wap2", "wap3")
LATER_APS = ("wap4", "wap5")

BUILDING = (
    BuildingBuilder("snapshots")
    .add_private_room("r1").add_private_room("r2").add_private_room("r3")
    .add_public_room("r4").add_private_room("r5").add_private_room("r6")
    .add_access_point("wap1", ["r1", "r2"])
    .add_access_point("wap2", ["r2", "r3", "r4"])
    .add_access_point("wap3", ["r4", "r5"])
    .add_access_point("wap4", ["r5", "r6", "r1"])
    .add_access_point("wap5", ["r6"])
    .build()
)

grid_time = st.integers(min_value=0, max_value=400).map(lambda i: i / 4)
grid_delta = st.sampled_from([0.25, 1.0, 2.5, 10.0, 60.0])


def events(aps: tuple[str, ...]):
    return st.lists(
        st.tuples(grid_time, st.sampled_from(MACS), st.sampled_from(aps)),
        min_size=1, max_size=40)


deltas = st.dictionaries(st.sampled_from(MACS), grid_delta)


def build(rows, delta_by_mac) -> EventTable:
    table = EventTable.from_events(
        ConnectivityEvent(t, mac, ap) for t, mac, ap in rows)
    for mac, delta in delta_by_mac.items():
        if mac in table.registry:
            table.registry.get(mac).delta = delta
    return table


def edge_times(table: EventTable, extra: list[float]) -> list[float]:
    """Every event time, its window edges t ± δ, 0, and ``extra``."""
    times = {0.0, *extra}
    for mac in table.macs():
        delta = table.registry.get(mac).delta
        for t in table.log(mac).times.tolist():
            times.update((t, t - delta, t + delta))
    return sorted(times)


def reference_snapshot(table: EventTable,
                       timestamp: float) -> list[tuple[str, int]]:
    online = []
    for mac in sorted(table.macs()):
        log = table.log(mac)
        hit = valid_event_at(log, timestamp)
        if hit is not None:
            online.append((mac, BUILDING.region_of_ap(hit.ap_id).region_id))
    return online


def assert_matches_reference(table: EventTable, index: NeighborIndex,
                             times: list[float]) -> None:
    flat = table.flat_logs()
    for timestamp in times:
        assert index.snapshot(timestamp).online() == \
            reference_snapshot(table, timestamp)
        # The vectorized rule picks the very event the scalar one does.
        rows, positions = valid_events_at(flat, timestamp)
        for row, position in zip(rows.tolist(), positions.tolist()):
            hit = valid_event_at(table.log(flat.macs[row]), timestamp)
            assert hit is not None
            assert position - flat.offsets[row] == hit.event_position


@given(events(FIRST_APS), deltas, st.lists(grid_time, max_size=8))
@settings(max_examples=150, deadline=None)
def test_snapshot_equals_scalar_loop(rows, delta_by_mac, extra):
    table = build(rows, delta_by_mac)
    index = NeighborIndex(BUILDING, table)
    assert_matches_reference(table, index, edge_times(table, extra))


@given(events(FIRST_APS), deltas, st.lists(grid_time, max_size=4),
       st.sampled_from([None, 0, 1, 3]))
@settings(max_examples=80, deadline=None)
def test_neighbors_for_equals_find_neighbors(rows, delta_by_mac, extra,
                                             cap):
    table = build(rows, delta_by_mac)
    index = NeighborIndex(BUILDING, table)
    for timestamp in edge_times(table, extra):
        for mac in table.macs():
            for region in BUILDING.regions:
                assert index.neighbors_for(
                    mac, timestamp, region.region_id, max_neighbors=cap) == \
                    find_neighbors(BUILDING, table, mac, timestamp,
                                   region.region_id, max_neighbors=cap)


@given(events(FIRST_APS), deltas, grid_time, grid_time)
@settings(max_examples=80, deadline=None)
def test_restricted_table_with_empty_logs(rows, delta_by_mac, a, b):
    # restrict() keeps every registered device, including those with no
    # surviving events: the view must skip them like the scalar loop.
    clipped = build(rows, delta_by_mac).restrict(
        TimeInterval(min(a, b), max(a, b)))
    index = NeighborIndex(BUILDING, clipped)
    assert_matches_reference(clipped, index, edge_times(clipped, [a, b]))


@given(events(FIRST_APS), events(FIRST_APS + LATER_APS), deltas,
       st.lists(grid_time, max_size=4))
@settings(max_examples=80, deadline=None)
def test_growing_table_and_ap_vocabulary(first, later, delta_by_mac, extra):
    table = build(first, delta_by_mac)
    index = NeighborIndex(BUILDING, table)
    assert_matches_reference(table, index, edge_times(table, extra))
    # Appended rows (new devices, new APs) with no explicit freeze: the
    # snapshot's own read freezes them and builds a new view.
    table.extend(ConnectivityEvent(t, mac, ap) for t, mac, ap in later)
    for mac, delta in delta_by_mac.items():
        if mac in table.registry:
            table.registry.get(mac).delta = delta
    index.invalidate_all()
    timestamp = later[0][0]
    first_read = index.snapshot(timestamp).online()
    assert first_read == reference_snapshot(table, timestamp)
    assert_matches_reference(table, index, edge_times(table, extra))
