"""Property: no schedule of cache resets changes an answer.

Everything a :class:`~repro.system.locater.Locater` caches between
queries — the warm batch state's memos and neighbor snapshots, and the
trained per-device coarse models — is a pure function of the table.  So
for an *arbitrary* interleaving of warm queries, whole-state resets and
per-device model invalidations, every answer equals the cold memo-free
answer bitwise.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.space.builder import BuildingBuilder
from repro.space.metadata import SpaceMetadata
from repro.system.config import LocaterConfig
from repro.system.locater import Locater
from repro.system.query import LocationQuery
from repro.util.timeutil import minutes

_HOUR = 3600.0

_CONFIG = LocaterConfig(use_caching=False)


def _tiny_world():
    """A fig1-scale hand-built world: fast enough for many examples."""
    building = (
        BuildingBuilder("prop")
        .add_private_room("101")
        .add_private_room("102")
        .add_public_room("lounge")
        .add_access_point("wapA", ["101", "lounge"])
        .add_access_point("wapB", ["102", "lounge"])
        .build())
    events = []
    for i in range(14):
        events.append(ConnectivityEvent(
            timestamp=8 * _HOUR + i * 600, mac="d1", ap_id="wapA"))
        events.append(ConnectivityEvent(
            timestamp=8 * _HOUR + i * 600 + 120, mac="d2", ap_id="wapA"))
        events.append(ConnectivityEvent(
            timestamp=9 * _HOUR + i * 900, mac="d3", ap_id="wapB"))
    table = EventTable.from_events(events)
    for mac in ("d1", "d2", "d3"):
        table.registry.get(mac).delta = minutes(10)
    metadata = SpaceMetadata(building, preferred_rooms={
        "d1": ["101"], "d3": ["102"]})
    return building, metadata, table


_BUILDING, _METADATA, _TABLE = _tiny_world()

_QUERIES = [
    ("d1", 8.5 * _HOUR), ("d1", 10.2 * _HOUR), ("d2", 9.1 * _HOUR),
    ("d2", 8.05 * _HOUR), ("d3", 9.5 * _HOUR), ("d3", 11.0 * _HOUR),
]

_BASELINE = None


def _baseline():
    global _BASELINE
    if _BASELINE is None:
        lone = Locater(_BUILDING, _METADATA, _TABLE, config=_CONFIG)
        _BASELINE = [lone.locate(mac, ts) for mac, ts in _QUERIES]
    return _BASELINE


# One schedule step: answer query i warm, reset the warm batch state,
# or drop the trained models of query i's device.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(0, len(_QUERIES) - 1)),
        st.tuples(st.just("reset"), st.just(0)),
        st.tuples(st.just("invalidate"),
                  st.integers(0, len(_QUERIES) - 1)),
    ),
    min_size=1, max_size=12)


@given(_steps)
@settings(max_examples=25, deadline=None)
def test_any_reset_schedule_yields_identical_answers(steps):
    expected = _baseline()
    locater = Locater(_BUILDING, _METADATA, _TABLE, config=_CONFIG)
    for action, value in steps:
        mac, ts = _QUERIES[value]
        if action == "query":
            assert locater.locate_batch(
                [LocationQuery(mac=mac, timestamp=ts)]) == [expected[value]]
        elif action == "reset":
            locater._state.reset()
        else:
            locater.coarse.invalidate_devices([mac])
