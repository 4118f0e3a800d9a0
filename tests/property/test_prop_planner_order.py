"""Property: batch planning is invariant under query arrival order.

The async gateway leans on exactly this: a batching window coalesces
whatever concurrent callers happened to submit, in whatever order the
event loop realized — so the planner's grouping (and everything
downstream of it) must not care how the batch was ordered on arrival.
``plan_queries`` sorts groups by (bucket, mac) and members by
(timestamp, input index); duplicates carry equal values, so the planned
*values* are permutation-invariant even though tie-break indices move.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.space.builder import BuildingBuilder
from repro.space.metadata import SpaceMetadata
from repro.system.config import LocaterConfig
from repro.system.locater import Locater
from repro.system.planner import plan_queries
from repro.system.query import LocationQuery


def _evts(mac, pairs):
    return [ConnectivityEvent(timestamp=t, mac=mac, ap_id=ap)
            for t, ap in pairs]


def _world():
    building = (
        BuildingBuilder("prop-planner")
        .add_private_room("r1")
        .add_private_room("r2")
        .add_public_room("r3")
        .add_access_point("wap1", ["r1", "r3"])
        .add_access_point("wap2", ["r2", "r3"])
        .build())
    metadata = SpaceMetadata(building, preferred_rooms={"d1": ["r1"],
                                                        "d2": ["r2"]})
    events = []
    events += _evts("d1", [(8 * 3600.0 + i * 600, "wap1")
                           for i in range(12)])
    events += _evts("d2", [(8 * 3600.0 + i * 600 + 90, "wap2")
                           for i in range(12)])
    events += _evts("d3", [(9 * 3600.0 + i * 1200, "wap1")
                           for i in range(8)])
    return building, metadata, EventTable.from_events(events)


_BUILDING, _METADATA, _TABLE = _world()
_LOCATER = Locater(_BUILDING, _METADATA, _TABLE,
                   config=LocaterConfig(use_caching=False))

# A small timestamp grid (not a continuum) so drawn batches actually
# collide: duplicate (mac, t) pairs, shared buckets, shared devices.
_SPAN = _TABLE.span()
_GRID = [_SPAN.start + frac * (_SPAN.end - _SPAN.start)
         for frac in (0.0, 0.1, 0.25, 0.5, 0.51, 0.75, 1.0)]

queries_strategy = st.lists(
    st.builds(LocationQuery,
              mac=st.sampled_from(["d1", "d2", "d3"]),
              timestamp=st.sampled_from(_GRID)),
    min_size=1, max_size=12)


def _planned_values(plan):
    return [(group.mac, group.bucket,
             [planned.query for planned in group.queries])
            for group in plan.groups]


@given(queries_strategy, st.data())
@settings(max_examples=80)
def test_plan_is_invariant_under_arrival_order(queries, data):
    shuffled = data.draw(st.permutations(queries))
    baseline = plan_queries(queries)
    permuted = plan_queries(shuffled)
    assert _planned_values(permuted) == _planned_values(baseline)
    # The execution order itself (by value) is arrival-order invariant.
    assert [p.query for p in permuted.ordered()] == \
        [p.query for p in baseline.ordered()]


@given(queries_strategy, st.data())
@settings(max_examples=80)
def test_groups_partition_the_batch(queries, data):
    shuffled = data.draw(st.permutations(queries))
    plan = plan_queries(shuffled)
    assert sorted(p.index for p in plan.ordered()) == \
        list(range(len(queries)))
    for group in plan.groups:
        assert all(p.query.mac == group.mac for p in group.queries)
        timestamps = [p.query.timestamp for p in group.queries]
        assert timestamps == sorted(timestamps)


@given(queries_strategy, st.data())
@settings(max_examples=25, deadline=None)
def test_answers_are_invariant_under_arrival_order(queries, data):
    # Downstream of the plan: with answers pure functions of the table
    # (caching off), the batch's answers depend only on the query
    # values — any arrival order returns each caller the same answer.
    shuffled = data.draw(st.permutations(queries))
    baseline = dict(zip(
        [(q.mac, q.timestamp) for q in queries],
        _LOCATER.locate_batch(queries)))
    for query, answer in zip(shuffled,
                             _LOCATER.locate_batch(shuffled)):
        assert answer == baseline[(query.mac, query.timestamp)]
