"""Array core vs dict reference: the vectorized fine numeric pipeline.

The production :class:`~repro.fine.worlds.RoomPosterior` and
:meth:`~repro.fine.affinity.GroupAffinityModel.group_affinities` run on
dense numpy arrays; :mod:`oracles.fine` retains the
pre-vectorization scalar implementations.  On random priors and affinity
maps the two must agree: posterior argmax identical, probabilities
within 1e-9, bounds ordering ``min <= exp <= max`` preserved, and the
one-pass group affinities equal to the per-room evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fine.affinity import (
    DeviceAffinityIndex,
    GroupAffinityModel,
    RoomAffinityModel,
)
from repro.fine.worlds import RoomPosterior
from repro.space.access_point import AccessPoint
from repro.space.building import Building
from repro.space.metadata import SpaceMetadata
from repro.space.room import Room, RoomType

from oracles.fine import DictGroupAffinity, DictRoomPosterior


ROOM_POOL = tuple(f"r{i}" for i in range(8))

rooms = st.lists(st.sampled_from(ROOM_POOL), min_size=2, max_size=6,
                 unique=True)

priors = rooms.flatmap(
    lambda rs: st.lists(st.floats(min_value=0.01, max_value=1.0),
                        min_size=len(rs), max_size=len(rs)).map(
        lambda vs: dict(zip(rs, vs))))


def affinity_maps(room_ids: "list[str]", cap: float = 0.8):
    """Affinity dicts over a subset of rooms with bounded total mass."""
    return st.lists(st.floats(min_value=0.0, max_value=cap / 6),
                    min_size=len(room_ids), max_size=len(room_ids)).map(
        lambda vs: {r: v for r, v in zip(room_ids, vs) if v > 0})


def _posteriors(prior, observations):
    array = RoomPosterior(prior)
    scalar = DictRoomPosterior(prior)
    for observation in observations:
        array.observe(observation)
        scalar.observe(observation)
    return array, scalar


@given(priors, st.data())
@settings(max_examples=100)
def test_posterior_matches_reference(prior, data):
    room_ids = list(prior.keys())
    observations = [data.draw(affinity_maps(room_ids))
                    for _ in range(data.draw(st.integers(0, 5)))]
    array, scalar = _posteriors(prior, observations)
    got = array.posterior()
    want = scalar.posterior()
    assert set(got) == set(want)
    for room in want:
        assert got[room] == pytest.approx(want[room], abs=1e-9)
    # Identical argmax under the production tie-break ordering.
    assert max(got.items(), key=lambda kv: (kv[1], kv[0])) == \
        pytest.approx(max(want.items(), key=lambda kv: (kv[1], kv[0])))
    assert array.top_two() == tuple(
        (room, pytest.approx(p, abs=1e-9))
        for room, p in scalar.top_two())


@given(priors, st.data())
@settings(max_examples=100)
def test_bounds_match_reference(prior, data):
    room_ids = list(prior.keys())
    observations = [data.draw(affinity_maps(room_ids))
                    for _ in range(data.draw(st.integers(0, 3)))]
    array, scalar = _posteriors(prior, observations)
    unprocessed = data.draw(st.integers(0, 4))
    caps = data.draw(st.one_of(
        st.none(),
        st.lists(st.floats(min_value=0.01, max_value=0.9),
                 min_size=unprocessed, max_size=unprocessed)))
    for room in room_ids:
        got = array.bounds(room, unprocessed, caps)
        want = scalar.bounds(room, unprocessed, caps)
        assert got.minimum <= got.expected + 1e-12 <= \
            got.maximum + 2e-12  # ordering preserved
        assert got.expected == pytest.approx(want.expected, abs=1e-9)
        assert got.minimum == pytest.approx(want.minimum, abs=1e-9)
        assert got.maximum == pytest.approx(want.maximum, abs=1e-9)


@given(priors, st.data())
@settings(max_examples=60)
def test_vector_observation_matches_dict_observation(prior, data):
    """observe_array on an aligned vector == observe on the mapping."""
    room_ids = list(prior.keys())
    observation = data.draw(affinity_maps(room_ids))
    via_dict = RoomPosterior(prior)
    via_dict.observe(observation)
    via_array = RoomPosterior(prior)
    via_array.observe_array(np.array(
        [observation.get(r, 0.0) for r in via_array.rooms]))
    for room, p in via_dict.posterior().items():
        assert via_array.posterior()[room] == pytest.approx(p, abs=1e-12)


# ---------------------------------------------------------------------------
# Group affinities: one-pass vector vs per-room reference evaluation.
# ---------------------------------------------------------------------------

_BUILDING = Building(
    "prop",
    rooms=[Room(room_id=r,
                room_type=RoomType.PUBLIC if i % 3 == 0
                else RoomType.PRIVATE)
           for i, r in enumerate(ROOM_POOL)],
    access_points=[AccessPoint(ap_id="wap0",
                               covered_rooms=frozenset(ROOM_POOL))])


class _FixedDeviceIndex(DeviceAffinityIndex):
    """Device index stub returning one fixed α(D) (no event mining)."""

    def __init__(self, value: float) -> None:  # noqa: super-init-not-called
        self.value = value

    def group(self, macs) -> float:
        return self.value


member_sets = st.lists(
    st.lists(st.sampled_from(ROOM_POOL), min_size=1, max_size=6,
             unique=True),
    min_size=2, max_size=4)


@given(member_sets,
       st.lists(st.sampled_from(ROOM_POOL), min_size=1, max_size=8,
                unique=True),
       st.floats(min_value=0.0, max_value=1.0),
       st.data())
@settings(max_examples=100)
def test_group_affinities_match_reference(candidate_sets, query_rooms,
                                          device_affinity, data):
    preferred = {
        f"d{i}": data.draw(st.frozensets(st.sampled_from(ROOM_POOL),
                                         max_size=3))
        for i in range(len(candidate_sets))}
    metadata = SpaceMetadata(_BUILDING, preferred_rooms=preferred)
    room_model = RoomAffinityModel(metadata)
    index = _FixedDeviceIndex(device_affinity)
    members = [(f"d{i}", tuple(cands))
               for i, cands in enumerate(candidate_sets)]

    vectorized = GroupAffinityModel(room_model, index, _BUILDING)
    reference = DictGroupAffinity(room_model, index)

    got = vectorized.group_affinities(members, query_rooms)
    want = reference.group_affinities(members, query_rooms)
    assert got.shape == (len(query_rooms),)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-9)
        assert (g == 0.0) == (w == 0.0)  # exact-zero semantics preserved

    # The scalar wrapper agrees with the vector entry per room.
    for room, w in zip(query_rooms, want):
        assert vectorized.group_affinity(members, room) == \
            pytest.approx(w, abs=1e-9)
