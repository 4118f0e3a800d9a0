"""Property-based tests for the caching engine (paper §5)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.engine import CachingEngine
from repro.fine.neighbors import NeighborDevice

from oracles.cache import prepare_neighbors as reference_prepare

#: The clamp window of ``CachingEngine.prepare_neighbors``'s caps.
CAP_FLOOR = 0.02
CAP_CEILING = 0.5


def _neighbor(mac: str, n_rooms: int) -> NeighborDevice:
    rooms = tuple(f"r{i}" for i in range(n_rooms))
    return NeighborDevice(mac=mac, region_id=0, candidate_rooms=rooms,
                          shared_rooms=frozenset(rooms[:1]) if rooms
                          else frozenset())


def _warm_engine(weight: float) -> CachingEngine:
    engine = CachingEngine()
    engine.record("d1", 0.0, {"dn": weight})
    return engine


def _caps(engine: CachingEngine, neighbors) -> np.ndarray:
    _, caps = engine.prepare_neighbors("d1", neighbors, 0.0)
    return caps


weights = st.floats(min_value=0.0, max_value=1.0,
                    allow_nan=False, allow_infinity=False)
room_counts = st.integers(min_value=0, max_value=12)


@given(weights, room_counts)
@settings(max_examples=80)
def test_caps_always_land_in_clamp_window(weight, n_rooms):
    engine = _warm_engine(weight)
    caps = _caps(engine, [_neighbor("dn", n_rooms)])
    assert caps.shape == (1,)
    assert CAP_FLOOR <= caps[0] <= CAP_CEILING


@given(st.lists(weights, min_size=2, max_size=6), room_counts)
@settings(max_examples=60)
def test_caps_scale_monotonically_with_cached_affinity(ws, n_rooms):
    # Higher cached affinity must never yield a smaller cap (same rooms).
    caps = []
    for w in sorted(ws):
        engine = _warm_engine(w)
        caps.append(_caps(engine, [_neighbor("dn", n_rooms)])[0])
    assert all(a <= b for a, b in zip(caps, caps[1:]))


@given(weights, st.lists(room_counts, min_size=2, max_size=6))
@settings(max_examples=60)
def test_caps_scale_monotonically_with_candidate_room_count(weight, counts):
    # More candidate rooms spread a cached mean weight over more rooms,
    # so the implied co-location mass bound must never shrink.
    engine = _warm_engine(weight)
    caps = [_caps(engine, [_neighbor("dn", n)])[0]
            for n in sorted(counts)]
    assert all(a <= b for a, b in zip(caps, caps[1:]))


@given(weights, room_counts)
@settings(max_examples=40)
def test_uncached_neighbor_gets_no_cap(weight, n_rooms):
    engine = _warm_engine(weight)
    caps = _caps(
        engine, [_neighbor("stranger", n_rooms), _neighbor("dn", n_rooms)])
    # The cached neighbor ranks first; the stranger has no cap.
    assert not np.isnan(caps[0])
    assert np.isnan(caps[1])


@given(weights, room_counts)
@settings(max_examples=40)
def test_prepare_neighbors_caps_match_neighbor_caps(weight, n_rooms):
    engine = _warm_engine(weight)
    neighbors = [_neighbor("stranger", n_rooms), _neighbor("dn", n_rooms)]
    expected_order, expected, _ = reference_prepare(
        engine.graph, "d1", neighbors, 0.0)
    ordered, caps = engine.prepare_neighbors("d1", neighbors, 0.0)
    assert ordered == expected_order
    assert np.array_equal(caps, expected, equal_nan=True)
