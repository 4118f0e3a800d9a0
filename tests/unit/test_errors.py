"""The exception hierarchy: one base to catch at the API boundary."""

from __future__ import annotations

import pytest

from repro import errors
from repro.coarse.bootstrap import BootstrapLabeler
from repro.errors import (
    ClusterCallError,
    ClusterError,
    ConfigurationError,
    EmptyHistoryError,
    EventTableError,
    GatewayClosedError,
    GatewayError,
    GatewayOverloadedError,
    InvalidEventError,
    InvalidQueryError,
    InvalidSpaceModelError,
    LocalizationError,
    ReproError,
    ShardQuarantinedError,
    ShardTimeoutError,
    ShardUnavailableError,
    SimulationError,
    SpaceModelError,
    StorageError,
    TrainingError,
    UnknownDeviceError,
    UnknownRegionError,
    UnknownRoomError,
)
from repro.cache.global_graph import GlobalAffinityGraph
from repro.cache.local_graph import LocalAffinityGraph
from repro.events.device import Device
from repro.events.validity import DeltaEstimator
from repro.io.anonymize import MacAnonymizer
from repro.space.access_point import AccessPoint
from repro.space.region import Region
from repro.sim.person import Person
from repro.sim.profile import staff_profile
from repro.space.room import Room, RoomType
from repro.util.stats import gaussian_weights
from repro.util.timeutil import TimeInterval, minutes

ALL_ERRORS = [
    ConfigurationError, SpaceModelError, InvalidSpaceModelError,
    UnknownRoomError, UnknownRegionError, UnknownDeviceError,
    EventTableError,
    EmptyHistoryError, InvalidEventError, LocalizationError,
    InvalidQueryError, TrainingError,
    SimulationError, StorageError, ClusterError,
    ShardUnavailableError, ShardTimeoutError, ShardQuarantinedError,
    ClusterCallError, GatewayError, GatewayClosedError,
    GatewayOverloadedError,
]

# Message-only constructors; the shard/fan-out/admission errors carry
# structure and are covered separately below.
MESSAGE_ERRORS = [exc for exc in ALL_ERRORS if exc not in (
    ShardUnavailableError, ShardTimeoutError, ShardQuarantinedError,
    ClusterCallError, GatewayOverloadedError)]


@pytest.mark.parametrize("exc", ALL_ERRORS)
def test_every_error_derives_from_repro_error(exc):
    assert issubclass(exc, ReproError)
    assert issubclass(exc, Exception)


@pytest.mark.parametrize("exc", MESSAGE_ERRORS)
def test_every_error_is_raisable_and_catchable_at_the_base(exc):
    with pytest.raises(ReproError) as info:
        raise exc("boom")
    assert str(info.value) == "boom"
    assert type(info.value) is exc


@pytest.mark.parametrize("exc", [
    ShardUnavailableError, ShardTimeoutError, ShardQuarantinedError,
])
def test_shard_errors_carry_the_shard_id(exc):
    with pytest.raises(ClusterError) as info:
        raise exc(3, "shard 3 went away")
    assert info.value.shard_id == 3
    assert str(info.value) == "shard 3 went away"


def test_cluster_call_error_aggregates_every_failure():
    failures = {2: ShardUnavailableError(2, "dead"),
                0: ValueError("boom")}
    exc = ClusterCallError(
        "locate_batch", shard_ids=[0, 1, 2],
        results=[None, "ok", None], failures=failures)
    assert isinstance(exc, ClusterError)
    assert exc.method == "locate_batch"
    assert exc.shard_ids == [0, 1, 2]
    assert exc.results == [None, "ok", None]
    assert exc.failures == failures
    # Both failed shards are named, in sorted order.
    assert "shard 0: boom" in str(exc)
    assert "shard 2: dead" in str(exc)
    assert "2 shard(s) failed" in str(exc)


def test_gateway_overloaded_error_carries_queue_depth():
    with pytest.raises(GatewayError) as info:
        raise GatewayOverloadedError(64, 64)
    assert info.value.depth == 64
    assert info.value.limit == 64
    assert "max_pending=64" in str(info.value)


@pytest.mark.parametrize("child,parent", [
    (UnknownRoomError, SpaceModelError),
    (UnknownRegionError, SpaceModelError),
    (EmptyHistoryError, EventTableError),
    (InvalidEventError, EventTableError),
    (InvalidEventError, ValueError),
    (InvalidQueryError, LocalizationError),
    (InvalidQueryError, ValueError),
    (GatewayClosedError, GatewayError),
])
def test_refinement_subtrees(child, parent):
    assert issubclass(child, parent)
    with pytest.raises(parent):
        raise child("specific failure caught at the subtree root")


# Every constructor check a caller can trip: each raises a typed
# ReproError that is still the ValueError it raised before it was typed.
_ROOMS = frozenset({"r1"})


@pytest.mark.parametrize("expected,build", [
    (InvalidSpaceModelError, lambda b: Room("", RoomType.PUBLIC)),
    (InvalidSpaceModelError, lambda b: Room("r1", RoomType.PUBLIC,
                                            capacity=0)),
    (InvalidSpaceModelError, lambda b: AccessPoint("", _ROOMS)),
    (InvalidSpaceModelError, lambda b: AccessPoint("w1", frozenset())),
    (InvalidSpaceModelError, lambda b: AccessPoint.create("w1",
                                                          ["r1", "r1"])),
    (InvalidSpaceModelError, lambda b: Region(-1, "w1", _ROOMS)),
    (InvalidSpaceModelError, lambda b: Region(0, "w1", frozenset())),
    (InvalidEventError, lambda b: Device("", 0)),
    (ConfigurationError, lambda b: Device("d1", 0, delta=0.0)),
    (ConfigurationError, lambda b: DeltaEstimator(minimum=minutes(20),
                                                  maximum=minutes(10))),
    (ConfigurationError, lambda b: BootstrapLabeler(
        b, tau_low=minutes(30), tau_high=minutes(20))),
    (ConfigurationError, lambda b: BootstrapLabeler(
        b, tau_region_low=minutes(40), tau_region_high=minutes(20))),
    (ConfigurationError, lambda b: TimeInterval(10.0, 5.0)),
    (ConfigurationError, lambda b: MacAnonymizer(salt="")),
    (ConfigurationError, lambda b: MacAnonymizer(salt="s",
                                                 digest_chars=4)),
    (ConfigurationError, lambda b: _person(person_id="")),
    (ConfigurationError, lambda b: _person(mac="")),
    (ConfigurationError, lambda b: _person(predictability=1.5)),
], ids=["room-id", "room-capacity", "ap-id", "ap-no-rooms",
        "ap-duplicate-rooms", "region-id", "region-no-rooms", "device-mac",
        "device-delta", "delta-estimator-clamps", "bootstrap-taus",
        "bootstrap-region-taus", "time-interval", "anonymizer-salt",
        "anonymizer-digest", "person-id", "person-mac",
        "person-predictability"])
def test_constructor_checks_raise_typed_value_errors(expected, build,
                                                      fig1_building):
    with pytest.raises(expected) as caught:
        build(fig1_building)
    assert isinstance(caught.value, ReproError)
    assert isinstance(caught.value, ValueError)


def _person(**fields) -> Person:
    values = {"person_id": "p1", "mac": "m1", "profile": staff_profile(),
              "preferred_room": None, "predictability": 0.5, **fields}
    return Person(**values)


# The same for the checks on a call's arguments.  A NaN or infinite
# affinity weight would otherwise be stored and ranked like a real one.
@pytest.mark.parametrize("call", [
    lambda: gaussian_weights(0.0, [1.0], sigma=0.0),
    lambda: LocalAffinityGraph("d1", 0.0).add_edge("d1", 0.5),
    lambda: LocalAffinityGraph("d1", 0.0).add_edge("d2", -0.1),
    lambda: LocalAffinityGraph("d1", 0.0).add_edge("d2", float("nan")),
    lambda: LocalAffinityGraph("d1", 0.0).add_edge("d2", float("inf")),
    lambda: GlobalAffinityGraph().add_observation("a", "a", 0.5, 0.0),
    lambda: GlobalAffinityGraph().add_observation("a", "b", float("nan"),
                                                  0.0),
    lambda: GlobalAffinityGraph().add_observation("a", "b", float("-inf"),
                                                  0.0),
], ids=["gaussian-sigma", "local-self-edge", "local-negative-weight",
        "local-nan-weight", "local-inf-weight", "global-self-edge",
        "global-nan-weight", "global-inf-weight"])
def test_call_checks_raise_typed_value_errors(call):
    with pytest.raises(ConfigurationError) as caught:
        call()
    assert isinstance(caught.value, ValueError)


def test_siblings_stay_distinct():
    # Catching one subtree must not swallow another's failures.
    with pytest.raises(EventTableError):
        try:
            raise EmptyHistoryError("no events")
        except SpaceModelError:  # pragma: no cover - must not trigger
            pytest.fail("EventTable subtree caught by SpaceModel subtree")


def test_module_exports_exactly_the_hierarchy():
    exported = {name for name in dir(errors)
                if isinstance(getattr(errors, name), type)
                and issubclass(getattr(errors, name), Exception)}
    assert exported == {cls.__name__ for cls in ALL_ERRORS} | {"ReproError"}
