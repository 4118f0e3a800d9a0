"""Exception hierarchy for the LOCATER reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class at the API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A configuration value is missing, inconsistent, or out of range.

    Also a :class:`ValueError`, the type some of these checks raised
    before they were typed.
    """


class SpaceModelError(ReproError):
    """The space model (building / region / room graph) is malformed."""


class InvalidSpaceModelError(SpaceModelError, ValueError):
    """A room, access point or region was built with an invalid value:
    an empty id, a non-positive capacity, no rooms, or duplicate rooms.

    Also a :class:`ValueError`, the type these checks raised before they
    were typed.
    """


class UnknownRoomError(SpaceModelError):
    """A room id was referenced that the building does not contain."""


class UnknownRegionError(SpaceModelError):
    """A region / access-point id was referenced that does not exist."""


class UnknownDeviceError(ReproError):
    """A device (MAC address) was referenced that the table has never seen."""


class EventTableError(ReproError):
    """The connectivity event table was used inconsistently."""


class EmptyHistoryError(EventTableError):
    """An operation required historical events but none were available."""


class InvalidEventError(EventTableError, ValueError):
    """A connectivity event was malformed at the ingest boundary.

    Raised for a non-finite or negative timestamp and for an empty MAC or
    AP id.  It is also a :class:`ValueError`, the type these checks
    raised before they were typed.
    """


class LocalizationError(ReproError):
    """A localization query could not be answered."""


class InvalidQueryError(LocalizationError, ValueError):
    """A location query was malformed: a non-finite or negative timestamp,
    or an empty MAC.

    The query-side twin of :class:`InvalidEventError`, and likewise a
    :class:`ValueError`, the type these checks raised before they were
    typed.
    """


class TrainingError(ReproError):
    """A model could not be trained (e.g. degenerate labels or features)."""


class SimulationError(ReproError):
    """The synthetic data generator was configured inconsistently."""


class StorageError(ReproError):
    """The storage engine failed or was used after being closed."""


class GatewayError(ReproError):
    """The async serving gateway failed or was misused."""


class GatewayClosedError(GatewayError):
    """A query or ingest reached a gateway after ``close()``.

    Also set on the futures of queries still queued when the gateway
    shut down, so no caller awaits forever.
    """


class GatewayOverloadedError(GatewayError):
    """Admission control shed this query: the pending queue is full.

    The typed load-shedding signal — past saturation the gateway
    rejects immediately with a bounded queue instead of growing latency
    without bound.  Carries the observed ``depth`` and the configured
    ``limit`` so callers (and load generators) can report backpressure;
    cooperative clients should ``await gateway.ready()`` and retry.
    """

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"gateway overloaded: {depth} queries pending "
            f"(max_pending={limit}); retry after backpressure clears")
        self.depth = depth
        self.limit = limit


class ClusterError(ReproError):
    """A sharded cluster failed: a shard call raised, or a worker died."""


class ShardUnavailableError(ClusterError):
    """A shard worker is dead or unreachable (pipe EOF, broken pipe).

    Carries ``shard_id`` so supervision can target recovery at the one
    failed shard instead of restarting the whole cluster.
    """

    def __init__(self, shard_id: int, message: str) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class ShardTimeoutError(ClusterError):
    """A shard call exceeded the configured timeout (worker hung).

    A timed-out pipe is desynchronized — the late reply would be read as
    the answer to the *next* call — so the shard is marked dead and must
    be restarted before it can serve again.
    """

    def __init__(self, shard_id: int, message: str) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class ShardQuarantinedError(ClusterError):
    """A shard exhausted its restart budget and its devices are offline.

    Raised (under ``RecoveryPolicy(degraded="error")``) when a query
    routes to a quarantined shard; the remaining shards keep serving
    their devices bitwise-unchanged.
    """

    def __init__(self, shard_id: int, message: str) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class ClusterCallError(ClusterError):
    """One or more shards failed during a fan-out call.

    Aggregates *every* failed shard (not just the first) and carries the
    partial results so supervision can retry only the failed slice:

    * ``shard_ids`` — the shard ids the call targeted, in dispatch order.
    * ``results`` — one slot per targeted shard, aligned with
      ``shard_ids``; ``None`` where that shard failed.
    * ``failures`` — mapping of shard id to the exception it raised.
    """

    def __init__(self, method: str, shard_ids: "list[int]",
                 results: "list[object]",
                 failures: "dict[int, Exception]") -> None:
        failed = ", ".join(
            f"shard {shard_id}: {failures[shard_id]}"
            for shard_id in sorted(failures))
        super().__init__(
            f"{len(failures)} shard(s) failed during {method!r} — {failed}")
        self.method = method
        self.shard_ids = shard_ids
        self.results = results
        self.failures = failures
