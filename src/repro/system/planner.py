"""Batch query planning: shared-computation execution order (tentpole of §5+).

The caching engine of the paper amortizes affinity work *across* queries;
this module extends the same idea to the query-execution layer.  A batch
of location queries is grouped by (device, time bucket) and the groups
are executed in bucket-granular timestamp order — strictly chronological
across buckets, device-major inside a bucket — so that:

* the caching engine warms front-to-back — early-bucket queries record
  the affinity edges that later buckets' neighbor ordering and bounds
  consume;
* queries of one device inside one bucket run back to back, sharing the
  device's trained coarse models and gap labels;
* queries landing on the same timestamp (occupancy grids, trajectory
  sampling, contact tracing) share one online-device snapshot for
  neighbor discovery and reuse memoized affinity computations.

The bucket width is fixed at :data:`BUCKET_SECONDS` (one hour).  The
plan never changes *what* is computed — only the order and the
sharing.  ``Locater.locate_batch`` therefore produces answers bitwise
identical to calling ``locate`` once per query in the plan's execution
order (``QueryPlan.ordered_queries``); the equivalence suite in
``tests/integration/test_batch_equivalence.py`` enforces this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.system.query import LocationQuery

#: Width of a planning time bucket (one hour).  Buckets bound how far
#: execution may deviate from global timestamp order while still
#: keeping one device's nearby queries adjacent.
BUCKET_SECONDS = 3600.0


@dataclass(frozen=True, slots=True)
class PlannedQuery:
    """One query of a batch, remembering its position in the input.

    Attributes:
        index: Position in the input sequence (answers are returned in
            input order regardless of execution order).
        query: The query itself.
    """

    index: int
    query: LocationQuery


@dataclass(frozen=True, slots=True)
class QueryGroup:
    """All queries of one device falling into one time bucket.

    Attributes:
        mac: The queried device.
        bucket: Bucket ordinal (``floor(timestamp / BUCKET_SECONDS)``).
        queries: The group's queries, sorted by (timestamp, input index).
    """

    mac: str
    bucket: int
    queries: tuple[PlannedQuery, ...]

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def start(self) -> float:
        """Earliest query timestamp in the group."""
        return self.queries[0].query.timestamp

    @property
    def end(self) -> float:
        """Latest query timestamp in the group."""
        return self.queries[-1].query.timestamp

    def __str__(self) -> str:
        return (f"group({self.mac}, bucket {self.bucket}, "
                f"{len(self.queries)} queries)")


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """The full execution plan of one batch.

    Groups are ordered by (bucket, device): execution sweeps the
    timeline front to back at bucket granularity (inside one bucket,
    one device's queries run together even if another device's queries
    have earlier timestamps).  Iterating the plan's groups and each
    group's queries yields the canonical execution order.
    """

    groups: tuple[QueryGroup, ...]

    def __len__(self) -> int:
        return sum(len(group) for group in self.groups)

    @property
    def group_count(self) -> int:
        """Number of (device, bucket) groups."""
        return len(self.groups)

    def ordered(self) -> list[PlannedQuery]:
        """Every planned query in execution order."""
        return [planned for group in self.groups
                for planned in group.queries]

    def ordered_queries(self) -> list[LocationQuery]:
        """Execution-order queries — the sequential-equivalence reference.

        Running ``locate`` once per entry of this list on a fresh system
        produces exactly the answers ``locate_batch`` returns (modulo the
        return ordering, which follows the input instead).
        """
        return [planned.query for planned in self.ordered()]

    def stats(self) -> dict[str, float]:
        """Plan shape summary (for logs and tests)."""
        sizes = [len(group) for group in self.groups] or [0]
        return {
            "queries": float(len(self)),
            "groups": float(len(self.groups)),
            "max_group": float(max(sizes)),
            "mean_group": sum(sizes) / max(len(self.groups), 1),
        }


def plan_queries(queries: "Iterable[LocationQuery] | Sequence[LocationQuery]"
                 ) -> QueryPlan:
    """Group ``queries`` by (device, time bucket) into an execution plan.

    The plan is deterministic: groups are sorted by (bucket, mac) and
    queries inside a group by (timestamp, input index), so duplicate
    (mac, timestamp) queries keep their input order — which is what lets
    storage-backed duplicate short-circuiting behave exactly as in the
    sequential path.

    Args:
        queries: The batch, in caller order.
    """
    grouped: dict[tuple[int, str], list[PlannedQuery]] = {}
    for index, query in enumerate(queries):
        bucket = int(math.floor(query.timestamp / BUCKET_SECONDS))
        grouped.setdefault((bucket, query.mac), []).append(
            PlannedQuery(index=index, query=query))
    groups = []
    for (bucket, mac) in sorted(grouped):
        members = sorted(grouped[(bucket, mac)],
                         key=lambda p: (p.query.timestamp, p.index))
        groups.append(QueryGroup(mac=mac, bucket=bucket,
                                 queries=tuple(members)))
    return QueryPlan(groups=tuple(groups))
