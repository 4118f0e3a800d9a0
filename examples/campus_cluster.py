"""A campus served by a shard cluster, with streaming ingest.

Run with::

    python examples/campus_cluster.py

Three corridor buildings — disjoint AP vocabularies, commuter devices
crossing between them — are served by a 4-shard
:class:`repro.ShardedLocater` with the caching engine off.  The cluster
routes devices itself: with caching off, answers are pure functions of
the table, so devices spread over the shards by a stable hash of their
MAC.  (With caching on it routes by co-presence component instead, and
the commuters join this campus into one component, so one shard would
own it all.)  Each shard persists its answers under its own namespace
of one shared storage backend, and a simulated live day streams in
through ``cluster.ingest``: one merge into the authoritative table,
each slice of the dirty stream persisted under its shard's namespace,
and every shard invalidating what the merge staled at its next serve.
"""

from __future__ import annotations

from collections import Counter

from repro import (
    InMemoryStorage,
    LocaterConfig,
    ScenarioSpec,
    ShardedLocater,
    Simulator,
)
from repro.events.table import EventTable
from repro.events.validity import DeltaEstimator
from repro.sim.scenarios import streaming_day_workload
from repro.util.timeutil import format_timestamp


def main() -> None:
    # 1. Simulate the campus: 3 buildings, residents plus commuters.
    dataset = Simulator(ScenarioSpec.campus(seed=42, population=48,
                                            buildings=3)).run(days=6)
    workload = streaming_day_workload(dataset, batches=6,
                                      queries_per_burst=8, seed=42)
    building = dataset.building
    print(f"campus   : {len(building.rooms)} rooms, "
          f"{len(building.access_points)} APs in 3 buildings")
    print(f"warm-up  : {len(workload.warmup)} events over 5 days")
    print(f"live day : {workload.event_count - len(workload.warmup)} "
          f"events in {len(workload.batches)} ticks\n")

    # 2. Stand the cluster up on the warm-up history.  Caching off:
    #    every device routes by a stable hash of its MAC, for good.
    table = EventTable.from_events(workload.warmup)
    DeltaEstimator().fit_table(table)
    storage = InMemoryStorage()
    cluster = ShardedLocater(building, dataset.metadata, table,
                             shard_count=4,
                             config=LocaterConfig(use_caching=False),
                             storage=storage)
    load = Counter(cluster.shard_of(mac) for mac in table.macs())
    print("shard load:", dict(sorted(load.items())))
    with ShardedLocater(building, dataset.metadata, table,
                        shard_count=4) as caching:
        owners = {caching.shard_of(mac) for mac in table.macs()}
    print(f"caching on would use {len(owners)} of 4 shards: commuters "
          "join the campus into one co-presence component\n")

    # 3. The serve loop: one cluster.ingest per tick (merge once), then
    #    the burst routed to the owning shards, which catch up first.
    for batch in workload.batches:
        report = cluster.ingest(batch.ingest)
        answers = cluster.locate_batch(batch.queries)
        print(f"tick {batch.index}: +{report.count} events, "
              f"{len(report.changed)} devices changed")
        for answer in answers[:2]:
            shard = cluster.shard_of(answer.query.mac)
            print(f"  [shard {shard}] {answer.query.mac} @ "
                  f"{format_timestamp(answer.query.timestamp)} → "
                  f"{answer.location_label}")

    # 4. Every shard kept its answers in its own namespace of the one
    #    shared backend.
    print("\nper-shard state:")
    for stats in cluster.shard_stats():
        print(f"  shard {stats['shard_id']}: {stats['events']} events, "
              f"{stats['devices']} devices")
    print(f"stored raw events: {storage.event_count()} "
          "(each exactly once, partitioned by owner)")
    cluster.close()


if __name__ == "__main__":
    main()
