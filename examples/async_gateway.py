"""Concurrent serving through the async gateway.

Run with::

    python examples/async_gateway.py

A population of concurrent callers — dashboards, contact-tracing jobs,
facilities scripts — each awaits one ``locate`` at a time.  Fronting
the shard cluster with :class:`repro.AsyncGateway` coalesces whatever
those callers submit inside a small batching window into per-shard
micro-batches, so the planner's shared computation and the shards'
warm state amortize across callers instead of being paid per query.
The example then pushes an open-loop burst far past the service rate
to show admission control shedding load with typed errors while the
pending queue stays bounded.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter

from repro import (
    AsyncGateway,
    GatewayOverloadedError,
    ScenarioSpec,
    ShardedLocater,
    Simulator,
)
from repro.sim.scenarios import closed_loop_clients, open_loop_arrivals
from repro.util.timeutil import format_timestamp


async def serve_closed_loop(gateway: AsyncGateway, streams) -> float:
    """Each client awaits its answer before asking the next question."""

    async def client(stream):
        for query in stream:
            await gateway.locate(query.mac, query.timestamp)

    begin = time.perf_counter()
    await asyncio.gather(*(client(stream) for stream in streams))
    return time.perf_counter() - begin


async def saturate(gateway: AsyncGateway, schedule) -> tuple[int, int]:
    """Submit an open-loop burst; count served vs shed."""
    served = 0
    shed = 0

    async def submit(query):
        nonlocal served, shed
        try:
            await gateway.locate_query(query)
            served += 1
        except GatewayOverloadedError:
            shed += 1

    await asyncio.gather(*(submit(q) for q in schedule.queries))
    return served, shed


async def main() -> None:
    # 1. Simulate a building and stand a 2-shard cluster on it.
    dataset = Simulator(ScenarioSpec.dbh_like(seed=42,
                                              population=20)).run(days=6)
    cluster = ShardedLocater(dataset.building, dataset.metadata,
                             dataset.table, shard_count=2)
    print(f"dataset : {len(dataset.macs())} devices, "
          f"{len(dataset.table)} events over 6 days")
    load = Counter(cluster.shard_of(mac) for mac in dataset.macs())
    print(f"cluster : {cluster.shard_count} shards behind one gateway, "
          f"devices per shard {dict(sorted(load.items()))}")
    print("          (caching on: the building is one co-presence "
          "component, served whole by one shard)\n")

    # 2. Serve 24 concurrent closed-loop clients through a 2 ms
    #    batching window.  Every caller just awaits `locate`; the
    #    gateway coalesces whatever arrives inside the window into
    #    per-shard micro-batches.
    streams = closed_loop_clients(dataset, clients=24,
                                  queries_per_client=6, seed=42)
    async with AsyncGateway(cluster, max_wait=0.002,
                            max_batch=64) as gateway:
        wall = await serve_closed_loop(gateway, streams)
        stats = gateway.stats()
        print(f"served {stats.completed} queries from 24 clients "
              f"in {wall * 1000.0:.0f} ms")
        print(f"  windows executed : {stats.windows} "
              f"(coalescing {stats.coalescing:.1f} queries/window, "
              f"largest {stats.coalesced_max})")

        # 3. One caller's view: plain awaited answers.
        mac = dataset.macs()[0]
        span = dataset.span
        t = span.start + 0.6 * (span.end - span.start)
        answer = await gateway.locate(mac, t)
        print(f"  {mac} @ {format_timestamp(t)} → "
              f"{answer.location_label}\n")

        # 4. Live ingest through the same surface: serialized against
        #    every in-flight window, so the table never changes under
        #    a half-executed batch.
        report = await gateway.ingest([])
        print(f"ingest tick merged {report.count} events "
              f"(gateway serialized it against in-flight windows)\n")

    # 5. Saturation: a Poisson burst far past the service rate against
    #    a small admission bound.  The gateway sheds with typed
    #    GatewayOverloadedError instead of queueing without bound.
    schedule = open_loop_arrivals(dataset, rate_per_second=50_000.0,
                                  count=256, seed=7)
    async with AsyncGateway(cluster, max_wait=0.02, max_batch=16,
                            max_pending=32) as gateway:
        served, shed = await saturate(gateway, schedule)
        stats = gateway.stats()
        print(f"burst of {len(schedule.queries)} queries at "
              f"~{schedule.offered_rate:,.0f}/s against max_pending=32:")
        print(f"  served {served}, shed {shed} (typed rejections)")
        print(f"  pending peak {stats.pending_peak} <= 32 bound: "
              f"{stats.pending_peak <= 32}")

        # 6. Cooperative backpressure: ready() blocks while admission
        #    is closed, so a polite client waits instead of retrying.
        await gateway.ready()
        answer = await gateway.locate(mac, t)
        print(f"  after ready(): admission reopened, "
              f"{mac} → {answer.location_label}")

    cluster.close()


if __name__ == "__main__":
    asyncio.run(main())
