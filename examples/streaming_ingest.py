"""Streaming ingestion: keep served answers fresh as events arrive.

Run with::

    python examples/streaming_ingest.py

LOCATER is a live system (paper Fig. 5): association events stream in
from the wireless controllers while location queries keep arriving.
This example replays a simulated day as interleaved ingest ticks and
query bursts through a :class:`repro.StreamingSession` — each tick
merges the new events into the running table in O(new), and the next
burst's locater sees the table's generation moved and surgically
invalidates exactly the trained models and memos those events staled,
so every burst is answered fresh without ever rebuilding the system.
"""

from __future__ import annotations

from repro import IngestionEngine, Locater, LocaterConfig, ScenarioSpec, \
    Simulator, StreamingSession
from repro.events.table import EventTable
from repro.sim.scenarios import streaming_day_workload
from repro.util.timeutil import format_timestamp


def main() -> None:
    # 1. Simulate a week of history plus one more day that will be
    #    replayed live.
    dataset = Simulator(ScenarioSpec.dbh_like(seed=42,
                                              population=20)).run(days=8)
    workload = streaming_day_workload(dataset, batches=8,
                                      queries_per_burst=5, seed=42)
    print(f"warm-up  : {len(workload.warmup)} events over 7 days")
    print(f"live day : {workload.event_count - len(workload.warmup)} "
          f"events in {len(workload.batches)} ticks, "
          f"{workload.query_count} queries\n")

    # 2. Stand the system up on the warm-up history.  The ingestion
    #    engine and the locater share one event table and nothing else:
    #    the locater pulls its freshness from the table at every query.
    table = EventTable()
    engine = IngestionEngine(table)
    engine.ingest(workload.warmup)
    locater = Locater(dataset.building, dataset.metadata, table,
                      config=LocaterConfig())
    session = StreamingSession(locater, engine)

    # 3. The serve loop: ingest a tick, answer the burst — three lines.
    for batch in workload.batches:
        report = session.ingest(batch.ingest)
        answers = session.query(batch.queries)
        window = (f"{format_timestamp(batch.interval.start)} – "
                  f"{format_timestamp(batch.interval.end)}")
        print(f"tick {batch.index}: [{window}] +{report.count} events, "
              f"{len(report.changed)} device(s) changed")
        for answer in answers[:2]:
            print(f"  {answer.query.mac} @ "
                  f"{format_timestamp(answer.query.timestamp)} → "
                  f"{answer.location_label}")

    print(f"\ningests  : {len(workload.batches)} "
          f"({session.full_invalidations} full invalidation(s) — the "
          "first live tick extends the table's day range; the rest "
          "invalidate surgically)")


if __name__ == "__main__":
    main()
