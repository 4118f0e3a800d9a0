"""Batch query engine: answer thousands of queries with shared work.

Run with::

    python examples/batch_queries.py

Verify the repo first (tier-1)::

    PYTHONPATH=src python -m pytest -x -q

Demonstrates the batch API end to end: plan an occupancy-grid workload
with :func:`repro.plan_queries`, answer it in one
:meth:`~repro.Locater.locate_batch` call, compare wall-clock against the
per-query loop (the answers are bitwise identical — enforced by
``tests/integration/test_batch_equivalence.py``), and warm-start a fresh
caching engine by replaying the run's local graphs through
:meth:`~repro.CachingEngine.record`.
"""

from __future__ import annotations

import time

from repro import (
    CachingEngine,
    Locater,
    LocationQuery,
    ScenarioSpec,
    Simulator,
    plan_queries,
)


def main() -> None:
    # 1. Simulate a DBH-like dataset and build two identical systems.
    dataset = Simulator(
        ScenarioSpec.dbh_like(seed=42, population=16)).run(days=5)
    span = dataset.span

    # 2. An analytics-style workload: every device, every 30 minutes —
    #    the access pattern of occupancy/HVAC and trajectory workloads.
    step = 30 * 60.0
    grid = [span.start + i * step
            for i in range(int(span.duration // step))]
    queries = [LocationQuery(mac=mac, timestamp=t)
               for t in grid for mac in dataset.macs()]

    # 3. Inspect the plan: queries grouped by (device, hour bucket),
    #    executed front-to-back in time so the caching engine warms
    #    chronologically.
    plan = plan_queries(queries)
    stats = plan.stats()
    print(f"workload : {len(queries)} queries over {len(grid)} slots")
    print(f"plan     : {int(stats['groups'])} groups, "
          f"mean {stats['mean_group']:.1f} queries/group")

    # 4. Per-query loop vs one batched pass.
    sequential = Locater(dataset.building, dataset.metadata, dataset.table)
    start = time.perf_counter()
    seq_answers = [sequential.locate(q.mac, q.timestamp)
                   for q in plan.ordered_queries()]
    seq_s = time.perf_counter() - start

    batch = Locater(dataset.building, dataset.metadata, dataset.table)
    start = time.perf_counter()
    answers = batch.locate_batch(queries)
    bat_s = time.perf_counter() - start

    inside = sum(1 for a in answers if a.inside)
    print(f"answers  : {inside}/{len(answers)} inside the building")
    print(f"loop     : {seq_s:.2f}s ({len(queries) / seq_s:.0f} q/s)")
    print(f"batch    : {bat_s:.2f}s ({len(queries) / bat_s:.0f} q/s, "
          f"{seq_s / bat_s:.2f}x)")

    # Same answers, same cache counters — batching shares work, it never
    # changes results.
    ordered = plan.ordered()
    assert all(answers[p.index] == a for p, a in zip(ordered, seq_answers))
    assert batch.cache.stats() == sequential.cache.stats()

    # 5. Warm-start a fresh caching engine by replaying the edge
    #    weights this run computed (e.g. from a persisted answer
    #    journal), in answer order — new deployments start with a hot
    #    cache.
    warmed = CachingEngine()
    merged = 0
    for a in answers:
        if a.fine is not None and a.fine.edge_weights:
            warmed.record(a.query.mac, a.query.timestamp,
                          a.fine.edge_weights)
            merged += 1
    print(f"warmup   : replayed {merged} local graphs -> "
          f"{warmed.stats()['edges']} cached edges")


if __name__ == "__main__":
    main()
