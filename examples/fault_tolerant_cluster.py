"""A supervised cluster surviving worker kills, hangs and quarantine.

Run with::

    python examples/fault_tolerant_cluster.py

Passing ``recovery=RecoveryPolicy(...)`` to :class:`repro.ShardedLocater`
puts a supervisor between the cluster and its executor: dead or hung
shard workers are detected (broken pipes, exit-code forensics, call
timeouts), resurrected deterministically — factory rebuild, cache
restored from the last checkpoint, only the failed shard's slice
re-dispatched — and quarantined once their restart budget runs out,
degrading only their own devices.

The demo scripts every failure with the deterministic fault-injection
harness (:class:`repro.FaultPlan` / :class:`repro.FaultInjectingExecutor`),
the same machinery the chaos test suite uses, so each scenario is
reproducible: first a SIGKILL mid-workload that recovery absorbs with
bitwise-identical answers and cache counters, then a kill storm that
exhausts the budget and shows graceful degradation.
"""

from __future__ import annotations

from collections import Counter

from repro import (
    Fault,
    FaultInjectingExecutor,
    FaultPlan,
    Locater,
    ProcessShardExecutor,
    RecoveryPolicy,
    ShardedLocater,
    ShardQuarantinedError,
)
from repro.eval.queries import generated_query_set
from repro.sim.scenarios import isolated_campus_dataset


def main() -> None:
    # 1. Three isolated buildings → three affinity components, so the
    #    cluster's component routing genuinely spreads devices over the
    #    shards and a kill takes down a real slice of the population.
    dataset = isolated_campus_dataset(buildings=3, population=24,
                                      days=3, seed=17)
    queries = generated_query_set(dataset, count=60, seed=5)
    halves = [queries[:30], queries[30:]]
    print(f"campus  : {dataset.table.device_count} devices, "
          f"{len(dataset.table)} events, {len(queries)} queries")

    # A healthy in-process control cluster routes exactly like the
    # supervised ones below: it names the victim and, replaying the
    # dispatch sequence the survivors will see — full batch, then the
    # survivors-only batch — gives the bitwise oracle for step 4.
    with ShardedLocater(dataset.building, dataset.metadata,
                        dataset.table, shard_count=4) as control:
        victim = Counter(control.shard_of(query.mac)
                         for query in queries).most_common(1)[0][0]
        survivors = [query for query in queries
                     if control.shard_of(query.mac) != victim]
        control.locate_batch(queries)
        expected_survivors = control.locate_batch(survivors)
    print(f"victim  : shard {victim} (busiest under the workload)\n")

    # 2. The oracle: a lone system serving the same two batches.
    lone = Locater(dataset.building, dataset.metadata, dataset.table)
    expected = [lone.locate_batch(half) for half in halves]

    # 3. SIGKILL mid-workload, absorbed.  The fault plan kills the
    #    busiest shard's worker right before its second batch dispatch;
    #    supervision resurrects it (re-fork + checkpoint restore) and
    #    re-dispatches only its slice.
    plan = FaultPlan([Fault(shard_id=victim, kind="kill",
                            method="locate_batch", call_index=1)])
    with ShardedLocater(dataset.building, dataset.metadata,
                        dataset.table, shard_count=4,
                        executor=FaultInjectingExecutor(
                            ProcessShardExecutor(), plan),
                        recovery=RecoveryPolicy(max_restarts=2,
                                                backoff=(0.0,))
                        ) as cluster:
        answers = [cluster.locate_batch(half) for half in halves]
        assert answers == expected
        assert cluster.cache_stats().total == lone.cache.stats()
        [episode] = cluster.recovery_events
        print(f"kill    : shard {episode.shard_id} "
              f"({episode.error.split('(')[-1].rstrip(')')})")
        print(f"recovery: {episode.outcome} in "
              f"{episode.duration_seconds * 1e3:.1f} ms "
              f"(restart {episode.restarts} of 2)")
        print("answers and summed cache counters: bitwise identical "
              "to the lone system\n")

    # 4. Budget exhausted → quarantine.  Three kills against a budget
    #    of one: the shard is retired for good and only *its* devices
    #    degrade (here: a typed error naming them; fallback mode would
    #    serve them from a parent-side cache-less Locater instead).
    storm = FaultPlan([Fault(shard_id=victim, kind="kill",
                             method="locate_batch", call_index=index)
                       for index in range(3)])
    with ShardedLocater(dataset.building, dataset.metadata,
                        dataset.table, shard_count=4,
                        executor=FaultInjectingExecutor(
                            ProcessShardExecutor(), storm),
                        recovery=RecoveryPolicy(max_restarts=1,
                                                backoff=(0.0,),
                                                degraded="error")
                        ) as cluster:
        try:
            cluster.locate_batch(queries)
        except ShardQuarantinedError as exc:
            print(f"storm   : {exc}")
        print(f"quarantined shards: {sorted(cluster.quarantined)}")
        served = cluster.locate_batch(survivors)
        assert served == expected_survivors
        print(f"survivors: {len(served)}/{len(queries)} queries still "
              f"served, bitwise identical to a healthy cluster")


if __name__ == "__main__":
    main()
