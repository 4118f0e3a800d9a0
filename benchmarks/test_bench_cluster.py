"""Benchmark of the sharded cluster layer on the campus workload.

Workload: one 600-query batch over a seeded, deterministic 3-building
campus (48 devices, cross-building commuters), served by a lone
``Locater`` and by every (shard count, executor) combination of
``ShardedLocater`` — serial and process shards, caching off, so devices
spread by a stable hash of their MAC.

The experiment itself raises if any configuration's answers are not
bitwise identical to the lone system, so no reported throughput is
bought with divergence.  Scaling is real only where the hardware
provides cores: the process executor parallelizes across them — so the
hard speedup bar applies only on multi-core hosts, and single-core runs
instead enforce an overhead ceiling (partition + dispatch + pickling
must stay a small multiple of the baseline).
"""

from __future__ import annotations

import os

from repro.eval.experiments import cluster_scaling


def test_bench_cluster(benchmark, report, bench_json):
    result = benchmark.pedantic(
        lambda: cluster_scaling.run(days=6, population=48, buildings=3,
                                    queries=600, shard_counts=(1, 2, 4),
                                    seed=17),
        rounds=1, iterations=1)
    report("bench_cluster", result.render())
    bench_json("cluster_scaling", result,
               config={"days": 6, "population": 48, "buildings": 3,
                       "queries": 600, "shard_counts": [1, 2, 4],
                       "seed": 17})

    assert result.all_identical
    # Full sweep: 2 executors × 3 shard counts.
    assert len(result.runs) == 6

    best_process = result.best("process")
    assert best_process is not None
    process_speedup = result.speedup(best_process)
    cpus = os.cpu_count() or 1
    if cpus >= 2:
        # With real cores, forked shards must actually scale.
        assert process_speedup >= 1.2, (
            f"process shards should beat the lone system on {cpus} cpus, "
            f"got {process_speedup:.2f}x")
    # On any host, cluster plumbing (partition, dispatch, pipe pickling)
    # must stay within a small constant factor of the lone system.
    for run in result.runs:
        assert result.speedup(run) >= 0.25, (
            f"{run.shards}-shard {run.executor} cluster overhead too "
            f"high: {result.speedup(run):.2f}x vs lone")
