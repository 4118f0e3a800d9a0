"""Benchmark of §5 caching under component-routed sharding.

Workload: the isolated campus (three disjoint building populations →
three affinity components) served with the caching engine off and on at
1, 2 and 4 shards, each routed the cluster's way (by co-presence
component with caching on, by MAC hash with caching off) and costed
like Fig. 12 (D-LOCATER, per-query affinity mining, cross-query
memoization off).  The experiment raises if any cluster's answers —
or, with caching on, its summed cache counters — differ from the
matching lone system, so no reported number is bought with divergence.

Assertion style follows the Fig. 12 bench: the deterministic signals
are asserted hard (bitwise identity, cache accounting, hit rate — all
exactly reproducible), while the wall-clock on/off ratio gets only a
loose sanity bound that tolerates container timing noise.

Besides the human-readable table archived by ``report``, this bench
emits ``results/BENCH_cluster_caching.json``: the machine-readable
(config, shard count, hit rate, speedup) record downstream tooling
consumes.
"""

from __future__ import annotations

from repro.eval.experiments import cluster_caching


def test_bench_cluster_caching(benchmark, report, bench_json):
    result = benchmark.pedantic(
        lambda: cluster_caching.run(buildings=3, population=36, days=10,
                                    labeled_per_device=4, generated=120,
                                    shard_counts=(1, 2, 4), seed=17),
        rounds=1, iterations=1)
    report("bench_cluster_caching", result.render())
    bench_json("cluster_caching", result,
               config={"buildings": 3, "population": 36, "days": 10,
                       "labeled_per_device": 4, "generated": 120,
                       "shard_counts": [1, 2, 4], "seed": 17})

    assert result.all_identical
    assert len(result.runs) == 6  # 3 shard counts × caching off/on
    assert result.workload["buildings"] == result.component_count == 3
    lone_rate = None
    for shards in (1, 2, 4):
        on = result.run_for(shards, caching=True)
        # The warm graph answers most repeat lookups — even though the
        # caches are partitioned over shards.  The rate is exactly the
        # lone system's (cache accounting is part of the experiment's
        # identity contract), so it is identical at every shard count.
        assert on.hit_rate is not None and on.hit_rate >= 0.5
        lone_rate = on.hit_rate if lone_rate is None else lone_rate
        assert on.hit_rate == lone_rate
        # Wall-clock sanity on caching on vs off at equal shard count
        # (loose, like the Fig. 12 bench: container timing noise).
        assert result.speedup(shards) >= 0.6, (
            f"caching overhead out of band at {shards} shards: "
            f"{result.speedup(shards):.2f}x")
