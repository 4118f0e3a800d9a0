"""A sharded cluster serving with the §5 caching engine ON.

Run with::

    python examples/cluster_caching.py

Per-shard caching is exact only if every device that can ever share an
affinity edge with a queried device lives on the queried device's
shard.  With caching on (the default), :class:`repro.ShardedLocater`
guarantees that itself: it routes whole connected components of the
potential co-presence graph (devices whose observed APs cover
intersecting rooms) to one shard, so the cluster answers bitwise
exactly like a lone :class:`repro.Locater` — no router to pick.

This example builds an isolated campus (three buildings that never
exchange devices → three affinity components), serves a query batch
with caching on, and then bridges two buildings mid-stream: the
component merge re-keys one building's devices, and the cluster
migrates their recorded cache edges to the new owning shard so the
answers — and the summed cache counters — still match the lone system.
"""

from __future__ import annotations

from collections import Counter

from repro import ConnectivityEvent, Locater, ShardedLocater
from repro.eval.queries import generated_query_set, labeled_query_set
from repro.system.ingestion import IngestionEngine
from repro.sim.scenarios import isolated_campus_dataset


def main() -> None:
    # 1. Three isolated buildings: the co-presence graph has exactly
    #    one component per building, so components spread over shards.
    dataset = isolated_campus_dataset(buildings=3, population=24,
                                      days=3, seed=17)
    queries = labeled_query_set(dataset, per_device=2, seed=2)
    queries += generated_query_set(dataset, count=60, seed=5)
    print(f"campus  : {dataset.table.device_count} devices, "
          f"{len(dataset.table)} events")

    # 2. A lone system is the oracle — caching on is the default.
    lone_table = dataset.table.restrict(dataset.table.span())
    lone = Locater(dataset.building, dataset.metadata, lone_table)
    lone_engine = IngestionEngine(lone_table)

    # 3. The cluster, with its defaults: caching on, so it routes by
    #    co-presence component.
    table = dataset.table.restrict(dataset.table.span())
    cluster = ShardedLocater(dataset.building, dataset.metadata, table,
                             shard_count=4)
    load = Counter(cluster.shard_of(mac) for mac in table.macs())
    print(f"router  : {cluster.router}")
    print("shards  :", dict(sorted(load.items())), "\n")

    # 4. Serve with warm caches: answers and *summed* cache counters
    #    match the lone deployment exactly.
    assert cluster.locate_batch(queries) == lone.locate_batch(queries)
    stats = cluster.cache_stats()
    print("cache per shard:", [s and f"{s['hits']}h/{s['misses']}m"
                               for s in stats.per_shard])
    print("cache total    :", stats.total)
    print("lone engine    :", lone.cache.stats())
    assert stats.total == lone.cache.stats()

    # 5. Bridge two buildings: a b0 device shows up at a b1 AP.  The
    #    merged component re-keys b1's devices; the cluster clears
    #    their stranded answers and migrates their cache edges, so the
    #    caches stay exact through the merge.
    bridge_mac = sorted(mac for mac in table.macs()
                        if mac.startswith("b0:"))[0]
    start = table.span().end + 120.0
    bridge = [ConnectivityEvent(timestamp=start + i * 30.0,
                                mac=bridge_mac, ap_id="b1-wap1")
              for i in range(3)]
    lone_engine.ingest(bridge)
    cluster.ingest(bridge)
    merged = cluster.router.component_of(bridge_mac)
    print(f"\nmerge   : {bridge_mac} bridged b0+b1 → "
          f"{len(merged)}-device component on shard "
          f"{cluster.shard_of(bridge_mac)}")
    assert cluster.locate_batch(queries) == lone.locate_batch(queries)
    assert cluster.cache_stats().total == lone.cache.stats()
    print("post-merge answers and cache totals still match the lone "
          "system")
    cluster.close()


if __name__ == "__main__":
    main()
