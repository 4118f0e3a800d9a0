"""Cluster caching experiment: §5 caching under component routing.

The isolated-campus workload (disjoint per-building populations, so the
potential co-presence graph has one affinity component per building —
see :func:`~repro.sim.scenarios.isolated_campus_dataset`) is served at
several shard counts with the caching engine off and on, routed as the
cluster routes by default: by co-presence component with caching on
(:class:`~repro.cluster.ComponentAffinityRouter`), by a stable hash of
the MAC with caching off.  Two contracts are enforced before any number
is reported, each against the matching lone
:class:`~repro.system.locater.Locater`:

* **bitwise identity** — per caching setting, every cluster answers
  exactly what the lone system answers (component routing makes the
  per-shard caches exact, so this holds with caching ON too);
* **cache accounting** — with caching on, the shards' counters summed
  equal the lone engine's counters: the cluster performed the same
  cache traffic, merely partitioned.

What is *measured* is the speed half of Figs. 9/12 under sharding,
with Fig. 12's cost model (D-LOCATER, affinities re-derived from
history per query, cross-query memoization off, so the caching engine
is the only amortization in play): per shard count, the wall-clock
caching-on vs caching-off ratio (cluster overhead cancels — both arms
pay it) and the cluster-wide hit rate.  As with Fig. 12, the hit rate
and the exactness contracts are the deterministic signals; wall-clock
ratios on workloads this size carry container timing noise and are
reported for shape, not asserted tightly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from collections.abc import Sequence

from repro.cluster import ComponentAffinityRouter, ShardedLocater
from repro.errors import ReproError
from repro.eval.queries import generated_query_set, labeled_query_set
from repro.eval.reporting import format_table
from repro.fine.localizer import FineMode
from repro.sim.scenarios import isolated_campus_dataset
from repro.system.config import LocaterConfig
from repro.system.locater import Locater


def _config(use_caching: bool) -> LocaterConfig:
    # Fig. 12's cost model: dependent fine mode, history re-mined per
    # query, so cached neighbor order + caps are the only shortcut.
    return LocaterConfig(fine_mode=FineMode.DEPENDENT,
                         use_caching=use_caching,
                         reuse_affinity_cache=False)


@dataclass(slots=True)
class CachingRun:
    """Measured outcome of one (shard count, caching setting) pair."""

    shards: int
    caching: bool
    seconds: float
    identical: bool
    hits: int
    misses: int

    @property
    def hit_rate(self) -> "float | None":
        """Cache hit rate, or None when caching was off (or saw no
        traffic)."""
        lookups = self.hits + self.misses
        if not self.caching or lookups == 0:
            return None
        return self.hits / lookups

    def qps(self, queries: int) -> float:
        return queries / max(self.seconds, 1e-12)


@dataclass(slots=True)
class ClusterCachingResult:
    """Caching on vs off at every shard count, plus workload shape."""

    runs: list[CachingRun]
    query_count: int
    event_count: int
    device_count: int
    component_count: int
    cpu_count: int
    workload: dict

    @property
    def all_identical(self) -> bool:
        """Whether every run matched its lone counterpart bitwise."""
        return all(run.identical for run in self.runs)

    def run_for(self, shards: int, caching: bool) -> CachingRun:
        for run in self.runs:
            if run.shards == shards and run.caching == caching:
                return run
        raise KeyError((shards, caching))

    def speedup(self, shards: int) -> float:
        """Caching-off time over caching-on time at one shard count."""
        off = self.run_for(shards, caching=False)
        on = self.run_for(shards, caching=True)
        return off.seconds / max(on.seconds, 1e-12)

    def render(self) -> str:
        """Fig. 9/12-style table: caching's serving effect per shard count."""
        rows = []
        for run in self.runs:
            rate = run.hit_rate
            rows.append([
                run.shards, "on" if run.caching else "off",
                f"{run.seconds:.2f}", f"{run.qps(self.query_count):.0f}",
                "-" if rate is None else f"{rate:.2f}",
                f"{self.speedup(run.shards):.2f}x" if run.caching else "-",
                "yes" if run.identical else "NO"])
        table = format_table(
            ["shards", "caching", "seconds", "qps", "hit rate",
             "speedup", "identical"], rows,
            title=(f"Cluster caching: {self.query_count} queries, "
                   f"{self.component_count} components, "
                   f"{self.device_count} devices, "
                   f"{self.event_count} events, "
                   f"{self.cpu_count} cpu(s)"))
        return (f"{table}\n"
                f"answers identical to lone system: {self.all_identical}")

    def to_json(self) -> dict:
        """Machine-readable mirror of :meth:`render` (one dict per run)."""
        return {
            "experiment": "cluster_caching",
            "workload": dict(self.workload,
                             query_count=self.query_count,
                             event_count=self.event_count,
                             device_count=self.device_count,
                             component_count=self.component_count,
                             cpu_count=self.cpu_count),
            "runs": [{
                "shards": run.shards,
                "caching": run.caching,
                "seconds": round(run.seconds, 4),
                "qps": round(run.qps(self.query_count), 1),
                "hit_rate": run.hit_rate,
                "speedup_vs_caching_off":
                    round(self.speedup(run.shards), 3)
                    if run.caching else None,
                "identical": run.identical,
            } for run in self.runs],
        }


def run(buildings: int = 3, population: int = 36, days: int = 10,
        labeled_per_device: int = 4, generated: int = 120,
        shard_counts: Sequence[int] = (1, 2, 4),
        seed: int = 17) -> ClusterCachingResult:
    """Serve the isolated campus with caching off and on per shard count.

    Raises :class:`~repro.errors.ReproError` on any divergence from the
    matching lone baseline (answers, or cache totals with caching on) —
    no speedup is ever bought with divergence.
    """
    dataset = isolated_campus_dataset(buildings=buildings,
                                      population=population, days=days,
                                      seed=seed)
    queries = labeled_query_set(dataset, per_device=labeled_per_device,
                                seed=seed + 1)
    queries += generated_query_set(dataset, count=generated,
                                   seed=seed + 2)

    expected: dict[bool, list] = {}
    lone_stats: "dict | None" = None
    for caching in (False, True):
        lone = Locater(dataset.building, dataset.metadata, dataset.table,
                       config=_config(caching))
        expected[caching] = lone.locate_batch(queries,
                                              share_computation=False)
        if caching:
            lone_stats = lone.cache.stats()

    runs: list[CachingRun] = []
    for shards in shard_counts:
        for caching in (False, True):
            with ShardedLocater(
                    dataset.building, dataset.metadata, dataset.table,
                    shard_count=shards,
                    config=_config(caching)) as cluster:
                start = time.perf_counter()
                answers = cluster.locate_batch(queries,
                                               share_computation=False)
                seconds = time.perf_counter() - start
                totals = cluster.cache_stats().total
            identical = answers == expected[caching] and \
                (not caching or totals == lone_stats)
            runs.append(CachingRun(
                shards=shards, caching=caching, seconds=seconds,
                identical=identical,
                hits=totals["hits"] if caching else 0,
                misses=totals["misses"] if caching else 0))
            if not identical:
                raise ReproError(
                    f"cluster ({shards} shards, caching="
                    f"{'on' if caching else 'off'}) diverged from the "
                    f"lone Locater")

    router = ComponentAffinityRouter.from_table(dataset.table,
                                                dataset.building)
    component_count = len({router.representative(mac)
                           for mac in dataset.macs()})
    return ClusterCachingResult(
        runs=runs, query_count=len(queries),
        event_count=dataset.event_count(),
        device_count=dataset.table.device_count,
        component_count=component_count,
        cpu_count=os.cpu_count() or 1,
        workload={"buildings": buildings, "population": population,
                  "days": days, "seed": seed,
                  "shard_counts": list(shard_counts),
                  "cost_model": "dependent, per-query affinity mining, "
                                "no cross-query memoization"})
