"""Async gateway experiment: batching-window sweep + admission control.

Three measurements over one simulated workload, all driven through
:class:`~repro.serve.gateway.AsyncGateway` on a caching-on sharded
cluster with **process shards** — the production wiring, where every
window dispatch is a pipe round-trip with pickling.  That per-window
cost is precisely what micro-batching amortizes: the per-query baseline
pays it once per query, a coalescing window once per batch.

* **Window sweep (closed loop)** — N concurrent clients, each awaiting
  its answer before submitting the next query, against several
  (max_wait, max_batch) settings plus the one-query-per-batch baseline.
  Each setting runs the workload twice through its own fresh cluster:
  an untimed warm-up pass (models trained, caches and memos warm), then
  the measured steady-state pass.  Without the warm-up, first-window
  coarse-training dominates every setting equally and masks the
  dispatch/window trade-off the sweep exists to expose.  Reports
  per-setting p50/p99 call latency, throughput and the realized
  coalescing factor — the batching-window/latency trade-off in numbers.
* **Equivalence replay** — every sweep run records its journal (warm-up
  windows included); the realized schedule is replayed through plain
  ``locate_batch`` calls on an identically built cluster and must
  reproduce every answer and the summed §5 cache counters bitwise.
  :func:`run` *raises* on divergence (the repo's raise-on-divergence
  convention): the throughput numbers are never bought with changed
  answers.
* **Load shedding (open loop)** — a Poisson arrival burst far past the
  service rate against a small admission bound.  The gateway must shed
  with typed :class:`~repro.errors.GatewayOverloadedError` while the
  pending queue stays bounded — rejections, not unbounded latency.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.executor import ProcessShardExecutor
from repro.cluster.sharded import ShardedLocater
from repro.errors import GatewayOverloadedError, ReproError
from repro.eval.experiments.common import dbh_dataset
from repro.eval.reporting import format_table
from repro.serve.gateway import AsyncGateway, IngestRecord, WindowRecord
from repro.sim.scenarios import closed_loop_clients, open_loop_arrivals


@dataclass(slots=True)
class SweepPoint:
    """One batching-window setting, measured under closed-loop load."""

    label: str
    max_wait_ms: float
    max_batch: int
    queries: int
    windows: int
    coalescing: float
    throughput_qps: float
    p50_ms: float
    p99_ms: float
    identical: bool


@dataclass(slots=True)
class ShedOutcome:
    """Open-loop saturation run against a small admission bound."""

    offered: int
    served: int
    shed: int
    max_pending: int
    pending_peak: int

    @property
    def bounded(self) -> bool:
        """Whether queue depth stayed within the admission bound."""
        return self.pending_peak <= self.max_pending


@dataclass(slots=True)
class GatewayResult:
    """Window sweep + shedding outcome; renders the trade-off table."""

    points: list[SweepPoint]
    shed: ShedOutcome
    clients: int
    shard_count: int

    @property
    def baseline_qps(self) -> float:
        """Throughput of the one-query-per-batch configuration."""
        return next(p.throughput_qps for p in self.points
                    if p.max_batch == 1)

    @property
    def best_qps(self) -> float:
        """Best coalesced throughput in the sweep."""
        return max(p.throughput_qps for p in self.points
                   if p.max_batch > 1)

    @property
    def coalescing_speedup(self) -> float:
        """Best coalesced throughput over the per-query baseline."""
        return self.best_qps / max(self.baseline_qps, 1e-12)

    @property
    def all_identical(self) -> bool:
        """Whether every sweep run replayed bitwise."""
        return all(p.identical for p in self.points)

    def render(self) -> str:
        rows = [[p.label, f"{p.max_wait_ms:.0f}", p.max_batch, p.queries,
                 p.windows, f"{p.coalescing:.1f}",
                 f"{p.throughput_qps:.0f}", f"{p.p50_ms:.1f}",
                 f"{p.p99_ms:.1f}", "yes" if p.identical else "NO"]
                for p in self.points]
        table = format_table(
            ["setting", "wait (ms)", "max batch", "queries", "windows",
             "coalesce", "qps", "p50 (ms)", "p99 (ms)", "identical"],
            rows,
            title=(f"Gateway window sweep — {self.clients} closed-loop "
                   f"clients over {self.shard_count} shards"))
        return (f"{table}\n"
                f"coalescing speedup {self.coalescing_speedup:.1f}x over "
                f"per-query dispatch | shedding: {self.shed.shed}/"
                f"{self.shed.offered} rejected typed, queue peak "
                f"{self.shed.pending_peak} <= bound "
                f"{self.shed.max_pending}: {self.shed.bounded}")


#: The sweep: the per-query baseline plus three coalescing windows.
WINDOW_SETTINGS = (
    ("per-query", 0.0, 1),
    ("drain", 0.0, 64),
    ("2ms", 0.002, 64),
    ("10ms", 0.010, 128),
)


def _make_cluster(dataset, shard_count: int) -> ShardedLocater:
    """A fresh caching-on process-shard cluster over the dataset's table.

    Process shards are the wiring where window dispatch has a real
    price (pipe + pickle per call) and where warm state lives
    worker-side: each attached shard's ``Locater`` keeps its memos
    across windows.  The table is never ingested into during the
    sweep, so every run (and every replay) starts from the identical
    authoritative state.
    """
    return ShardedLocater(
        dataset.building, dataset.metadata, dataset.table,
        shard_count=shard_count, executor=ProcessShardExecutor())


async def _closed_loop(gateway: AsyncGateway,
                       streams: "list[list]") -> "tuple[list[float], float]":
    """Drive per-client streams; returns (latencies_seconds, wall)."""
    latencies: list[float] = []

    async def client(stream) -> None:
        for query in stream:
            begin = time.perf_counter()
            await gateway.locate_query(query)
            latencies.append(time.perf_counter() - begin)

    begin = time.perf_counter()
    await asyncio.gather(*(client(stream) for stream in streams))
    return latencies, time.perf_counter() - begin


def _replay_identical(dataset, shard_count: int, journal,
                      expected_stats) -> bool:
    """Replay a realized schedule through plain ``locate_batch``.

    Builds a second, identical cluster and replays the journal in
    serialization order: every window as one plain ``locate_batch``
    call, every ingest tick through ``cluster.ingest``.  Every shard's
    ``Locater`` keeps its warm state across the calls, as the live
    cluster's did.  Bitwise-compares every answer and the summed cache
    counters.
    """
    with _make_cluster(dataset, shard_count) as cluster:
        for record in journal:
            if isinstance(record, IngestRecord):
                cluster.ingest(record.events)
            elif isinstance(record, WindowRecord):
                expected = cluster.locate_batch(list(record.queries))
                if list(record.answers) != expected:
                    return False
        return cluster.cache_stats().total == expected_stats.total


def run(days: int = 10, population: int = 24, shard_count: int = 2,
        clients: int = 48, queries_per_client: int = 12,
        seed: int = 23) -> GatewayResult:
    """Sweep batching windows, prove equivalence, drive past saturation.

    Raises :class:`~repro.errors.ReproError` if any sweep run's replay
    diverges — equivalence is the experiment's correctness contract.
    """
    dataset = dbh_dataset(days=days, population=population, seed=seed)
    streams = closed_loop_clients(dataset, clients=clients,
                                  queries_per_client=queries_per_client,
                                  seed=seed)
    total = clients * queries_per_client

    points: list[SweepPoint] = []
    for label, max_wait, max_batch in WINDOW_SETTINGS:
        with _make_cluster(dataset, shard_count) as cluster:
            gateway = AsyncGateway(cluster, max_wait=max_wait,
                                   max_batch=max_batch, journal=True)

            async def drive(gw=gateway):
                async with gw:
                    await _closed_loop(gw, streams)  # warm-up pass
                    warm = gw.stats()
                    measured = await _closed_loop(gw, streams)
                    return measured, warm

            (latencies, wall), warm = asyncio.run(drive())
            stats = gateway.stats()
            windows = stats.windows - warm.windows
            identical = _replay_identical(
                dataset, shard_count, gateway.journal,
                cluster.cache_stats())
        latencies_ms = np.asarray(latencies) * 1000.0
        points.append(SweepPoint(
            label=label, max_wait_ms=max_wait * 1000.0,
            max_batch=max_batch, queries=total, windows=windows,
            coalescing=total / max(windows, 1),
            throughput_qps=total / max(wall, 1e-12),
            p50_ms=float(np.percentile(latencies_ms, 50)),
            p99_ms=float(np.percentile(latencies_ms, 99)),
            identical=identical))

    if not all(p.identical for p in points):
        bad = [p.label for p in points if not p.identical]
        raise ReproError(
            f"gateway answers diverged from the locate_batch replay for "
            f"window setting(s): {', '.join(bad)}")

    # Saturation: a near-instantaneous Poisson burst, far past the
    # service rate, against a deliberately small admission bound.
    schedule = open_loop_arrivals(dataset, rate_per_second=50_000.0,
                                  count=6 * 64, seed=seed + 1)
    with _make_cluster(dataset, shard_count) as cluster:
        gateway = AsyncGateway(cluster, max_wait=0.02, max_batch=16,
                               max_pending=64)

        async def saturate(gw=gateway):
            served = 0
            shed = 0

            async def one(query) -> None:
                nonlocal served, shed
                try:
                    await gw.locate_query(query)
                    served += 1
                except GatewayOverloadedError:
                    shed += 1

            async with gw:
                begin = asyncio.get_running_loop().time()
                tasks = []
                for offset, query in zip(schedule.offsets,
                                         schedule.queries):
                    delay = offset - (
                        asyncio.get_running_loop().time() - begin)
                    if delay > 0:
                        await asyncio.sleep(delay)
                    tasks.append(asyncio.ensure_future(one(query)))
                await asyncio.gather(*tasks)
            return served, shed

        served, shed = asyncio.run(saturate())
        stats = gateway.stats()

    outcome = ShedOutcome(offered=len(schedule.queries), served=served,
                          shed=shed, max_pending=64,
                          pending_peak=stats.pending_peak)
    return GatewayResult(points=points, shed=outcome, clients=clients,
                         shard_count=shard_count)
