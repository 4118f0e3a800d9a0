"""Gateway equivalence suite: concurrent serving ≡ plain ``locate_batch``.

The core invariant, extended to the concurrent world.  Two oracles:

* **Purity** — with answers pure functions of the table (caching off,
  no storage), *any* interleaving of concurrent gateway calls must
  return bitwise the answers of one big ``locate_batch`` of the same
  queries, for any window setting: batching windows decide only which
  queries share a planner batch, and the planner is arrival-order
  invariant (``tests/property/test_prop_planner_order.py``).
* **Windowed replay** — with warm state in play (§5 caching, storage,
  mid-stream ingest), answers legitimately depend on the realized
  schedule.  The gateway journals every executed window and ingest tick
  in serialization order; replaying that journal through plain
  ``locate_batch`` calls on an identically built system must reproduce
  every answer, every storage write and the summed cache counters
  bitwise — and so must replaying a default cluster's journal through
  a lone ``Locater``.

Schedules are randomized (seeded permutations, per-query event-loop
yields, a background client racing every ingest tick) — whatever
interleaving the loop realizes must pass, every time.

Mirrors ``test_cluster_equivalence.py`` (cluster ≡ lone) and
``test_streaming_equivalence.py`` (streaming ≡ cold rebuild).
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.cluster import (
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardedLocater,
)
from repro.eval.queries import generated_query_set, labeled_query_set
from repro.events.table import EventTable
from repro.events.validity import DeltaEstimator
from repro.serve import AsyncGateway, IngestRecord, WindowRecord
from repro.sim.scenarios import streaming_day_workload
from repro.system.config import LocaterConfig
from repro.system.locater import Locater
from repro.system.storage import InMemoryStorage
from repro.system.streaming import StreamingSession
from repro.util.rng import make_rng

EXECUTORS = {
    "serial": SerialShardExecutor,
    "process": ProcessShardExecutor,
}

#: (label, max_wait, max_batch): per-query baseline, opportunistic
#: drain, and two timed windows.
WINDOW_SETTINGS = [
    ("per-query", 0.0, 1),
    ("drain", 0.0, 8),
    ("2ms", 0.002, 16),
    ("10ms", 0.010, 64),
]


async def _serve_concurrently(gateway, queries, seed, clients=8):
    """Submit ``queries`` on a seeded-random concurrent schedule.

    The permutation scatters the queries over ``clients`` client
    coroutines; per-query yield counts stagger submissions across event
    -loop ticks.  Returns the answers in the original query order.
    """
    rng = make_rng(seed)
    order = [int(i) for i in rng.permutation(len(queries))]
    yields = [int(n) for n in rng.integers(0, 4, size=len(queries))]
    answers = [None] * len(queries)

    async def client(indices):
        for i in indices:
            for _ in range(yields[i]):
                await asyncio.sleep(0)
            answers[i] = await gateway.locate_query(queries[i])

    await asyncio.gather(*(client(order[k::clients])
                           for k in range(clients)))
    return answers


def _warm_table(workload) -> EventTable:
    table = EventTable.from_events(workload.warmup)
    DeltaEstimator().fit_table(table)
    return table


def _journal_queries(journal) -> Counter:
    return Counter((query.mac, query.timestamp)
                   for record in journal
                   if isinstance(record, WindowRecord)
                   for query in record.queries)


class TestPurityOracle:
    """Caching off, no storage: any schedule ≡ one big locate_batch."""

    @pytest.fixture(scope="class")
    def pure_world(self, small_dataset):
        queries = labeled_query_set(small_dataset, per_device=2, seed=2)
        queries += generated_query_set(small_dataset, count=24, seed=3)
        queries += queries[:4]  # duplicates share windows
        config = LocaterConfig(use_caching=False)
        expected = Locater(small_dataset.building, small_dataset.metadata,
                           small_dataset.table,
                           config=config).locate_batch(queries)
        return small_dataset, queries, config, expected

    @pytest.mark.parametrize("label,max_wait,max_batch", WINDOW_SETTINGS)
    @pytest.mark.parametrize("seed", [11, 29])
    def test_lone_backend_any_schedule(self, pure_world, label,
                                       max_wait, max_batch, seed):
        dataset, queries, config, expected = pure_world
        lone = Locater(dataset.building, dataset.metadata, dataset.table,
                       config=config)
        gateway = AsyncGateway(lone, max_wait=max_wait,
                               max_batch=max_batch)

        async def main():
            async with gateway:
                return await _serve_concurrently(gateway, queries, seed)

        assert asyncio.run(main()) == expected

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("label,max_wait,max_batch",
                             WINDOW_SETTINGS[1:3])
    def test_cluster_backend_any_schedule(self, pure_world, executor,
                                          label, max_wait, max_batch):
        dataset, queries, config, expected = pure_world
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=3,
                            executor=EXECUTORS[executor](),
                            config=config) as cluster:
            gateway = AsyncGateway(cluster, max_wait=max_wait,
                                   max_batch=max_batch)

            async def main():
                async with gateway:
                    return await _serve_concurrently(gateway, queries,
                                                     seed=17)

            assert asyncio.run(main()) == expected

    def test_no_query_lost_or_duplicated(self, pure_world):
        dataset, queries, config, _ = pure_world
        lone = Locater(dataset.building, dataset.metadata, dataset.table,
                       config=config)
        gateway = AsyncGateway(lone, max_wait=0.001, max_batch=8,
                               journal=True)

        async def main():
            async with gateway:
                await _serve_concurrently(gateway, queries, seed=5)

        asyncio.run(main())
        assert _journal_queries(gateway.journal) == \
            Counter((q.mac, q.timestamp) for q in queries)
        stats = gateway.stats()
        assert stats.completed == stats.submitted == len(queries)
        assert stats.failed == stats.shed == stats.pending == 0


class TestJournalReplay:
    """Caching + storage + mid-stream ingest: replay reproduces all."""

    @pytest.fixture(scope="class")
    def day(self, small_dataset):
        workload = streaming_day_workload(small_dataset, batches=3,
                                          queries_per_burst=6, seed=7)
        # Devices with warm-up history: safe to query while any ingest
        # tick is in flight (burst queries may target devices first
        # seen in their own batch, so bursts follow their ingest).
        background = generated_query_set(small_dataset, count=10, seed=9)
        return small_dataset, workload, background

    async def _live_day(self, gateway, workload, background, seed):
        """Ingest ⇄ burst day with a client racing every ingest tick."""
        stop = False
        served = 0

        async def hammer():
            nonlocal served
            while not stop:
                await gateway.locate_query(background[served %
                                                      len(background)])
                served += 1

        racer = asyncio.ensure_future(hammer())
        for batch in workload.batches:
            report = await gateway.ingest(list(batch.ingest))
            assert report.count == len(batch.ingest)
            await _serve_concurrently(gateway, list(batch.queries),
                                      seed + batch.index)
        stop = True
        await racer
        assert served > 0  # the racer genuinely overlapped the day

    @pytest.mark.parametrize("label,max_wait,max_batch",
                             WINDOW_SETTINGS[1:])
    def test_lone_streaming_replay(self, day, label, max_wait,
                                   max_batch):
        dataset, workload, background = day
        storage = InMemoryStorage()
        lone = Locater(dataset.building, dataset.metadata,
                       _warm_table(workload), storage=storage)
        gateway = AsyncGateway(lone, max_wait=max_wait,
                               max_batch=max_batch, journal=True)
        asyncio.run(self._drive(gateway, workload, background))

        replay_storage = InMemoryStorage()
        replay = self._replay_through_lone(dataset, workload,
                                           gateway.journal, replay_storage)
        assert replay.cache.stats() == lone.cache.stats()
        self._assert_storage_matches(gateway.journal, storage,
                                     replay_storage)

    @staticmethod
    def _replay_through_lone(dataset, workload, journal, storage):
        """Replay a journal through a lone Locater's streaming session.

        Asserts every window's answers; returns the replayed system.
        """
        lone = Locater(dataset.building, dataset.metadata,
                       _warm_table(workload), storage=storage)
        session = StreamingSession(lone)
        for record in journal:
            if isinstance(record, IngestRecord):
                session.ingest(list(record.events))
            else:
                assert session.query(list(record.queries)) == \
                    list(record.answers)
        session.close()
        return lone

    async def _drive(self, gateway, workload, background):
        async with gateway:
            await self._live_day(gateway, workload, background, seed=31)

    @pytest.mark.parametrize("with_ingest", [True, False])
    def test_cluster_replay(self, day, with_ingest):
        dataset, workload, background = day
        storage = InMemoryStorage()
        with ShardedLocater(dataset.building, dataset.metadata,
                            _warm_table(workload), shard_count=2,
                            storage=storage) as cluster:
            gateway = AsyncGateway(cluster, max_wait=0.002, max_batch=16,
                                   journal=True)

            async def main():
                async with gateway:
                    if with_ingest:
                        await self._live_day(gateway, workload,
                                             background, seed=43)
                    else:
                        queries = background * 2 + \
                            list(workload.batches[0].queries)
                        await _serve_concurrently(gateway, queries,
                                                  seed=43)

            asyncio.run(main())
            live_stats = cluster.cache_stats()

            replay_storage = InMemoryStorage()
            with ShardedLocater(dataset.building, dataset.metadata,
                                _warm_table(workload), shard_count=2,
                                storage=replay_storage) as replay:
                for record in gateway.journal:
                    if isinstance(record, IngestRecord):
                        replay.ingest(list(record.events))
                    else:
                        assert replay.locate_batch(
                            list(record.queries)) == \
                            list(record.answers)
                assert replay.cache_stats().total == live_stats.total
                self._assert_storage_matches(
                    gateway.journal, storage, replay_storage,
                    namespace_of=lambda mac:
                        f"shard{replay.shard_of(mac)}:")

        # The default cluster is lone-exact: a lone Locater replaying
        # the same windows answers identically, with the same summed
        # cache counters.
        lone = self._replay_through_lone(dataset, workload,
                                         gateway.journal, InMemoryStorage())
        assert lone.cache.stats() == live_stats.total

    def test_process_cluster_replay(self, day):
        # Process replicas keep their warm state worker-side; the
        # replay threads no state at all and must still reproduce the
        # schedule (each worker's Locater keeps its own).
        dataset, workload, background = day
        with ShardedLocater(dataset.building, dataset.metadata,
                            _warm_table(workload), shard_count=2,
                            executor=ProcessShardExecutor()) as cluster:
            gateway = AsyncGateway(cluster, max_wait=0.002, max_batch=16,
                                   journal=True)

            async def main():
                async with gateway:
                    await gateway.ingest(
                        list(workload.batches[0].ingest))
                    await _serve_concurrently(
                        gateway, background +
                        list(workload.batches[0].queries), seed=3)

            asyncio.run(main())
            live_stats = cluster.cache_stats()

            with ShardedLocater(dataset.building, dataset.metadata,
                                _warm_table(workload), shard_count=2,
                                executor=ProcessShardExecutor()) \
                    as replay:
                for record in gateway.journal:
                    if isinstance(record, IngestRecord):
                        replay.ingest(list(record.events))
                    else:
                        assert replay.locate_batch(
                            list(record.queries)) == \
                            list(record.answers)
                assert replay.cache_stats().total == live_stats.total

    @staticmethod
    def _assert_storage_matches(journal, live, replayed,
                                namespace_of=lambda mac: ""):
        seen = set()
        for record in journal:
            if not isinstance(record, WindowRecord):
                continue
            for query in record.queries:
                key = f"{namespace_of(query.mac)}{query.mac}"
                found = replayed.find_answer(key, query.timestamp)
                assert found == live.find_answer(key, query.timestamp)
                seen.add((key, query.timestamp))
        assert seen  # the comparison actually covered writes
