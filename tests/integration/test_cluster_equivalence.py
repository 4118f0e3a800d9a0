"""Cluster equivalence suite: ``ShardedLocater`` ≡ a lone ``Locater``.

The load-bearing invariant of the cluster layer: with any shard count
and any executor, cluster answers are **bitwise identical** to a lone
system over the same table.  With the caching engine off, answers are
pure functions of the table and the cluster spreads devices by a stable
hash of their MAC.  With caching ON (the default) the global affinity
graph is deliberate cross-query warm state whose undirected edges would
couple devices across shards, so the cluster routes by co-presence
component: every affinity component lives on one shard, and each
per-shard cache performs the same edge reads and writes as the lone
deployment (``TestCachingEquivalence`` demands bitwise answers *and*
matching cluster-wide cache totals, through batch serving, streaming
ingest and mid-stream component merges with their cache-edge
migration).

Mirrors ``test_batch_equivalence.py`` (batch workloads) and
``test_streaming_equivalence.py`` (interleaved ingest ⇄ query).
"""

from __future__ import annotations

import multiprocessing
from collections import Counter

import pytest

from repro.cluster import (
    ComponentAffinityRouter,
    Fault,
    FaultInjectingExecutor,
    FaultPlan,
    ProcessShardExecutor,
    RecoveryPolicy,
    SerialShardExecutor,
    ShardedLocater,
)
from repro.eval.queries import generated_query_set, labeled_query_set
from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.events.validity import DeltaEstimator
from repro.sim.scenarios import (
    isolated_campus_dataset,
    streaming_day_workload,
)
from repro.system.config import LocaterConfig
from repro.system.ingestion import IngestionEngine
from repro.system.locater import Locater
from repro.system.planner import plan_queries
from repro.system.storage import InMemoryStorage
from repro.system.streaming import StreamingSession

EXECUTORS = {
    "serial": SerialShardExecutor,
    "process": ProcessShardExecutor,
}

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def world(small_dataset):
    queries = labeled_query_set(small_dataset, per_device=3, seed=2)
    queries += generated_query_set(small_dataset, count=20, seed=3)
    queries += queries[:3]  # duplicates exercise storage short-circuits
    return small_dataset, queries


@pytest.fixture(scope="module")
def isolated_world():
    # Three buildings that never exchange devices — three affinity
    # components, so component routing genuinely spreads the caches
    # over shards (the stock campus collapses into one component).
    dataset = isolated_campus_dataset(buildings=3, population=24,
                                      days=3, seed=17)
    queries = labeled_query_set(dataset, per_device=2, seed=2)
    queries += generated_query_set(dataset, count=40, seed=5)
    return dataset, queries


def _lone_answers(dataset, queries, config, storage=None):
    lone = Locater(dataset.building, dataset.metadata, dataset.table,
                   config=config, storage=storage)
    return lone.locate_batch(queries)


class TestBatchEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_identical_to_lone_locater(self, world, shards, executor):
        dataset, queries = world
        config = LocaterConfig(use_caching=False)
        expected = _lone_answers(dataset, queries, config)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=shards,
                            executor=EXECUTORS[executor](),
                            config=config) as cluster:
            # Full LocationAnswer equality: coarse route, room, the
            # entire fine posterior and edge weights, float for float.
            assert cluster.locate_batch(queries) == expected

    def test_storage_side_effects_match(self, world):
        dataset, queries = world
        config = LocaterConfig(use_caching=False)
        lone_storage = InMemoryStorage()
        expected = _lone_answers(dataset, queries, config,
                                 storage=lone_storage)
        backend = InMemoryStorage()
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=3,
                            config=config, storage=backend) as cluster:
            assert cluster.locate_batch(queries) == expected
            # Every answer the lone system persisted exists under the
            # owning shard's namespace, byte for byte.
            for query in queries:
                namespace = f"shard{cluster.shard_of(query.mac)}"
                assert backend.find_answer(
                    f"{namespace}:{query.mac}", query.timestamp) == \
                    lone_storage.find_answer(query.mac, query.timestamp)

    def test_single_query_path_matches(self, world):
        dataset, queries = world
        config = LocaterConfig(use_caching=False)
        lone = Locater(dataset.building, dataset.metadata, dataset.table,
                       config=config)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=2,
                            config=config) as cluster:
            for query in queries[:6]:
                assert cluster.locate(query.mac, query.timestamp) == \
                    lone.locate(query.mac, query.timestamp)

    def test_one_shard_with_caching_and_storage_bitwise(self, world):
        # A 1-shard cluster is the degenerate case where even the warm
        # cache state must match the lone system exactly — the cluster
        # plumbing (routing, dispatch, namespacing) adds nothing.
        dataset, queries = world
        lone_storage = InMemoryStorage()
        lone = Locater(dataset.building, dataset.metadata, dataset.table,
                       storage=lone_storage)
        expected = lone.locate_batch(queries)
        backend = InMemoryStorage()
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=1,
                            storage=backend) as cluster:
            assert cluster.locate_batch(queries) == expected
            stats = cluster.cache_stats()
            assert stats.per_shard == (lone.cache.stats(),)
            assert stats.total == lone.cache.stats()


class TestStreamingEquivalence:
    @pytest.fixture(scope="class")
    def streaming_world(self, small_dataset):
        workload = streaming_day_workload(small_dataset, batches=4,
                                          queries_per_burst=6, seed=3)
        return small_dataset, workload

    @staticmethod
    def _cold(dataset, events, config):
        table = EventTable.from_events(events)
        DeltaEstimator().fit_table(table)
        return Locater(dataset.building, dataset.metadata, table,
                       config=config)

    @staticmethod
    def _warm_table(workload):
        table = EventTable.from_events(workload.warmup)
        DeltaEstimator().fit_table(table)
        return table

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_cluster_ingest_matches_cold_rebuild(self, streaming_world,
                                                 shards, executor):
        dataset, workload = streaming_world
        config = LocaterConfig(use_caching=False)
        with ShardedLocater(dataset.building, dataset.metadata,
                            self._warm_table(workload),
                            shard_count=shards,
                            executor=EXECUTORS[executor](),
                            config=config) as cluster:
            for batch in workload.batches:
                report = cluster.ingest(batch.ingest)
                assert report.count == len(batch.ingest)
                cold = self._cold(dataset,
                                  workload.events_through(batch.index),
                                  config)
                assert cluster.locate_batch(batch.queries) == \
                    cold.locate_batch(batch.queries)

    def test_streaming_session_serves_a_cluster_unchanged(
            self, streaming_world):
        # The existing StreamingSession drives the cluster through the
        # same duck-typed surface a lone Locater offers: its engine
        # merges into the shared table, and the cluster and every
        # shard pull the change at the next query.
        dataset, workload = streaming_world
        config = LocaterConfig(use_caching=False)
        with ShardedLocater(dataset.building, dataset.metadata,
                            self._warm_table(workload), shard_count=3,
                            config=config) as cluster:
            session = StreamingSession(cluster)
            for batch in workload.batches:
                session.ingest(batch.ingest)
                cold = self._cold(dataset,
                                  workload.events_through(batch.index),
                                  config)
                assert session.query(batch.queries) == \
                    cold.locate_batch(batch.queries)
            # The first tick extends the span's day range (full drop);
            # later ticks stay inside the day and invalidate surgically.
            assert [shard["full_invalidations"]
                    for shard in cluster.shard_stats()] == [1, 1, 1]
            session.close()

    def test_held_batch_state_stays_fresh_across_cluster_ingest(
            self, streaming_world):
        # Regression: the warm state every shard holds across
        # cluster.ingest must be pruned (no StreamingSession in the
        # loop), or its memos would serve pre-ingest table state.
        dataset, workload = streaming_world
        config = LocaterConfig(use_caching=False)
        with ShardedLocater(dataset.building, dataset.metadata,
                            self._warm_table(workload), shard_count=2,
                            config=config) as cluster:
            for batch in workload.batches:
                cluster.ingest(batch.ingest)
                cold = self._cold(dataset,
                                  workload.events_through(batch.index),
                                  config)
                assert cluster.locate_batch(batch.queries) == \
                    cold.locate_batch(batch.queries)

    def test_replica_tables_track_the_authoritative_one(
            self, streaming_world):
        dataset, workload = streaming_world
        config = LocaterConfig(use_caching=False)
        with ShardedLocater(dataset.building, dataset.metadata,
                            self._warm_table(workload), shard_count=2,
                            executor=ProcessShardExecutor(),
                            config=config) as cluster:
            for batch in workload.batches:
                cluster.ingest(batch.ingest)
            stats = cluster.shard_stats()
            for shard in stats:
                assert shard["events"] == len(cluster.table)
                assert shard["devices"] == cluster.table.device_count
                # One sync per tick that merged rows: an empty tick
                # moves no generation, so nothing reaches the workers.
                assert shard["table_syncs"] == sum(
                    1 for batch in workload.batches if batch.ingest)


class TestCachingEquivalence:
    """Caching ON (the default): component routing keeps caches exact.

    Every test compares against a *persistent* lone system (caching is
    deliberate cross-query warm state — a cold rebuild would erase
    exactly what is under test) and demands bitwise-identical answers
    plus matching cluster-wide cache totals.
    """

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("config,serve", [
        (LocaterConfig(),
         lambda system, queries: system.locate_batch(queries)),
        # Fig. 12's cost model, served the way fig12 times it: one
        # locate_query per query in plan order, affinities re-mined from
        # history per query and no cross-query memo, so the cache is the
        # only amortization left.
        (LocaterConfig(reuse_affinity_cache=False),
         lambda system, queries: [
             system.locate_query(query)
             for query in plan_queries(queries).ordered_queries()]),
    ], ids=["default", "fig12-cost"])
    def test_batch_identical_including_cache_totals(
            self, isolated_world, shards, executor, config, serve):
        dataset, queries = isolated_world
        lone = Locater(dataset.building, dataset.metadata, dataset.table,
                       config=config)
        expected = serve(lone, queries)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=shards,
                            executor=EXECUTORS[executor](),
                            config=config) as cluster:
            assert serve(cluster, queries) == expected
            # The shards' caches, summed, saw exactly the lone system's
            # traffic: same hits, misses, edges and nodes.
            assert cluster.cache_stats().total == lone.cache.stats()

    def test_components_actually_spread_over_shards(self, isolated_world):
        # The parametrization above proves nothing if every component
        # hashes to one shard — pin the workload's multi-shard shape.
        dataset, queries = isolated_world
        router = ComponentAffinityRouter.from_table(dataset.table,
                                                    dataset.building)
        assert len({router.representative(mac)
                    for mac in dataset.macs()}) == 3
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4) as cluster:
            assert len({cluster.shard_of(mac)
                        for mac in dataset.macs()}) >= 2
            cluster.locate_batch(queries)
            active = [shard for shard in cluster.cache_stats().per_shard
                      if shard["hits"] + shard["misses"] > 0]
            assert len(active) >= 2

    @pytest.fixture(scope="class")
    def caching_streaming_world(self, small_dataset):
        workload = streaming_day_workload(small_dataset, batches=4,
                                          queries_per_burst=6, seed=3)
        return small_dataset, workload

    @staticmethod
    def _warm_table(workload):
        table = EventTable.from_events(workload.warmup)
        DeltaEstimator().fit_table(table)
        return table

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_streaming_matches_persistent_lone_system(
            self, caching_streaming_world, shards, executor):
        dataset, workload = caching_streaming_world
        lone_table = self._warm_table(workload)
        lone = Locater(dataset.building, dataset.metadata, lone_table)
        lone_engine = IngestionEngine(lone_table)
        cluster_table = self._warm_table(workload)
        with ShardedLocater(dataset.building, dataset.metadata,
                            cluster_table, shard_count=shards,
                            executor=EXECUTORS[executor]()) as cluster:
            for batch in workload.batches:
                lone.on_ingest(lone_engine.ingest(batch.ingest))
                cluster.ingest(batch.ingest)
                assert cluster.locate_batch(batch.queries) == \
                    lone.locate_batch(batch.queries)
                assert cluster.cache_stats().total == lone.cache.stats()

    def test_component_merge_migrates_cache_edges(self, isolated_world):
        # A mid-stream merge re-keys a whole component: the moved
        # devices' recorded edges must follow them to the new owning
        # shard, or their next queries would read a colder cache than
        # the lone system's.
        dataset, queries = isolated_world
        lone_table = dataset.table.restrict(dataset.table.span())
        lone = Locater(dataset.building, dataset.metadata, lone_table)
        lone_engine = IngestionEngine(lone_table)
        cluster_table = dataset.table.restrict(dataset.table.span())
        bridge_mac = sorted(mac for mac in dataset.macs()
                            if mac.startswith("b0:"))[0]
        with ShardedLocater(dataset.building, dataset.metadata,
                            cluster_table, shard_count=4) as cluster:
            assert cluster.locate_batch(queries) == \
                lone.locate_batch(queries)  # warm both caches
            before = cluster.router.component_of(bridge_mac)
            start = cluster_table.span().end + 120.0
            bridge = [ConnectivityEvent(timestamp=start + i * 30.0,
                                        mac=bridge_mac, ap_id="b1-wap1")
                      for i in range(3)]
            lone.on_ingest(lone_engine.ingest(bridge))
            cluster.ingest(bridge)
            after = cluster.router.component_of(bridge_mac)
            assert before < after  # strictly grew: b0 absorbed b1
            assert any(mac.startswith("b1:") for mac in after)
            # The merged component is whole again on a single shard.
            assert len({cluster.shard_of(mac) for mac in after}) == 1
            assert cluster.locate_batch(queries) == \
                lone.locate_batch(queries)
            assert cluster.cache_stats().total == lone.cache.stats()

    def test_binding_upgrade_clears_stranded_answers(self, isolated_world):
        # Regression: a stored answer persisted under a device's old
        # shard namespace must not survive the device's route change —
        # a later re-query through the old shard would serve it stale.
        # Caching on: only a caching cluster re-keys devices.
        dataset, queries = isolated_world
        table = dataset.table.restrict(dataset.table.span())
        backend = InMemoryStorage()
        bridge_mac = sorted(mac for mac in dataset.macs()
                            if mac.startswith("b0:"))[0]
        with ShardedLocater(dataset.building, dataset.metadata, table,
                            shard_count=4, storage=backend) as cluster:
            cluster.locate_batch(queries)  # persist under old routes
            movable = sorted(mac for mac in dataset.macs()
                             if mac.startswith("b1:"))
            old_shards = {mac: cluster.shard_of(mac) for mac in movable}
            start = table.span().end + 120.0
            cluster.ingest([
                ConnectivityEvent(timestamp=start + i * 30.0,
                                  mac=bridge_mac, ap_id="b1-wap1")
                for i in range(3)])
            # The merge re-keys b1's devices onto b0's representative.
            moved = [mac for mac in movable
                     if cluster.shard_of(mac) != old_shards[mac]]
            assert moved
            for query in queries:
                if query.mac not in moved:
                    continue
                assert backend.find_answer(
                    f"shard{old_shards[query.mac]}:{query.mac}",
                    query.timestamp) is None
            # Re-queries persist under the new owning namespace.
            requeries = [query for query in queries
                         if query.mac in set(moved)]
            assert requeries
            answers = cluster.locate_batch(requeries)
            for query, answer in zip(requeries, answers):
                namespace = f"shard{cluster.shard_of(query.mac)}"
                assert backend.find_answer(
                    f"{namespace}:{query.mac}", query.timestamp) == \
                    answer.location_label


class TestChaosEquivalence:
    """SIGKILL mid-workload: recovery is invisible at the bit level.

    The chaos cluster and its uninterrupted control run the *identical
    workload shape* — same batches, same splits — because splitting a
    batch differently legitimately changes cache evolution (the shared
    pre-pass sees different query sets).  Faults fire at scripted
    dispatch indices (:mod:`repro.cluster.faults`), so recovery is the
    only difference between the two runs and bitwise identity of
    answers, storage side effects and summed cache counters is a
    checkable equality, not a statistical claim.
    """

    @staticmethod
    def _halves(queries):
        middle = len(queries) // 2
        return [queries[:middle], queries[middle:]]

    @staticmethod
    def _busiest_shard(probe_router, queries, shard_count):
        """The shard owning the most queries (a victim worth killing)."""
        owners = Counter(probe_router.shard_of(query.mac, shard_count)
                         for query in queries)
        return owners.most_common(1)[0][0]

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
    def test_sigkill_mid_batch_fork_attached_bitwise(self, isolated_world):
        # Caching ON: the recovered shard must restore cache contents
        # and counters from the supervisor's checkpoint, not just
        # re-serve its slice correctly.
        dataset, queries = isolated_world
        halves = self._halves(queries)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4) as control:
            expected = [control.locate_batch(half) for half in halves]
            expected_totals = control.cache_stats().total
        probe = ComponentAffinityRouter.from_table(dataset.table,
                                                   dataset.building)
        victim = self._busiest_shard(probe, queries, 4)
        plan = FaultPlan([Fault(shard_id=victim, kind="kill",
                                method="locate_batch", call_index=1)])
        executor = FaultInjectingExecutor(ProcessShardExecutor(), plan)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4,
                            executor=executor,
                            recovery=RecoveryPolicy(backoff=(0.0,))
                            ) as cluster:
            assert [cluster.locate_batch(half)
                    for half in halves] == expected
            assert cluster.cache_stats().total == expected_totals
            assert plan.exhausted
            [episode] = cluster.recovery_events
            assert episode.shard_id == victim
            assert episode.outcome == "recovered"
            assert "SIGKILL" in episode.error
            assert cluster.quarantined == frozenset()

    def test_sigkill_mid_batch_spawn_attached_bitwise(self, isolated_world):
        # Spawned workers attach the owner's shared-memory segments;
        # the resurrected worker must map the table's *current*
        # segments (factory_provider), then restore its checkpoint.
        dataset, queries = isolated_world
        halves = self._halves(queries)
        control_table = dataset.table.restrict(dataset.table.span())
        with ShardedLocater(dataset.building, dataset.metadata,
                            control_table, shard_count=2) as control:
            expected = [control.locate_batch(half) for half in halves]
            expected_totals = control.cache_stats().total
        table = dataset.table.restrict(dataset.table.span())
        probe = ComponentAffinityRouter.from_table(table, dataset.building)
        victim = self._busiest_shard(probe, queries, 2)
        plan = FaultPlan([Fault(shard_id=victim, kind="kill",
                                method="locate_batch", call_index=1)])
        executor = FaultInjectingExecutor(
            ProcessShardExecutor(start_method="spawn"), plan)
        try:
            with ShardedLocater(dataset.building, dataset.metadata,
                                table, shard_count=2,
                                executor=executor,
                                recovery=RecoveryPolicy(backoff=(0.0,))
                                ) as cluster:
                assert [cluster.locate_batch(half)
                        for half in halves] == expected
                assert cluster.cache_stats().total == expected_totals
                assert plan.exhausted
                [episode] = cluster.recovery_events
                assert episode.shard_id == victim
                assert episode.outcome == "recovered"
        finally:
            table.close()

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
    def test_sigkill_mid_stream_fork_attached_bitwise(self, small_dataset):
        # Streaming: ingests interleave with the kill, so the re-forked
        # replacement must attach the *current* segments, not the ones
        # the cluster started with.
        dataset = small_dataset
        workload = streaming_day_workload(dataset, batches=4,
                                          queries_per_burst=6, seed=3)

        def warm_table():
            table = EventTable.from_events(workload.warmup)
            DeltaEstimator().fit_table(table)
            return table

        control_table = warm_table()
        expected = []
        with ShardedLocater(dataset.building, dataset.metadata,
                            control_table, shard_count=3) as control:
            for batch in workload.batches:
                control.ingest(batch.ingest)
                expected.append(control.locate_batch(batch.queries))
            expected_totals = control.cache_stats().total
        chaos_table = warm_table()
        probe = ComponentAffinityRouter.from_table(chaos_table,
                                                   dataset.building)
        victim = self._busiest_shard(
            probe, workload.batches[2].queries, 3)
        plan = FaultPlan([Fault(shard_id=victim, kind="kill",
                                method="locate_batch", call_index=2)])
        executor = FaultInjectingExecutor(ProcessShardExecutor(), plan)
        with ShardedLocater(dataset.building, dataset.metadata,
                            chaos_table, shard_count=3,
                            executor=executor,
                            recovery=RecoveryPolicy(backoff=(0.0,))
                            ) as cluster:
            got = []
            for batch in workload.batches:
                cluster.ingest(batch.ingest)
                got.append(cluster.locate_batch(batch.queries))
            assert got == expected
            assert cluster.cache_stats().total == expected_totals
            assert plan.exhausted
            assert [episode.outcome
                    for episode in cluster.recovery_events] == ["recovered"]

    def test_sigkill_storage_side_effects_preserved(self, world):
        # An in-process shard is killed (emulated crash: the shard
        # object is discarded and rebuilt), yet the shared backend ends
        # up byte-for-byte what the lone system persisted.
        dataset, queries = world
        config = LocaterConfig(use_caching=False)
        halves = self._halves(queries)
        lone_storage = InMemoryStorage()
        lone = Locater(dataset.building, dataset.metadata, dataset.table,
                       config=config, storage=lone_storage)
        expected = [lone.locate_batch(half) for half in halves]
        # Never fed: the hash route of a caching-off cluster.
        victim = self._busiest_shard(
            ComponentAffinityRouter(dataset.building), queries, 3)
        plan = FaultPlan([Fault(shard_id=victim, kind="kill",
                                method="locate_batch", call_index=1)])
        executor = FaultInjectingExecutor(SerialShardExecutor(), plan)
        backend = InMemoryStorage()
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=3, config=config,
                            storage=backend, executor=executor,
                            recovery=RecoveryPolicy(backoff=(0.0,))
                            ) as cluster:
            assert [cluster.locate_batch(half)
                    for half in halves] == expected
            assert plan.exhausted
            assert [episode.shard_id
                    for episode in cluster.recovery_events] == [victim]
            for query in queries:
                namespace = f"shard{cluster.shard_of(query.mac)}"
                assert backend.find_answer(
                    f"{namespace}:{query.mac}", query.timestamp) == \
                    lone_storage.find_answer(query.mac, query.timestamp)
