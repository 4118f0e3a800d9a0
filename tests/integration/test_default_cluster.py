"""The default cluster is lone-exact, whatever the query schedule.

``ShardedLocater`` builds its one router itself.  With caching on (the
default) every device routes by its co-presence component, so each §5
affinity edge lives in exactly one shard's cache and a persistent lone
``Locater`` served the same windows answers identically, with the same
summed cache counters — one batch (see ``test_cluster_equivalence.py``)
or many small windows, streaming ingest included.  With caching off the
cluster spreads devices by a stable hash of their MAC, so even a world
that is a single component (a whole building, the stock campus) scales
out, and answers stay pure functions of the table.
"""

from __future__ import annotations

import pytest

from repro.cluster import ShardedLocater
from repro.cluster.router import stable_hash
from repro.eval.queries import generated_query_set, labeled_query_set
from repro.events.table import EventTable
from repro.events.validity import DeltaEstimator
from repro.sim.scenarios import (
    ScenarioSpec,
    isolated_campus_dataset,
    streaming_day_workload,
)
from repro.sim.simulator import Simulator
from repro.system.config import LocaterConfig
from repro.system.locater import Locater
from repro.system.storage import InMemoryStorage, SqliteStorage
from repro.system.streaming import StreamingSession

#: Queries per ``locate_batch`` call in the windowed tests — the small
#: windows a gateway cuts, where cache state carries between calls.
WINDOW = 4


@pytest.fixture(scope="module")
def isolated_world():
    # Three buildings that never exchange devices: three components.
    dataset = isolated_campus_dataset(buildings=3, population=24, days=3,
                                      seed=17)
    queries = labeled_query_set(dataset, per_device=2, seed=2)
    queries += generated_query_set(dataset, count=40, seed=5)
    return dataset, queries


@pytest.fixture(scope="module")
def worlds(small_dataset, isolated_world):
    return {
        # One component: caching-on routing keeps it whole on a shard.
        "one-component": (
            small_dataset,
            generated_query_set(small_dataset, count=100, seed=7)),
        "three-components": isolated_world,
    }


def _windows(queries):
    return [queries[i:i + WINDOW] for i in range(0, len(queries), WINDOW)]


def _warm_table(workload) -> EventTable:
    table = EventTable.from_events(workload.warmup)
    DeltaEstimator().fit_table(table)
    return table


class TestCachingOn:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    @pytest.mark.parametrize("shape", ["one-component", "three-components"])
    def test_windows_match_a_persistent_lone_system(self, worlds, shape,
                                                    shards):
        # Regression: a cluster that spread one component's devices over
        # several shards split its affinity edges between their caches,
        # so later windows read a colder cache than the lone system's and
        # a few answers (and the summed hit count) came out different.
        dataset, queries = worlds[shape]
        lone = Locater(dataset.building, dataset.metadata, dataset.table)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=shards) as cluster:
            owners = {cluster.shard_of(mac) for mac in dataset.macs()}
            if shape == "one-component":
                assert len(owners) == 1
            for window in _windows(queries):
                assert cluster.locate_batch(window) == \
                    lone.locate_batch(window)
                assert cluster.cache_stats().total == lone.cache.stats()
        assert lone.cache.stats()["hits"] > 0  # the cache was exercised

    @pytest.mark.parametrize("shards", [2, 4])
    def test_single_query_path_matches_a_persistent_lone_system(
            self, isolated_world, shards):
        dataset, queries = isolated_world
        lone = Locater(dataset.building, dataset.metadata, dataset.table)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=shards) as cluster:
            for query in queries[:30]:
                assert cluster.locate(query.mac, query.timestamp) == \
                    lone.locate(query.mac, query.timestamp)
            assert cluster.cache_stats().total == lone.cache.stats()

    @pytest.mark.parametrize("shards", [2, 3])
    def test_streaming_sessions_match(self, isolated_world, shards):
        # The cluster behind a StreamingSession, exactly as a lone
        # Locater behind one: same ingest ticks, same query bursts.
        dataset, _ = isolated_world
        workload = streaming_day_workload(dataset, batches=4,
                                          queries_per_burst=8, seed=3)
        lone = Locater(dataset.building, dataset.metadata,
                       _warm_table(workload))
        lone_session = StreamingSession(lone)
        with ShardedLocater(dataset.building, dataset.metadata,
                            _warm_table(workload),
                            shard_count=shards) as cluster:
            session = StreamingSession(cluster)
            for batch in workload.batches:
                lone_session.ingest(batch.ingest)
                session.ingest(batch.ingest)
                for window in _windows(list(batch.queries)):
                    assert session.query(window) == \
                        lone_session.query(window)
                assert cluster.cache_stats().total == lone.cache.stats()
            session.close()
        lone_session.close()


class TestCachingOff:
    @pytest.fixture(scope="class")
    def campus_world(self):
        dataset = Simulator(
            ScenarioSpec.campus(seed=17, population=24)).run(days=3)
        return dataset, generated_query_set(dataset, count=30, seed=5)

    @pytest.mark.parametrize("scenario", ["campus", "dbh"])
    def test_one_component_spreads_by_mac_hash(self, campus_world,
                                               small_dataset, scenario):
        # Both worlds are a single co-presence component; with caching
        # off the cluster must still spread them — the process-shard
        # scale-out rests on it.
        if scenario == "campus":
            dataset, queries = campus_world
        else:
            dataset = small_dataset
            queries = generated_query_set(dataset, count=30, seed=5)
        config = LocaterConfig(use_caching=False)
        expected = Locater(dataset.building, dataset.metadata,
                           dataset.table, config=config
                           ).locate_batch(queries)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4,
                            config=config) as cluster:
            for mac in dataset.macs():
                assert cluster.shard_of(mac) == stable_hash(mac) % 4
            assert len({cluster.shard_of(mac)
                        for mac in dataset.macs()}) >= 3
            assert cluster.locate_batch(queries) == expected

    @pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
    def test_shards_share_a_storage_backend(self, small_dataset,
                                            backend_kind):
        # Every shard persists answers and clears its namespace on one
        # backend: each answer lands under its owner's namespace, and
        # matches what a lone system persists.
        dataset = small_dataset
        workload = streaming_day_workload(dataset, batches=4,
                                          queries_per_burst=6, seed=3)
        config = LocaterConfig(use_caching=False)
        backend = InMemoryStorage() if backend_kind == "memory" \
            else SqliteStorage()
        lone_storage = InMemoryStorage()
        lone = Locater(dataset.building, dataset.metadata,
                       _warm_table(workload), config=config,
                       storage=lone_storage)
        lone_session = StreamingSession(lone)
        with ShardedLocater(dataset.building, dataset.metadata,
                            _warm_table(workload), shard_count=4,
                            config=config, storage=backend) as cluster:
            assert len({cluster.shard_of(mac)
                        for mac in dataset.macs()}) >= 2
            for batch in workload.batches:
                lone_session.ingest(batch.ingest)
                cluster.ingest(batch.ingest)  # clears every namespace
                answers = cluster.locate_batch(batch.queries)
                assert answers == lone_session.query(batch.queries)
                for query, answer in zip(batch.queries, answers):
                    namespace = f"shard{cluster.shard_of(query.mac)}"
                    stored = backend.find_answer(
                        f"{namespace}:{query.mac}", query.timestamp)
                    assert stored == answer.location_label
                    assert stored == lone_storage.find_answer(
                        query.mac, query.timestamp)
        lone_session.close()
        backend.close()
