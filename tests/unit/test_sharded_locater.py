"""Unit tests of ``ShardedLocater`` wiring (reports, state, lifecycle).

The bitwise serving equivalence lives in
``tests/integration/test_cluster_equivalence.py``; this module covers
the cluster-layer mechanics around it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import ProcessShardExecutor, ShardedLocater
from repro.errors import ClusterError, ConfigurationError
from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.events.validity import DeltaEstimator
from repro.sim.scenarios import streaming_day_workload
from repro.system.config import LocaterConfig
from repro.system.ingestion import IngestionEngine
from repro.system.locater import Locater
from repro.system.query import LocationQuery
from repro.system.storage import InMemoryStorage
from repro.system.streaming import StreamingSession
from repro.util.timeutil import SECONDS_PER_DAY


@pytest.fixture
def cluster(small_dataset):
    # The ingest tests append events, and small_dataset is shared
    # session-wide (read-only by convention) — give the cluster a
    # private copy of the table (restrict over the full span slices
    # every log into fresh arrays, deltas included).
    table = small_dataset.table.restrict(small_dataset.table.span())
    with ShardedLocater(small_dataset.building, small_dataset.metadata,
                        table, shard_count=3,
                        config=LocaterConfig(use_caching=False)) as built:
        yield built


def _fresh_events(dataset, count=5):
    start = dataset.table.span().end + 60.0
    ap = dataset.table.ap_ids[0]
    macs = dataset.macs()
    return [ConnectivityEvent(timestamp=start + i * 30.0,
                              mac=macs[i % len(macs)], ap_id=ap)
            for i in range(count)]


class TestConstruction:
    def test_rejects_bad_shard_count(self, small_dataset):
        with pytest.raises(ConfigurationError):
            ShardedLocater(small_dataset.building, small_dataset.metadata,
                           small_dataset.table, shard_count=0)

    def test_rejects_storage_with_process_shards(self, small_dataset):
        with pytest.raises(ConfigurationError) as excinfo:
            ShardedLocater(small_dataset.building, small_dataset.metadata,
                           small_dataset.table, shard_count=2,
                           executor=ProcessShardExecutor(),
                           storage=InMemoryStorage())
        assert "storage" in str(excinfo.value)

    def test_surface_mirrors_locater(self, cluster, small_dataset):
        assert cluster.table.device_count == \
            small_dataset.table.device_count
        assert cluster.building is small_dataset.building
        assert cluster.shard_count == 3
        for mac in small_dataset.macs():
            assert cluster.shard_of(mac) in range(3)


class TestIngestReports:
    def test_report_counts_the_whole_batch(self, cluster, small_dataset):
        events = _fresh_events(small_dataset, count=7)
        report = cluster.ingest(events)
        assert report.count == 7
        assert report.generation == cluster.table.generation

    def test_empty_ingest_is_a_no_op_report(self, cluster):
        report = cluster.ingest([])
        assert report.count == 0
        assert not report.changed

    def test_dirty_events_partition_into_namespaces_once(
            self, small_dataset):
        backend = InMemoryStorage()
        table = small_dataset.table.restrict(small_dataset.table.span())
        with ShardedLocater(small_dataset.building,
                            small_dataset.metadata, table,
                            shard_count=3,
                            config=LocaterConfig(use_caching=False),
                            storage=backend) as cluster:
            events = _fresh_events(small_dataset, count=9)
            cluster.ingest(events)
            # Each event stored exactly once (namespaces share the
            # backend's event store; the router partitioned the batch).
            assert backend.event_count() == 9
            stored = sorted(backend.load_events(),
                            key=lambda e: e.timestamp)
            assert [e.mac for e in stored] == [e.mac for e in events]
            assert all(e.event_id >= 0 for e in stored)

    def test_external_engine_needs_no_wiring(self, cluster, small_dataset):
        # An engine the cluster never heard of merges into its table,
        # one day past the span, so every warm shard model goes stale;
        # the next query pulls the change, cluster and shards alike,
        # and answers as a lone system built over the merged table.
        queries = [LocationQuery(mac=mac,
                                 timestamp=small_dataset.span.end
                                 - SECONDS_PER_DAY / 2)
                   for mac in small_dataset.macs()]
        cluster.locate_batch(queries)  # warm every shard
        table = cluster.table
        start = table.span().end + SECONDS_PER_DAY
        events = [ConnectivityEvent(timestamp=start + i * 60.0, mac=mac,
                                    ap_id=table.log(mac).ap_at(
                                        len(table.log(mac)) - 1))
                  for i, mac in enumerate(small_dataset.macs()[:4])]
        IngestionEngine(table).ingest(events)
        lone = Locater(small_dataset.building, small_dataset.metadata,
                       table, config=LocaterConfig(use_caching=False))
        assert cluster.locate_batch(queries) == lone.locate_batch(queries)

    def test_mixed_ingest_entry_points_never_reissue_ids(
            self, cluster, small_dataset):
        # Regression: the cluster's internal engine seeds its id
        # counter at construction; an interleaved external engine (a
        # streaming session's, say) stamping into the shared table must
        # not make the next cluster.ingest reissue those ids.
        before = cluster.table.max_event_id
        external = IngestionEngine(cluster.table)
        external.ingest(_fresh_events(small_dataset, count=4))
        assert cluster.table.max_event_id == before + 4
        cluster.ingest(_fresh_events(small_dataset, count=4))
        # Without the engine's resync-before-stamping, the cluster's
        # engine (seeded at construction) would reissue the external
        # engine's ids and the maximum would not advance.
        assert cluster.table.max_event_id == before + 8


class TestStreamingOverProcessShards:
    def test_session_is_bitwise_a_lone_session(self, small_dataset):
        # A session's engine merges into the cluster's table; the
        # catch-up's table sync brings every worker's attached view
        # along, and each worker's Locater pulls from its view.
        workload = streaming_day_workload(small_dataset, batches=3,
                                          queries_per_burst=6, seed=5)
        config = LocaterConfig(use_caching=False)

        def warm_table():
            table = EventTable.from_events(workload.warmup)
            DeltaEstimator().fit_table(table)
            return table

        lone = StreamingSession(Locater(small_dataset.building,
                                        small_dataset.metadata,
                                        warm_table(), config=config))
        with ShardedLocater(small_dataset.building, small_dataset.metadata,
                            warm_table(), shard_count=2,
                            executor=ProcessShardExecutor(),
                            config=config) as cluster:
            with StreamingSession(cluster) as session:
                for batch in workload.batches:
                    lone.ingest(batch.ingest)
                    session.ingest(batch.ingest)
                    assert session.query(batch.queries) == \
                        lone.query(batch.queries)


class TestLifecycle:
    def test_partial_ingest_failure_poisons_the_cluster(
            self, small_dataset):
        # Regression: if the catch-up's migration reaches some shards
        # but not others, the survivors silently diverge from the
        # authoritative table — the cluster must fail stop, not keep
        # serving (and must refuse a retry, which would double-merge).
        table = small_dataset.table.restrict(small_dataset.table.span())
        with ShardedLocater(small_dataset.building,
                            small_dataset.metadata, table,
                            shard_count=3) as cluster:
            def boom(macs):
                raise RuntimeError("shard edge export exploded")

            cluster.executor.shards[1].export_cache_edges = boom  # type: ignore[method-assign]
            # A device first seen now binds into an existing component,
            # which re-keys devices: the catch-up must migrate.
            start = table.span().end + 60.0
            events = [ConnectivityEvent(timestamp=start + i * 30.0,
                                        mac="fresh-device",
                                        ap_id=table.ap_ids[0])
                      for i in range(3)]
            with pytest.raises(RuntimeError, match="exploded"):
                cluster.ingest(events)
            with pytest.raises(ClusterError, match="poisoned"):
                cluster.locate_batch([])
            with pytest.raises(ClusterError, match="poisoned"):
                cluster.ingest(events)
        # Teardown still allowed (the context manager closed it).

    def test_concurrent_route_reads_catch_up_once(self, small_dataset):
        # A gateway's lanes read routes and serve on threads.  After a
        # merge from another engine every one of them sees the moved
        # generation, but only one may catch up: a second migration (on
        # process shards, a second sync of the same merge) would
        # diverge the shards.  A slow open-check widens the window
        # between the generation check and the work.
        table = small_dataset.table.restrict(small_dataset.table.span())
        with ShardedLocater(small_dataset.building,
                            small_dataset.metadata, table,
                            shard_count=3) as cluster:
            observe = cluster._router.observe_table
            check_open = cluster._check_open
            observed = []

            def counted(table, macs):
                observed.append(sorted(macs))
                return observe(table, macs)

            def slow_check_open():
                time.sleep(0.05)
                check_open()

            cluster._router.observe_table = counted  # type: ignore[method-assign]
            cluster._check_open = slow_check_open  # type: ignore[method-assign]
            IngestionEngine(table).ingest(_fresh_events(small_dataset))
            macs = small_dataset.macs()[:4]
            routes: dict[str, int] = {}
            threads = [threading.Thread(
                target=lambda mac=mac: routes.update(
                    {mac: cluster.shard_of(mac)}))
                for mac in macs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(observed) == 1
            assert routes == {mac: cluster.shard_of(mac) for mac in macs}

    def test_closed_cluster_refuses_calls(self, small_dataset):
        cluster = ShardedLocater(small_dataset.building,
                                 small_dataset.metadata,
                                 small_dataset.table, shard_count=2,
                                 config=LocaterConfig(use_caching=False))
        cluster.close()
        cluster.close()  # idempotent
        with pytest.raises(ClusterError):
            cluster.locate_batch([])
        with pytest.raises(ClusterError):
            cluster.ingest([])

    def test_cache_stats_per_shard(self, small_dataset):
        with ShardedLocater(small_dataset.building,
                            small_dataset.metadata, small_dataset.table,
                            shard_count=2) as cluster:
            stats = cluster.cache_stats()
            assert len(stats) == 2
            assert all(s is not None and "hits" in s
                       for s in stats.per_shard)
            # The aggregate sums every counter over the shards.
            for key in ("hits", "misses", "edges", "nodes"):
                assert stats.total[key] == sum(
                    s[key] for s in stats.per_shard)
        with ShardedLocater(small_dataset.building,
                            small_dataset.metadata, small_dataset.table,
                            shard_count=2,
                            config=LocaterConfig(use_caching=False)
                            ) as cluster:
            stats = cluster.cache_stats()
            assert stats.per_shard == (None, None)
            assert stats.total is None
