"""Unit tests of ``ShardedLocater`` wiring (reports, state, lifecycle).

The bitwise serving equivalence lives in
``tests/integration/test_cluster_equivalence.py``; this module covers
the cluster-layer mechanics around it.
"""

from __future__ import annotations

import pytest

from repro.cluster import ProcessShardExecutor, ShardedLocater
from repro.errors import ClusterError, ConfigurationError
from repro.events.event import ConnectivityEvent
from repro.system.config import LocaterConfig
from repro.system.ingestion import IngestionEngine
from repro.system.query import LocationQuery
from repro.system.storage import InMemoryStorage
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
    def test_shard_reports_partition_the_total(self, cluster,
                                               small_dataset):
        events = _fresh_events(small_dataset, count=7)
        report = cluster.ingest(events)
        assert report.count == 7
        assert report.generation == cluster.table.generation
        assert sum(r.count for r in report.shard_reports) == 7
        merged: set[str] = set()
        for shard_id, shard_report in enumerate(report.shard_reports):
            for mac in shard_report.macs:
                assert cluster.shard_of(mac) == shard_id
            assert not merged & set(shard_report.macs)
            merged |= set(shard_report.macs)
        assert merged == set(report.macs)

    def test_empty_ingest_is_a_no_op_report(self, cluster):
        report = cluster.ingest([])
        assert report.count == 0
        assert not report.macs

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

    def test_external_engine_wiring_via_on_ingest(self, cluster,
                                                  small_dataset):
        engine = IngestionEngine(cluster.table)
        engine.subscribe(cluster.on_ingest)
        report = engine.ingest(_fresh_events(small_dataset, count=4))
        summary = cluster.on_ingest(report)
        assert not summary.full
        assert summary.macs == report.macs

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


class TestClusterBatchState:
    def test_fanout_surface(self, cluster, small_dataset):
        state = cluster.make_batch_state(max_snapshots=16)
        assert len(state.shard_states) == 3
        queries = [  # warm some memos through the state
            LocationQuery(mac=mac,
                          timestamp=small_dataset.span.end
                          - SECONDS_PER_DAY / 2)
            for mac in small_dataset.macs()[:4]]
        cluster.locate_batch(queries, state=state)
        # memo_dicts flattens each shard's memos (7 dicts per shard),
        # resolved freshly so post-drop rebinding is reflected.
        assert len(state.memo_dicts()) == \
            sum(len(s.memo_dicts()) for s in state.shard_states)
        assert sum(map(len, state.memo_dicts())) > 0
        state.drop_devices(set(small_dataset.macs()))
        assert sum(map(len, state.memo_dicts())) == 0
        assert state.neighbors.invalidate_all() >= 0
        # reset() ≡ fresh state: everything empty afterwards.
        cluster.locate_batch(queries, state=state)
        state.reset()
        assert sum(map(len, state.memo_dicts())) == 0

    def test_process_clusters_refuse_shared_state(self, small_dataset):
        with ShardedLocater(small_dataset.building,
                            small_dataset.metadata, small_dataset.table,
                            shard_count=2,
                            config=LocaterConfig(use_caching=False),
                            executor=ProcessShardExecutor()) as cluster:
            with pytest.raises(ConfigurationError):
                cluster.make_batch_state()
            with pytest.raises(ConfigurationError):
                cluster.on_ingest(None)  # type: ignore[arg-type]


class TestLifecycle:
    def test_partial_ingest_failure_poisons_the_cluster(
            self, cluster, small_dataset):
        # Regression: if the invalidation fan-out reaches some shards
        # but not others, the survivors silently diverge from the
        # authoritative table — the cluster must fail stop, not keep
        # serving (and must refuse a retry, which would double-merge).
        failing = cluster.executor.shards[1]

        def boom(report):
            raise RuntimeError("shard invalidation exploded")

        failing.on_ingest = boom  # type: ignore[method-assign]
        events = _fresh_events(small_dataset, count=3)
        with pytest.raises(RuntimeError):
            cluster.ingest(events)
        with pytest.raises(ClusterError, match="poisoned"):
            cluster.locate_batch([])
        with pytest.raises(ClusterError, match="poisoned"):
            cluster.ingest(events)
        cluster.close()  # teardown still allowed

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
