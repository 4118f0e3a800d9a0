"""Shared-memory cluster: attached views ≡ lone, and segment ownership.

Extends ``test_cluster_equivalence.py`` to how process shards hold the
log: the table's hot columns live in named shared-memory segments,
every process shard worker *attaches* by segment name, and ingests fan
out as :class:`~repro.events.table.TableSync` payloads.  The invariant
is unchanged — bitwise-identical answers — plus the accounting claim
the wiring exists for (N shards cost 1× the table's column bytes) and
the ownership rule: a cluster that moved a heap table into shared
memory moves it back and unlinks every segment it created, while a
table that arrived on a shared store stays the caller's.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib

import pytest

from repro.cluster import ProcessShardExecutor, SerialShardExecutor, ShardedLocater
from repro.cluster.sharded import _AttachedShardFactory
from repro.errors import ClusterError, EventTableError
from repro.eval.queries import generated_query_set, labeled_query_set
from repro.events.columns import HeapColumnStore, SharedMemoryColumnStore
from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.events.validity import DeltaEstimator
from repro.sim.scenarios import ScenarioSpec, streaming_day_workload
from repro.sim.simulator import Simulator
from repro.system.config import LocaterConfig
from repro.system.ingestion import IngestionEngine
from repro.system.locater import Locater

CONFIG = LocaterConfig(use_caching=False)

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

SHM_DIR = pathlib.Path("/dev/shm")

needs_shm_dir = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="segment names are listed in /dev/shm")


@pytest.fixture(scope="module")
def world():
    """A module-private dataset: clusters move its table's column store
    into shared memory and back, so it is not the session fixture."""
    dataset = Simulator(ScenarioSpec.dbh_like(seed=29, population=10)).run(days=4)
    queries = labeled_query_set(dataset, per_device=2, seed=2)
    queries += generated_query_set(dataset, count=20, seed=3)
    yield dataset, queries
    dataset.table.close()


@pytest.fixture(scope="module")
def lone_answers(world):
    """Computed before any cluster runs: heap-era ground truth."""
    dataset, queries = world
    lone = Locater(dataset.building, dataset.metadata, dataset.table,
                   config=CONFIG)
    return lone.locate_batch(queries)


def _warm_table(workload) -> EventTable:
    table = EventTable.from_events(workload.warmup)
    DeltaEstimator().fit_table(table)
    return table


def _shared_copy(table: EventTable) -> EventTable:
    """A caller-built copy of ``table`` on a shared-memory store."""
    copy = table.restrict(table.span())
    copy.migrate_store(SharedMemoryColumnStore())
    return copy


def _own_segments() -> set[str]:
    """Live segments minted by this process's owner-mode stores."""
    prefix = f"loc-{os.getpid()}-"
    return {path.name for path in SHM_DIR.iterdir()
            if path.name.startswith(prefix)}


class TestAttachedBatchEquivalence:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_fork_attached_identical_to_lone(self, world, lone_answers,
                                             shards):
        dataset, queries = world
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=shards,
                            executor=ProcessShardExecutor(),
                            config=CONFIG) as cluster:
            assert dataset.table.store.is_shared
            assert cluster.locate_batch(queries) == lone_answers

    def test_spawn_attached_identical_to_lone(self, world, lone_answers):
        dataset, queries = world
        # Spawned workers import the world from scratch: keep it small.
        subset = queries[:8]
        with ShardedLocater(
                dataset.building, dataset.metadata, dataset.table,
                shard_count=2,
                executor=ProcessShardExecutor(start_method="spawn"),
                config=CONFIG) as cluster:
            assert cluster.locate_batch(subset) == lone_answers[:8]

    def test_in_process_over_shared_store_identical(self, world,
                                                    lone_answers):
        # A caller-built shared table under an in-process executor:
        # shards read the same table object as always.
        dataset, queries = world
        table = _shared_copy(dataset.table)
        try:
            with ShardedLocater(dataset.building, dataset.metadata,
                                table, shard_count=3,
                                executor=SerialShardExecutor(),
                                config=CONFIG) as cluster:
                assert cluster.locate_batch(queries) == lone_answers
        finally:
            table.close()


@needs_shm_dir
class TestSegmentOwnership:
    """The cluster unlinks what it created; the caller keeps its own."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_heap_table_moves_back_after_close(self, world, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        dataset, _ = world
        workload = streaming_day_workload(dataset, batches=2,
                                          queries_per_burst=3, seed=3)
        table = _warm_table(workload)
        before = _own_segments()
        try:
            with ShardedLocater(
                    dataset.building, dataset.metadata, table,
                    shard_count=2,
                    executor=ProcessShardExecutor(start_method=start_method),
                    config=CONFIG) as cluster:
                assert isinstance(table.store, SharedMemoryColumnStore)
                assert _own_segments() > before
                for batch in workload.batches:
                    cluster.ingest(batch.ingest)
            assert isinstance(table.store, HeapColumnStore)
            assert _own_segments() == before
            cold = EventTable.from_events(
                workload.events_through(workload.batches[-1].index))
            DeltaEstimator().fit_table(cold)
            assert table.ap_ids == cold.ap_ids
            assert table.macs() == cold.macs()
            for mac in cold.macs():
                mine, theirs = table.log(mac), cold.log(mac)
                assert mine.times.flags.writeable
                assert mine.ap_indices.flags.writeable
                assert mine.times.tobytes() == theirs.times.tobytes()
                assert mine.ap_indices.tobytes() == \
                    theirs.ap_indices.tobytes()
                assert table.registry.get(mac).delta == \
                    cold.registry.get(mac).delta
        finally:
            table.close()

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
    def test_caller_built_shared_table_stays_the_callers(
            self, world, lone_answers):
        dataset, queries = world
        before = _own_segments()
        table = _shared_copy(dataset.table)
        store = table.store
        published = _own_segments() - before
        assert published
        try:
            with ShardedLocater(dataset.building, dataset.metadata,
                                table, shard_count=2,
                                executor=ProcessShardExecutor(),
                                config=CONFIG) as cluster:
                assert cluster.locate_batch(queries[:8]) == \
                    lone_answers[:8]
            assert table.store is store
            assert store.is_shared and not store.closed
            assert published <= _own_segments()
        finally:
            table.close()
        assert _own_segments() == before

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
    def test_failed_start_moves_the_table_back(self, world, monkeypatch):
        dataset, _ = world
        workload = streaming_day_workload(dataset, batches=1,
                                          queries_per_burst=1, seed=3)
        table = _warm_table(workload)
        before = _own_segments()

        def broken(self, shard_id):
            raise RuntimeError(f"shard {shard_id} cannot attach")

        # Forked workers inherit the patch, so every worker fails.
        monkeypatch.setattr(_AttachedShardFactory, "__call__", broken)
        try:
            with pytest.raises(ClusterError, match="cannot attach"):
                ShardedLocater(
                    dataset.building, dataset.metadata, table,
                    shard_count=2,
                    executor=ProcessShardExecutor(start_method="fork"),
                    config=CONFIG)
            assert isinstance(table.store, HeapColumnStore)
            assert _own_segments() == before
        finally:
            table.close()

    def test_two_store_moves_keep_a_lone_locater_exact(self, world,
                                                       lone_answers):
        # A lone system over the table answers bitwise the same before,
        # during and after a process cluster moves the table into shared
        # memory and back.
        dataset, queries = world
        table = dataset.table.restrict(dataset.table.span())
        lone = Locater(dataset.building, dataset.metadata, table,
                       config=CONFIG)
        try:
            assert lone.locate_batch(queries) == lone_answers
            with ShardedLocater(dataset.building, dataset.metadata,
                                table, shard_count=2,
                                executor=ProcessShardExecutor(),
                                config=CONFIG) as cluster:
                assert table.store.is_shared
                assert lone.locate_batch(queries) == lone_answers
                assert cluster.locate_batch(queries) == lone_answers
            assert isinstance(table.store, HeapColumnStore)
            assert lone.locate_batch(queries) == lone_answers
        finally:
            table.close()


class TestMemoryAccounting:
    def test_attached_shards_cost_one_copy(self, world):
        dataset, queries = world
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4,
                            executor=ProcessShardExecutor(),
                            config=CONFIG) as cluster:
            cluster.locate_batch(queries[:6])  # force workers to map logs
            memory = cluster.table_memory()
            parent_bytes = memory["parent"]["column_bytes"]
            assert memory["parent"]["kind"] == "shared"
            assert parent_bytes > 0
            # Every shard maps the parent's segments: the deployment
            # holds 1× the column bytes regardless of shard count.
            for shard in memory["shards"]:
                assert shard["kind"] == "shared-attached"
                assert shard["column_bytes"] == parent_bytes


class TestAttachedStreaming:
    def test_sync_fanout_matches_cold_rebuild(self, world):
        dataset, _ = world
        workload = streaming_day_workload(dataset, batches=3,
                                          queries_per_burst=5, seed=3)
        table = _warm_table(workload)
        try:
            with ShardedLocater(dataset.building, dataset.metadata,
                                table, shard_count=4,
                                executor=ProcessShardExecutor(),
                                config=CONFIG) as cluster:
                for batch in workload.batches:
                    report = cluster.ingest(batch.ingest)
                    assert report.count == len(batch.ingest)
                    # Each sync leaves every worker on the parent's one
                    # copy: 1.00x the column bytes at 4 shards.
                    memory = cluster.table_memory()
                    for shard in memory["shards"]:
                        assert shard["kind"] == "shared-attached"
                        assert shard["column_bytes"] == \
                            memory["parent"]["column_bytes"]
                    cold_table = EventTable.from_events(
                        workload.events_through(batch.index))
                    DeltaEstimator().fit_table(cold_table)
                    cold = Locater(dataset.building, dataset.metadata,
                                   cold_table, config=CONFIG)
                    assert cluster.locate_batch(batch.queries) == \
                        cold.locate_batch(batch.queries)
                # Workers applied one sync per tick that merged rows,
                # and the attached views track the authoritative table
                # exactly.
                for stats in cluster.shard_stats():
                    assert stats["table_syncs"] == sum(
                        1 for batch in workload.batches if batch.ingest)
                    assert stats["events"] == len(table)
        finally:
            table.close()


class TestAttachedTableViews:
    @pytest.fixture()
    def owner(self, world):
        dataset, _ = world
        workload = streaming_day_workload(dataset, batches=2,
                                          queries_per_burst=1, seed=7)
        table = EventTable.from_events(workload.warmup,
                                       store=SharedMemoryColumnStore())
        DeltaEstimator().fit_table(table)
        yield table, workload
        table.close()

    def test_attached_view_reads_identical_and_is_read_only(self, owner):
        table, workload = owner
        view = EventTable.attach(table.describe())
        try:
            assert view.macs() == table.macs()
            for mac in table.macs():
                mine, theirs = view.log(mac), table.log(mac)
                assert mine.times.tobytes() == theirs.times.tobytes()
                assert mine.ap_indices.tobytes() == \
                    theirs.ap_indices.tobytes()
            with pytest.raises(EventTableError):
                view.append(workload.batches[0].ingest[0])
        finally:
            view.close()

    def test_view_change_feed_matches_the_owners(self, world):
        # Process shards invalidate from their view's changed_since, so
        # after every sync the view's feed must be the owner's, for
        # every generation a consumer could have seen: per-ingest syncs,
        # a sync spanning two ingests, and one that registers a device.
        dataset, _ = world
        workload = streaming_day_workload(dataset, batches=3,
                                          queries_per_burst=1, seed=7)
        table = EventTable.from_events(workload.warmup,
                                       store=SharedMemoryColumnStore())
        engine = IngestionEngine(table)
        view = EventTable.attach(table.describe())
        last = workload.batches[-1].ingest[-1]
        newcomer = ConnectivityEvent(last.timestamp + 60.0, "newcomer",
                                     last.ap_id)
        rounds = [[workload.batches[0].ingest],
                  [workload.batches[1].ingest, workload.batches[2].ingest],
                  [[newcomer]]]
        try:
            for ingests in rounds:
                base = view.generation
                for events in ingests:
                    engine.ingest(events)
                view.apply_sync(table.sync_payload(base))
                assert view.generation == table.generation
                for generation in range(table.generation + 1):
                    assert view.changed_since(generation) == \
                        table.changed_since(generation)
            assert set(view.changed_since(table.generation - 1)) == \
                {"newcomer"}
            assert view.macs() == table.macs()
        finally:
            view.close()
            table.close()

    def test_apply_sync_rejects_generation_divergence(self, owner):
        table, workload = owner
        view = EventTable.attach(table.describe())
        try:
            base = table.generation
            table.extend(workload.batches[0].ingest)
            table.freeze()
            table.extend(workload.batches[1].ingest)
            table.freeze()
            # A view that missed the first sync must not apply the
            # second: its base generation no longer matches.
            stale = table.sync_payload(table.generation - 1)
            with pytest.raises(EventTableError):
                view.apply_sync(stale)
            # The full catch-up sync (from the view's actual base) works.
            view.apply_sync(table.sync_payload(base))
            assert view.generation == table.generation
            assert len(view) == len(table)
        finally:
            view.close()
