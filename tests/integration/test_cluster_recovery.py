"""Cluster recovery suite: resurrection, degradation, quarantine.

Companion to ``test_cluster_equivalence.py``'s chaos class: that suite
proves a recovered cluster is bitwise-indistinguishable from an
uninterrupted one; this one exercises the rest of the fault-tolerance
story — repeated kills within the restart budget, hung workers, kills
landing in ingest fan-outs, attached-table resurrection against the
*current* segments, and both degradation modes once a shard's budget is
exhausted (typed error vs parent-side fallback).  Every comparison is
still against a control running the identical workload shape: graceful
degradation must leave the surviving shards bitwise-unchanged.
"""

from __future__ import annotations

import multiprocessing

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
from repro.errors import ShardQuarantinedError
from repro.eval.queries import generated_query_set, labeled_query_set
from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.events.validity import DeltaEstimator
from repro.sim.scenarios import (
    isolated_campus_dataset,
    streaming_day_workload,
)
from repro.system.config import LocaterConfig
from repro.system.locater import Locater
from repro.system.storage import InMemoryStorage
from repro.util.timeutil import SECONDS_PER_DAY

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def chaos_world():
    # Three affinity components over the shards (see the equivalence
    # suite's isolated_world): killing the busiest shard leaves other
    # components' devices genuinely unaffected.
    dataset = isolated_campus_dataset(buildings=3, population=24,
                                      days=3, seed=17)
    queries = labeled_query_set(dataset, per_device=2, seed=2)
    queries += generated_query_set(dataset, count=40, seed=5)
    return dataset, queries


def _component_router(dataset, table=None):
    table = table if table is not None else dataset.table
    return ComponentAffinityRouter.from_table(table, dataset.building)


def _busiest_shard(probe_router, queries, shard_count):
    owners: dict[int, int] = {}
    for query in queries:
        shard_id = probe_router.shard_of(query.mac, shard_count)
        owners[shard_id] = owners.get(shard_id, 0) + 1
    return max(owners, key=lambda shard_id: (owners[shard_id], -shard_id))


def _split(queries, parts):
    size = len(queries) // parts
    chunks = [queries[i * size:(i + 1) * size] for i in range(parts - 1)]
    chunks.append(queries[(parts - 1) * size:])
    return chunks


class TestRecovery:
    @pytest.mark.parametrize("executor", [
        pytest.param(SerialShardExecutor, id="serial"),
        pytest.param(ProcessShardExecutor, id="process",
                     marks=pytest.mark.skipif(not FORK_AVAILABLE,
                                              reason="fork unavailable")),
    ])
    def test_budget_absorbs_repeated_kills_bitwise(self, chaos_world,
                                                   executor):
        # Two scripted kills of the same shard, both within the default
        # budget: two recovery episodes, zero quarantines, and the
        # checkpoint restore keeps even the cache counters exact.  On
        # process shards each kill is a real SIGKILL of the worker.
        dataset, queries = chaos_world
        thirds = _split(queries, 3)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4) as control:
            expected = [control.locate_batch(third) for third in thirds]
            expected_totals = control.cache_stats().total
        victim = _busiest_shard(_component_router(dataset), queries, 4)
        # Dispatch indices to the victim: 0 = first batch, 1 = second
        # batch (kill #1 fires), 2 = the recovery re-dispatch of the
        # second batch's slice, 3 = third batch (kill #2 fires).
        plan = FaultPlan([
            Fault(shard_id=victim, kind="kill",
                  method="locate_batch", call_index=1),
            Fault(shard_id=victim, kind="kill",
                  method="locate_batch", call_index=3),
        ])
        injector = FaultInjectingExecutor(executor(), plan)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4,
                            executor=injector,
                            recovery=RecoveryPolicy(max_restarts=2,
                                                    backoff=(0.0,))
                            ) as cluster:
            assert [cluster.locate_batch(third)
                    for third in thirds] == expected
            assert cluster.cache_stats().total == expected_totals
            assert plan.exhausted
            assert cluster.quarantined == frozenset()
            assert cluster.supervisor.restarts == {victim: 2}
            assert [episode.outcome for episode
                    in cluster.recovery_events] == ["recovered"] * 2

    def test_resurrected_shard_finds_no_pre_ingest_answer(
            self, chaos_world):
        # Regression: a shard resurrected after an ingest but before its
        # next serve starts with nothing to catch up on, so the cluster
        # must have purged its namespace already — else its exact
        # repeats short-circuit to answers cleaned before the merge.
        dataset, queries = chaos_world
        # chaos_world is module-scoped: ingest into a private copy.
        table = dataset.table.restrict(dataset.table.span())
        config = LocaterConfig(use_caching=False)
        # Never fed: the hash routes of a caching-off cluster.
        probe = ComponentAffinityRouter(dataset.building)
        victim = _busiest_shard(probe, queries, 4)
        devices = sorted({query.mac for query in queries
                          if probe.shard_of(query.mac, 4) == victim})
        # Dispatch indices to the victim: 0 = the warm-up batch, 1 = the
        # first batch after the ingest (the kill fires before it runs).
        plan = FaultPlan([Fault(shard_id=victim, kind="kill",
                                method="locate_batch", call_index=1)])
        storage = InMemoryStorage()
        with ShardedLocater(
                dataset.building, dataset.metadata, table, shard_count=4,
                executor=FaultInjectingExecutor(SerialShardExecutor(), plan),
                config=config, storage=storage,
                recovery=RecoveryPolicy(backoff=(0.0,))) as cluster:
            cluster.locate_batch(queries)  # every answer stored
            start = table.span().end + SECONDS_PER_DAY
            cluster.ingest([
                ConnectivityEvent(timestamp=start + i * 60.0, mac=mac,
                                  ap_id=table.log(mac).ap_at(
                                      len(table.log(mac)) - 1))
                for i, mac in enumerate(devices)])
            repeats = cluster.locate_batch(queries)
            assert plan.exhausted
            assert cluster.supervisor.restarts == {victim: 1}
        cold = Locater(dataset.building, dataset.metadata, table,
                       config=config)
        assert repeats == cold.locate_batch(queries)

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
    def test_hung_worker_recovery_is_bitwise(self, chaos_world):
        # SIGSTOP instead of SIGKILL: the dispatch times out, the wedged
        # worker is retired (terminate escalating to kill — SIGTERM
        # alone stays pending on a stopped process) and the replacement
        # serves the same bytes.
        dataset, queries = chaos_world
        halves = _split(queries, 2)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=2) as control:
            expected = [control.locate_batch(half) for half in halves]
            expected_totals = control.cache_stats().total
        victim = _busiest_shard(_component_router(dataset), queries, 2)
        plan = FaultPlan([Fault(shard_id=victim, kind="hang",
                                method="locate_batch", call_index=1)])
        executor = FaultInjectingExecutor(
            ProcessShardExecutor(call_timeout=0.5), plan)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=2,
                            executor=executor,
                            recovery=RecoveryPolicy(backoff=(0.0,))
                            ) as cluster:
            assert [cluster.locate_batch(half)
                    for half in halves] == expected
            assert cluster.cache_stats().total == expected_totals
            [episode] = cluster.recovery_events
            assert episode.shard_id == victim
            assert episode.outcome == "recovered"
            assert "did not answer" in episode.error

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
    def test_kill_during_sync_fanout_keeps_views_consistent(
            self, small_dataset):
        # The kill lands in the ingest's table-sync fan-out itself.  The
        # supervisor must *not* re-dispatch apply_table_sync to the
        # replacement (it attached the already-merged segments: a
        # replay would miss its base generation) — SKIP_AFTER_RESTART
        # covers this — and every attached view must end up tracking
        # the authoritative table.
        dataset = small_dataset
        workload = streaming_day_workload(dataset, batches=3,
                                          queries_per_burst=6, seed=3)
        config = LocaterConfig(use_caching=False)

        def warm_table():
            table = EventTable.from_events(workload.warmup)
            DeltaEstimator().fit_table(table)
            return table

        control_table = warm_table()
        expected = []
        with ShardedLocater(dataset.building, dataset.metadata,
                            control_table, shard_count=3,
                            config=config) as control:
            for batch in workload.batches:
                control.ingest(batch.ingest)
                expected.append(control.locate_batch(batch.queries))
        chaos_table = warm_table()
        # Never fed: the hash route of a caching-off cluster.
        victim = _busiest_shard(ComponentAffinityRouter(dataset.building),
                                workload.batches[1].queries, 3)
        plan = FaultPlan([Fault(shard_id=victim, kind="kill",
                                method="apply_table_sync", call_index=1)])
        executor = FaultInjectingExecutor(ProcessShardExecutor(), plan)
        with ShardedLocater(dataset.building, dataset.metadata,
                            chaos_table, shard_count=3, config=config,
                            executor=executor,
                            recovery=RecoveryPolicy(backoff=(0.0,))
                            ) as cluster:
            got = []
            for batch in workload.batches:
                cluster.ingest(batch.ingest)
                got.append(cluster.locate_batch(batch.queries))
            assert got == expected
            assert plan.exhausted
            [episode] = cluster.recovery_events
            assert episode.method == "apply_table_sync"
            assert episode.outcome == "recovered"
            # Every view — the resurrected one included — tracks the
            # authoritative table exactly.
            for stats in cluster.shard_stats():
                assert stats["events"] == len(cluster.table)
                assert stats["devices"] == cluster.table.device_count

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
    def test_attached_worker_resurrects_against_current_segments(
            self, small_dataset):
        # The dead worker's replacement must map the table's *current*
        # shared-memory segments — the start-time descriptor went stale
        # at the first ingest — which is exactly what the supervisor's
        # factory_provider exists for.
        dataset = small_dataset
        workload = streaming_day_workload(dataset, batches=3,
                                          queries_per_burst=6, seed=3)

        def warm_table():
            table = EventTable.from_events(workload.warmup)
            DeltaEstimator().fit_table(table)
            return table

        control_table = warm_table()
        expected = []
        with ShardedLocater(dataset.building, dataset.metadata,
                            control_table, shard_count=2) as control:
            for batch in workload.batches:
                control.ingest(batch.ingest)
                expected.append(control.locate_batch(batch.queries))
            expected_totals = control.cache_stats().total
        chaos_table = warm_table()
        victim = _busiest_shard(
            _component_router(dataset, chaos_table),
            workload.batches[1].queries, 2)
        plan = FaultPlan([Fault(shard_id=victim, kind="kill",
                                method="locate_batch", call_index=1)])
        executor = FaultInjectingExecutor(ProcessShardExecutor(), plan)
        try:
            with ShardedLocater(dataset.building, dataset.metadata,
                                chaos_table, shard_count=2,
                                executor=executor,
                                recovery=RecoveryPolicy(backoff=(0.0,))
                                ) as cluster:
                got = []
                for batch in workload.batches:
                    cluster.ingest(batch.ingest)
                    got.append(cluster.locate_batch(batch.queries))
                assert got == expected
                assert cluster.cache_stats().total == expected_totals
                [episode] = cluster.recovery_events
                assert episode.shard_id == victim
                assert episode.outcome == "recovered"
        finally:
            chaos_table.close()


def _slices(cluster, queries):
    """(shard id, slice) pairs: ``queries`` routed as a gateway routes."""
    parts: dict[int, list] = {}
    for query in queries:
        parts.setdefault(cluster.shard_of(query.mac), []).append(query)
    return sorted(parts.items())


class TestSliceDispatch:
    """``locate_slice`` (the gateway's per-lane entry) under supervision.

    A slice reaches one shard through ``Shard.locate_batch``, without
    the fan-out of ``locate_batch``, so its resurrect and degrade
    branches are checked on their own.
    """

    @pytest.mark.parametrize("executor", [
        pytest.param(SerialShardExecutor, id="serial"),
        pytest.param(ProcessShardExecutor, id="process",
                     marks=pytest.mark.skipif(not FORK_AVAILABLE,
                                              reason="fork unavailable")),
    ])
    def test_killed_slice_recovers_bitwise(self, chaos_world, executor):
        dataset, queries = chaos_world
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4) as control:
            slices = _slices(control, queries)
            expected = [[control.locate_slice(shard_id, part)
                         for shard_id, part in slices] for _ in range(2)]
            expected_totals = control.cache_stats().total
        victim = _busiest_shard(_component_router(dataset), queries, 4)
        # Dispatch indices to the victim: 0 = its first slice, 1 = its
        # second slice (the kill fires), 2 = the recovery re-dispatch.
        plan = FaultPlan([Fault(shard_id=victim, kind="kill",
                                method="locate_batch", call_index=1)])
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4,
                            executor=FaultInjectingExecutor(executor(),
                                                            plan),
                            recovery=RecoveryPolicy(backoff=(0.0,))
                            ) as cluster:
            assert _slices(cluster, queries) == slices
            assert [[cluster.locate_slice(shard_id, part)
                     for shard_id, part in slices]
                    for _ in range(2)] == expected
            assert cluster.cache_stats().total == expected_totals
            assert plan.exhausted
            assert cluster.supervisor.restarts == {victim: 1}

    @pytest.mark.parametrize("degraded", ["error", "fallback"])
    def test_quarantined_slice_degrades_alone(self, chaos_world, degraded):
        dataset, queries = chaos_world
        victim = _busiest_shard(_component_router(dataset), queries, 4)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4) as control:
            slices = _slices(control, queries)
            orphans = dict(slices)[victim]
            survivors = [(shard_id, part) for shard_id, part in slices
                         if shard_id != victim]
            assert survivors
            expected = [control.locate_slice(shard_id, part)
                        for shard_id, part in survivors]
            control_per_shard = control.cache_stats().per_shard
        plan = FaultPlan([Fault(shard_id=victim, kind="kill",
                                method="locate_batch", call_index=0)])
        with ShardedLocater(
                dataset.building, dataset.metadata, dataset.table,
                shard_count=4,
                executor=FaultInjectingExecutor(SerialShardExecutor(), plan),
                recovery=RecoveryPolicy(max_restarts=0, backoff=(0.0,),
                                        degraded=degraded)) as cluster:
            if degraded == "error":
                with pytest.raises(ShardQuarantinedError) as excinfo:
                    cluster.locate_slice(victim, orphans)
                assert excinfo.value.shard_id == victim
            else:
                # The fallback is a cache-less lone system over the
                # authoritative table.
                fallback_control = Locater(
                    dataset.building, dataset.metadata, dataset.table,
                    config=LocaterConfig(use_caching=False))
                assert cluster.locate_slice(victim, orphans) == \
                    fallback_control.locate_batch(orphans)
            assert cluster.quarantined == {victim}
            assert [cluster.locate_slice(shard_id, part)
                    for shard_id, part in survivors] == expected
            per_shard = cluster.cache_stats().per_shard
            for shard_id in range(4):
                if shard_id == victim:
                    assert per_shard[shard_id] is None
                else:
                    assert per_shard[shard_id] == \
                        control_per_shard[shard_id]


class TestDegradation:
    """Restart budget exhausted: only the dead shard's devices degrade."""

    def _quarantine_setup(self, chaos_world, degraded):
        dataset, queries = chaos_world
        probe = _component_router(dataset)
        victim = _busiest_shard(probe, queries, 4)
        survivors = [query for query in queries
                     if probe.shard_of(query.mac, 4) != victim]
        orphans = [query for query in queries
                   if probe.shard_of(query.mac, 4) == victim]
        assert survivors and orphans
        plan = FaultPlan([Fault(shard_id=victim, kind="kill",
                                method="locate_batch", call_index=0)])
        executor = FaultInjectingExecutor(SerialShardExecutor(), plan)
        cluster = ShardedLocater(
            dataset.building, dataset.metadata, dataset.table,
            shard_count=4, executor=executor,
            recovery=RecoveryPolicy(max_restarts=0, backoff=(0.0,),
                                    degraded=degraded))
        return dataset, queries, victim, survivors, orphans, cluster

    def test_error_mode_quarantine_isolates_the_dead_shard(
            self, chaos_world):
        dataset, queries, victim, survivors, orphans, cluster = \
            self._quarantine_setup(chaos_world, degraded="error")
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4) as control:
            control.locate_batch(queries)
            expected_survivors = control.locate_batch(survivors)
            control_per_shard = control.cache_stats().per_shard
        with cluster:
            with pytest.raises(ShardQuarantinedError) as excinfo:
                cluster.locate_batch(queries)
            assert excinfo.value.shard_id == victim
            # The error names the offline devices, so operators can see
            # the blast radius without grepping logs.
            assert orphans[0].mac in str(excinfo.value)
            assert cluster.quarantined == {victim}
            assert cluster.recovery_events[-1].outcome == "quarantined"
            # Surviving shards keep serving — bitwise-unchanged, down
            # to their per-shard cache counters.
            assert cluster.locate_batch(survivors) == expected_survivors
            per_shard = cluster.cache_stats().per_shard
            for shard_id in range(4):
                if shard_id == victim:
                    assert per_shard[shard_id] is None
                else:
                    assert per_shard[shard_id] == \
                        control_per_shard[shard_id]
            # Single-query paths degrade to the same typed error.
            with pytest.raises(ShardQuarantinedError):
                cluster.locate(orphans[0].mac, orphans[0].timestamp)

    def test_fallback_mode_serves_full_quality_answers(self, chaos_world):
        dataset, queries, victim, survivors, orphans, cluster = \
            self._quarantine_setup(chaos_world, degraded="fallback")
        probe = _component_router(dataset)
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4) as control:
            expected_first = control.locate_batch(queries)
            expected_second = control.locate_batch(queries)
            control_per_shard = control.cache_stats().per_shard
        # The fallback is deliberately cache-less (so the surviving
        # shards' counters stay exact), and cached serving legitimately
        # shapes answers — warm affinity state changes how far the fine
        # pre-pass walks neighbors — so the orphaned slice is compared
        # against a cache-less lone system, not the cached control.
        fallback_control = Locater(
            dataset.building, dataset.metadata, dataset.table,
            config=LocaterConfig(use_caching=False))
        orphan_indices = {index for index, query in enumerate(queries)
                          if probe.shard_of(query.mac, 4) == victim}
        expected_orphan = dict(zip(
            sorted(orphan_indices),
            fallback_control.locate_batch(
                [queries[index] for index in sorted(orphan_indices)])))
        with cluster:
            # The victim dies on the first batch, exhausts its (zero)
            # budget and degrades to the parent-side fallback: every
            # query is still answered — survivors bitwise the control's,
            # orphans bitwise the cache-less lone system's.
            got_first = cluster.locate_batch(queries)
            assert cluster.quarantined == {victim}
            assert cluster.recovery_events[-1].outcome == "quarantined"
            got_second = cluster.locate_batch(queries)
            for got, expected in ((got_first, expected_first),
                                  (got_second, expected_second)):
                for index in range(len(queries)):
                    if index in orphan_indices:
                        assert got[index] == expected_orphan[index]
                    else:
                        assert got[index] == expected[index]
            per_shard = cluster.cache_stats().per_shard
            for shard_id in range(4):
                if shard_id == victim:
                    assert per_shard[shard_id] is None
                else:
                    assert per_shard[shard_id] == \
                        control_per_shard[shard_id]
            # Single queries for orphaned devices flow through the
            # fallback too.
            assert cluster.locate(
                orphans[0].mac, orphans[0].timestamp) == \
                fallback_control.locate(orphans[0].mac,
                                        orphans[0].timestamp)

    def test_fallback_catches_up_with_an_ingest(self, chaos_world):
        # Regression: the parent-side fallback reads the authoritative
        # table, but while freshness was pushed nothing told it about
        # an ingest, so it kept serving what it had trained before.
        dataset, queries = chaos_world
        # chaos_world is module-scoped: ingest into a private copy.
        table = dataset.table.restrict(dataset.table.span())
        config = LocaterConfig(use_caching=False)
        # Never fed: the hash routes of a caching-off cluster.
        probe = ComponentAffinityRouter(dataset.building)
        victim = _busiest_shard(probe, queries, 4)
        orphans = [query for query in queries
                   if probe.shard_of(query.mac, 4) == victim]
        plan = FaultPlan([Fault(shard_id=victim, kind="kill",
                                method="locate_batch", call_index=0)])
        with ShardedLocater(
                dataset.building, dataset.metadata, table, shard_count=4,
                executor=FaultInjectingExecutor(SerialShardExecutor(), plan),
                config=config,
                recovery=RecoveryPolicy(max_restarts=0, backoff=(0.0,),
                                        degraded="fallback")) as cluster:
            cluster.locate_batch(queries)  # quarantine; warm the fallback
            assert cluster.quarantined == {victim}
            # The orphans' devices come back a day past the span.
            start = table.span().end + SECONDS_PER_DAY
            devices = sorted({query.mac for query in orphans})
            cluster.ingest([
                ConnectivityEvent(timestamp=start + i * 60.0, mac=mac,
                                  ap_id=table.log(mac).ap_at(
                                      len(table.log(mac)) - 1))
                for i, mac in enumerate(devices)])
            cold = Locater(dataset.building, dataset.metadata, table,
                           config=config)
            assert cluster.locate_batch(orphans) == \
                cold.locate_batch(orphans)
