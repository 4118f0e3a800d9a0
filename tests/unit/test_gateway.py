"""Unit tests for the async gateway: admission, lanes, lifecycle.

The equivalence story (any interleaving ≡ plain ``locate_batch``)
lives in ``tests/integration/test_gateway_equivalence.py``; this file
covers the serving mechanics around it — typed shedding at the
admission bound, the ``ready()`` backpressure signal, close semantics,
configuration validation and the cluster's ``locate_slice`` dispatch
surface the lanes are built on.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import ShardedLocater
from repro.errors import (
    ClusterError,
    ConfigurationError,
    GatewayClosedError,
    GatewayOverloadedError,
    UnknownDeviceError,
)
from repro.serve import AsyncGateway, GatewayStats, WindowRecord
from repro.system.config import LocaterConfig
from repro.system.locater import Locater
from repro.system.query import LocationQuery


@pytest.fixture
def lone(fig1_building, fig1_metadata, fig1_table):
    return Locater(fig1_building, fig1_metadata, fig1_table,
                   config=LocaterConfig(use_caching=False))


@pytest.fixture
def queries(fig1_table):
    span = fig1_table.span()
    step = (span.end - span.start) / 9
    return [LocationQuery(mac=mac, timestamp=span.start + i * step)
            for i in range(8) for mac in ("d1", "d2", "d3")]


class TestConfiguration:
    def test_rejects_bad_parameters(self, lone):
        with pytest.raises(ConfigurationError, match="max_wait"):
            AsyncGateway(lone, max_wait=-0.1)
        with pytest.raises(ConfigurationError, match="max_batch"):
            AsyncGateway(lone, max_batch=0)
        with pytest.raises(ConfigurationError, match="max_pending"):
            AsyncGateway(lone, max_pending=0)

    def test_journal_requires_opt_in(self, lone):
        gateway = AsyncGateway(lone)
        with pytest.raises(ConfigurationError, match="journal=True"):
            gateway.journal

    def test_lane_count_follows_backend(self, lone, fig1_building,
                                        fig1_metadata, fig1_table):
        assert AsyncGateway(lone).lane_count == 1
        with ShardedLocater(fig1_building, fig1_metadata, fig1_table,
                            shard_count=3,
                            config=LocaterConfig(use_caching=False)) \
                as cluster:
            assert AsyncGateway(cluster).lane_count == 3


class TestAdmissionControl:
    def test_sheds_past_the_bound_with_typed_error(self, lone, queries):
        # A wide-open window (nothing executes before max_wait) pins
        # the first max_pending queries in flight; the next submission
        # must be rejected immediately, not queued.
        gateway = AsyncGateway(lone, max_wait=0.2, max_batch=1024,
                               max_pending=4)

        async def main():
            async with gateway:
                tasks = [asyncio.ensure_future(
                    gateway.locate_query(q)) for q in queries[:4]]
                for _ in range(4):
                    await asyncio.sleep(0)
                assert gateway.pending == 4
                assert gateway.overloaded
                with pytest.raises(GatewayOverloadedError) as err:
                    await gateway.locate_query(queries[4])
                assert err.value.depth == 4
                assert err.value.limit == 4
                await asyncio.gather(*tasks)

        asyncio.run(main())
        stats = gateway.stats()
        assert stats.shed == 1
        assert stats.completed == 4
        assert stats.pending == 0
        assert stats.pending_peak == 4  # never past the bound

    def test_ready_blocks_until_backpressure_clears(self, lone, queries):
        gateway = AsyncGateway(lone, max_wait=0.05, max_batch=1024,
                               max_pending=2)

        async def main():
            async with gateway:
                tasks = [asyncio.ensure_future(
                    gateway.locate_query(q)) for q in queries[:2]]
                for _ in range(4):
                    await asyncio.sleep(0)
                waiter = asyncio.ensure_future(gateway.ready())
                await asyncio.sleep(0)
                assert not waiter.done()  # admission is full
                await asyncio.gather(*tasks)  # the window drains
                await asyncio.wait_for(waiter, timeout=5.0)
                # Admission is open again.
                await gateway.locate_query(queries[3])

        asyncio.run(main())
        assert gateway.stats().shed == 0

    def test_full_window_executes_without_waiting(self, lone, queries):
        # max_batch bounds the window even under a long max_wait: once
        # full it executes immediately, so callers are not held to the
        # timer.
        gateway = AsyncGateway(lone, max_wait=30.0, max_batch=4,
                               journal=True)

        async def main():
            async with gateway:
                return await asyncio.wait_for(
                    asyncio.gather(*(gateway.locate_query(q)
                                     for q in queries[:8])),
                    timeout=10.0)

        answers = asyncio.run(main())
        assert len(answers) == 8
        stats = gateway.stats()
        assert stats.coalesced_max <= 4
        assert all(len(record.queries) <= 4
                   for record in gateway.journal
                   if isinstance(record, WindowRecord))


class TestCloseSemantics:
    def test_close_is_idempotent_and_concurrent_safe(self, lone):
        gateway = AsyncGateway(lone)

        async def main():
            await gateway.start()
            await asyncio.gather(gateway.close(), gateway.close())
            await gateway.close()

        asyncio.run(main())

    def test_serving_after_close_raises_typed(self, lone, queries):
        gateway = AsyncGateway(lone)

        async def main():
            async with gateway:
                await gateway.locate_query(queries[0])
            with pytest.raises(GatewayClosedError):
                await gateway.locate_query(queries[1])
            with pytest.raises(GatewayClosedError):
                await gateway.start()

        asyncio.run(main())

    def test_admitted_queries_never_hang_across_close(self, lone,
                                                      queries):
        # Every in-flight query resolves: answered by the draining
        # workers or failed with GatewayClosedError — never stuck.
        gateway = AsyncGateway(lone, max_wait=0.02, max_batch=4)

        async def main():
            await gateway.start()
            tasks = [asyncio.ensure_future(gateway.locate_query(q))
                     for q in queries]
            await asyncio.sleep(0)
            await gateway.close()
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(main())
        assert len(results) == len(queries)
        for outcome in results:
            assert not isinstance(outcome, Exception) or \
                isinstance(outcome, GatewayClosedError)
        assert gateway.pending == 0

    def test_backend_stays_open(self, lone, queries):
        gateway = AsyncGateway(lone)

        async def main():
            async with gateway:
                await gateway.locate_query(queries[0])

        asyncio.run(main())
        # The caller owns the backend; the gateway must not close it.
        assert lone.locate_batch(queries[:2])

    def test_implicit_start_on_first_use(self, lone, queries):
        gateway = AsyncGateway(lone)

        async def main():
            answer = await gateway.locate_query(queries[0])
            await gateway.close()
            return answer

        assert asyncio.run(main()) == lone.locate_batch(
            [queries[0]])[0]


class TestStats:
    def test_counters_add_up(self, lone, queries):
        gateway = AsyncGateway(lone, max_wait=0.002, max_batch=8)

        async def main():
            async with gateway:
                await asyncio.gather(*(gateway.locate_query(q)
                                       for q in queries))

        asyncio.run(main())
        stats = gateway.stats()
        assert stats.submitted == stats.completed == len(queries)
        assert stats.failed == 0
        assert 1 <= stats.windows <= len(queries)
        assert stats.coalescing == pytest.approx(
            len(queries) / stats.windows)
        assert stats.coalesced_max <= 8
        assert stats.ingests == 0

    def test_zero_window_coalescing_is_defined(self):
        stats = GatewayStats(submitted=0, completed=0, failed=0, shed=0,
                             windows=0, ingests=0, pending=0,
                             pending_peak=0, coalesced_max=0)
        assert stats.coalescing == 0.0


class TestUnknownDevice:
    """A never-seen MAC fails its own caller, not its window."""

    @pytest.fixture(params=["lone", "two_shards"])
    def backend(self, request, lone, fig1_building, fig1_metadata,
                fig1_table):
        if request.param == "lone":
            yield lone
            return
        with ShardedLocater(fig1_building, fig1_metadata, fig1_table,
                            shard_count=2,
                            config=LocaterConfig(use_caching=False)) \
                as cluster:
            yield cluster

    def test_unknown_mac_fails_alone(self, backend, fig1_building,
                                     fig1_metadata, fig1_table, queries):
        valid = queries[4]
        unknown = LocationQuery(mac="never-seen", timestamp=valid.timestamp)
        expected = Locater(
            fig1_building, fig1_metadata, fig1_table,
            config=LocaterConfig(use_caching=False)).locate_batch([valid])
        # Both wait in one open window (max_wait) if both are admitted.
        gateway = AsyncGateway(backend, max_wait=0.05, journal=True)

        async def main():
            async with gateway:
                return await asyncio.gather(
                    gateway.locate_query(valid),
                    gateway.locate_query(unknown), return_exceptions=True)

        answer, error = asyncio.run(main())
        assert isinstance(error, UnknownDeviceError)
        assert [answer] == expected
        windows = [record for record in gateway.journal
                   if isinstance(record, WindowRecord)]
        assert [q for window in windows for q in window.queries] == [valid]
        stats = gateway.stats()
        assert stats.failed == 0
        assert stats.submitted == stats.completed == 1


class TestLocateSlice:
    """The per-shard dispatch surface the gateway's lanes are built on."""

    @pytest.fixture
    def cluster(self, fig1_building, fig1_metadata, fig1_table):
        with ShardedLocater(fig1_building, fig1_metadata, fig1_table,
                            shard_count=2,
                            config=LocaterConfig(use_caching=False)) \
                as cluster:
            yield cluster

    def test_empty_slice_is_a_no_op(self, cluster):
        assert cluster.locate_slice(0, []) == []

    def test_slice_matches_full_batch(self, cluster, lone, queries):
        expected = dict(zip(
            [(q.mac, q.timestamp) for q in queries],
            lone.locate_batch(queries)))
        for shard_id in range(cluster.shard_count):
            mine = [q for q in queries
                    if cluster.shard_of(q.mac) == shard_id]
            answers = cluster.locate_slice(shard_id, mine)
            assert answers == [expected[(q.mac, q.timestamp)]
                               for q in mine]

    def test_closed_cluster_raises(self, fig1_building, fig1_metadata,
                                   fig1_table, queries):
        cluster = ShardedLocater(fig1_building, fig1_metadata,
                                 fig1_table, shard_count=2,
                                 config=LocaterConfig(use_caching=False))
        cluster.close()
        with pytest.raises(ClusterError):
            cluster.locate_slice(0, queries[:1])
