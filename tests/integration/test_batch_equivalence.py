"""Equivalence suite: ``locate_batch`` vs the sequential ``locate`` path.

The batch engine's contract is *bitwise* equivalence: for any batch, the
answers must be exactly what a fresh system produces by calling
``locate`` once per query in the plan's execution order — including the
caching engine's hit/miss counters, the global graph contents, and the
answers persisted to storage.  This suite enforces that contract across
three simulator scenarios, both fine modes, and a storage-backed run
with duplicate queries.
"""

from __future__ import annotations

import pytest

from repro.cluster import ShardedLocater
from repro.errors import UnknownDeviceError
from repro.eval.queries import generated_query_set, labeled_query_set
from repro.fine.localizer import FineMode
from repro.sim.scenarios import ScenarioSpec
from repro.sim.simulator import Simulator
from repro.system.config import LocaterConfig
from repro.system.locater import Locater
from repro.system.planner import plan_queries
from repro.system.query import LocationQuery
from repro.system.storage import InMemoryStorage
from repro.system.streaming import StreamingSession


def _dataset(name: str):
    if name == "dbh":
        spec = ScenarioSpec.dbh_like(seed=13, population=8)
    else:
        spec = ScenarioSpec.by_name(name, seed=13).scaled(0.25)
    return Simulator(spec).run(days=3)


def _mixed_queries(dataset, seed: int = 5):
    queries = labeled_query_set(dataset, per_device=4, seed=seed)
    queries += generated_query_set(dataset, count=20, seed=seed + 1)
    # Duplicates exercise the storage short-circuit inside one batch.
    queries += queries[:3]
    return queries


def _assert_equivalent(dataset, queries, config=None,
                       with_storage: bool = False):
    plan = plan_queries(queries)
    seq_storage = InMemoryStorage() if with_storage else None
    bat_storage = InMemoryStorage() if with_storage else None

    sequential = Locater(dataset.building, dataset.metadata, dataset.table,
                         config=config, storage=seq_storage)
    expected = [sequential.locate(q.mac, q.timestamp)
                for q in plan.ordered_queries()]

    batch = Locater(dataset.building, dataset.metadata, dataset.table,
                    config=config, storage=bat_storage)
    answers = batch.locate_batch(queries)

    # Answers (full dataclass equality: posterior floats, neighbor
    # counts, edge weights) in plan order...
    for planned, reference in zip(plan.ordered(), expected):
        assert answers[planned.index] == reference
    # ...and returned in input order.
    for query, answer in zip(queries, answers):
        assert answer.query == query

    # Cache effectiveness counters and graph contents match.
    if sequential.cache is not None:
        assert batch.cache is not None
        assert batch.cache.stats() == sequential.cache.stats()
        graph_seq, graph_bat = sequential.cache.graph, batch.cache.graph
        for query in queries:
            for other in dataset.macs():
                if other == query.mac:
                    continue
                assert graph_bat.observations(query.mac, other) == \
                    graph_seq.observations(query.mac, other)

    # Storage persisted identical cleaned answers.
    if with_storage:
        for query in queries:
            assert bat_storage.find_answer(query.mac, query.timestamp) == \
                seq_storage.find_answer(query.mac, query.timestamp)


@pytest.mark.parametrize("scenario", ["dbh", "office", "university"])
def test_batch_matches_sequential(scenario):
    dataset = _dataset(scenario)
    _assert_equivalent(dataset, _mixed_queries(dataset))


def test_batch_matches_sequential_with_storage():
    dataset = _dataset("dbh")
    _assert_equivalent(dataset, _mixed_queries(dataset),
                       with_storage=True)


def test_batch_matches_sequential_independent_mode():
    dataset = _dataset("dbh")
    config = LocaterConfig(fine_mode=FineMode.INDEPENDENT)
    _assert_equivalent(dataset, _mixed_queries(dataset), config=config)


def test_batch_matches_sequential_without_caching():
    dataset = _dataset("dbh")
    config = LocaterConfig(use_caching=False)
    _assert_equivalent(dataset, _mixed_queries(dataset), config=config)


def test_batch_matches_sequential_small_dataset(small_dataset):
    # The shared session fixture: a fourth world, I-FINE off-path sizes.
    queries = labeled_query_set(small_dataset, per_device=3, seed=2)
    _assert_equivalent(small_dataset, queries)


class TestUnknownDevice:
    """A batch naming a never-seen MAC fails before it changes anything.

    No answer is persisted and no cache edge recorded, on every batch
    entry point, so the next clean batch answers exactly as a fresh
    lone system does.
    """

    @pytest.fixture(scope="class")
    def world(self):
        dataset = Simulator(ScenarioSpec.dbh_like(seed=13, population=12)
                            ).run(days=3)
        queries = labeled_query_set(dataset, per_device=3, seed=5)
        # Planned last, so any query answered before the check would
        # already be persisted when the unknown MAC raised.
        unknown = LocationQuery(
            mac="zz-never-seen",
            timestamp=max(query.timestamp for query in queries))
        return dataset, queries, unknown

    @staticmethod
    def _counters(system):
        if isinstance(system, ShardedLocater):
            return system.cache_stats().total
        return system.cache.stats() if system.cache is not None else None

    @pytest.mark.parametrize("caching", [True, False],
                             ids=["caching", "no-caching"])
    @pytest.mark.parametrize("entry,shards", [
        ("lone", 0), ("session", 0), ("batch", 2), ("batch", 3),
        ("slice", 2)],
        ids=["lone", "session", "2-shards", "3-shards", "slice"])
    def test_nothing_changes_before_the_error(self, world, entry, shards,
                                              caching):
        dataset, queries, unknown = world
        config = LocaterConfig(use_caching=caching)
        storage = InMemoryStorage()
        args = (dataset.building, dataset.metadata, dataset.table)
        if shards:
            system = ShardedLocater(*args, shard_count=shards,
                                    config=config, storage=storage)
        else:
            system = Locater(*args, config=config, storage=storage)
        try:
            with pytest.raises(UnknownDeviceError, match=unknown.mac):
                if entry == "session":
                    StreamingSession(system).query([*queries, unknown])
                elif entry == "slice":
                    # With caching on one component may own every
                    # device: dispatch to the shard that owns queries.
                    shard = system.shard_of(queries[0].mac)
                    mine = [query for query in queries
                            if system.shard_of(query.mac) == shard]
                    system.locate_slice(shard, [*mine, unknown])
                else:
                    system.locate_batch([*queries, unknown])
            assert storage.clear_answers() == 0
            fresh = Locater(*args, config=config, storage=InMemoryStorage())
            assert system.locate_batch(queries) == \
                fresh.locate_batch(queries)
            assert self._counters(system) == self._counters(fresh)
        finally:
            if isinstance(system, ShardedLocater):
                system.close()
