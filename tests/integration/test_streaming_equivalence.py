"""Streaming equivalence suite: incremental ingest ≡ cold rebuild.

The correctness contract of the online-ingestion subsystem: a
long-running :class:`~repro.system.streaming.StreamingSession` that
merges event batches incrementally and invalidates surgically must
serve, at every burst, answers **bitwise identical** to a system built
from scratch over the same stream.  The systems run without the caching
engine and storage — their warm state is deliberate cross-query memory,
not a cache of table-derived values — so answers are pure functions of
the table and the comparison is exact.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.events.table import EventTable
from repro.events.validity import DeltaEstimator
from repro.sim.scenarios import (
    ScenarioSpec,
    StreamingBatch,
    streaming_day_workload,
)
from repro.sim.simulator import Simulator
from repro.system.config import LocaterConfig
from repro.system.ingestion import IngestionEngine
from repro.system.locater import Locater
from repro.system.query import LocationQuery
from repro.system.streaming import StreamingSession
from repro.util.rng import make_rng
from repro.util.timeutil import TimeInterval


@pytest.fixture(scope="module")
def world():
    dataset = Simulator(
        ScenarioSpec.dbh_like(seed=13, population=10)).run(days=4)
    workload = streaming_day_workload(dataset, batches=6,
                                      queries_per_burst=8, seed=3)
    return dataset, workload


def _history_burst(workload, count=40, seed=5):
    """A burst into the warm-up history, served before the first tick.

    Repeated in every later burst, its exact (mac, time) pairs re-read
    whatever memo the first serve wrote, so a memo the day rollover's
    full invalidation failed to drop shows up as a stale answer.
    """
    rng = make_rng(seed)
    macs = sorted({event.mac for event in workload.warmup})
    start = workload.warmup[0].timestamp
    cut = workload.batches[0].interval.start
    queries = tuple(
        LocationQuery(mac=macs[int(rng.integers(len(macs)))],
                      timestamp=float(rng.uniform(start, cut)))
        for _ in range(count))
    return StreamingBatch(index=-1, interval=TimeInterval(start, cut),
                          ingest=(), queries=queries)


def _cold_system(dataset, events, config, deltas_from=None):
    table = EventTable.from_events(events)
    if deltas_from is None:
        DeltaEstimator().fit_table(table)
    else:
        # Rows merged by bare appends get no δ refit: rebuild over the
        # same table state, logs and δ alike.
        for mac in table.macs():
            table.registry.get(mac).delta = deltas_from.registry.get(
                mac).delta
    return Locater(dataset.building, dataset.metadata, table,
                   config=config)


def _streaming_session(dataset, workload, config):
    table = EventTable()
    engine = IngestionEngine(table)
    engine.ingest(workload.warmup)
    locater = Locater(dataset.building, dataset.metadata, table,
                      config=config)
    return StreamingSession(locater, engine)


def _through_session(session, batch):
    session.ingest(batch.ingest)
    return session.query(batch.queries)


def _through_bare_engine(session, batch):
    # No session in the loop and nothing wired: an engine appends, and
    # the locater notices at its next serve.
    IngestionEngine(session.locater.table).ingest(batch.ingest)
    return session.locater.locate_batch(batch.queries)


def _ingest_twice(session, batch):
    # Two merges before one burst: the burst's pull spans both
    # generations in one catch-up.
    half = len(batch.ingest) // 2
    session.ingest(batch.ingest[:half])
    session.ingest(batch.ingest[half:])
    return session.query(batch.queries)


def _append_without_freeze(session, batch):
    # Rows left pending in the table: the pull must freeze before it
    # compares generations.  Answered one query at a time.
    table = session.locater.table
    for event in batch.ingest:
        table.append(event)
    return [session.locater.locate(query.mac, query.timestamp)
            for query in batch.queries]


class TestStreamingEquivalence:
    @pytest.mark.parametrize("feed", [
        _through_session, _through_bare_engine, _ingest_twice,
        _append_without_freeze,
    ], ids=["session", "bare-engine", "two-ingests", "append-no-freeze"])
    def test_every_burst_matches_cold_rebuild(self, world, feed):
        dataset, workload = world
        config = LocaterConfig(use_caching=False)
        session = _streaming_session(dataset, workload, config)
        appended = feed is _append_without_freeze
        history = _history_burst(workload)
        for batch in (history, *(
                replace(batch, queries=batch.queries + history.queries)
                for batch in workload.batches)):
            streamed = feed(session, batch)
            cold = _cold_system(
                dataset, workload.events_through(batch.index), config,
                deltas_from=session.locater.table if appended else None)
            expected = [cold.locate(query.mac, query.timestamp)
                        for query in batch.queries] if appended \
                else cold.locate_batch(batch.queries)
            # Full LocationAnswer equality: coarse route, room, the
            # entire fine posterior and edge weights, float for float.
            assert streamed == expected
        # The day rolled over once, at its first rows.
        assert session.locater.full_invalidations == 1

    def test_sequential_path_matches_too(self, world):
        # The session's persistent batch state must also agree with the
        # cold system's *sequential* (memo-free) path — memos may only
        # share work, never change an answer.
        dataset, workload = world
        config = LocaterConfig(use_caching=False)
        session = _streaming_session(dataset, workload, config)
        for batch in workload.batches[:3]:
            session.ingest(batch.ingest)
            streamed = session.query(batch.queries)
            cold = _cold_system(
                dataset, workload.events_through(batch.index), config)
            expected = [cold.locate(q.mac, q.timestamp)
                        for q in batch.queries]
            for answer, reference in zip(streamed, expected):
                assert answer.inside == reference.inside
                assert answer.room_id == reference.room_id
                assert answer.region_id == reference.region_id

    def test_sliding_history_window_stays_fresh(self, world):
        # history_days forces a full invalidation on every ingest (the
        # window moves); answers must still match a cold rebuild that
        # resolves the same window.
        dataset, workload = world
        config = LocaterConfig(use_caching=False, history_days=2)
        session = _streaming_session(dataset, workload, config)
        nonempty = 0
        for batch in workload.batches:
            session.ingest(batch.ingest)
            streamed = session.query(batch.queries)
            cold = _cold_system(
                dataset, workload.events_through(batch.index), config)
            assert streamed == cold.locate_batch(batch.queries)
            nonempty += bool(batch.ingest)
        assert session.full_invalidations == nonempty

    def test_table_state_matches_cold_rebuild(self, world):
        dataset, workload = world
        session = _streaming_session(dataset, workload,
                                     LocaterConfig(use_caching=False))
        for batch in workload.batches:
            session.ingest(batch.ingest)
        table = session.locater.table
        cold = EventTable.from_events(workload.events_through(
            len(workload.batches) - 1))
        DeltaEstimator().fit_table(cold)
        assert len(table) == len(cold)
        assert table.ap_ids == cold.ap_ids
        assert sorted(table.macs()) == sorted(cold.macs())
        for mac in cold.macs():
            assert list(table.log(mac).times) == list(cold.log(mac).times)
            assert table.registry.get(mac).delta == \
                cold.registry.get(mac).delta
