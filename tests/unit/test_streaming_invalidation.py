"""Unit tests for online-ingestion invalidation across the layers."""

from __future__ import annotations

import pytest

from repro.cluster.sharded import ShardedLocater
from repro.coarse.localizer import CoarseLocalizer
from repro.coarse.aggregate import PopulationAggregate
from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.fine.affinity import DeviceAffinityIndex
from repro.fine.neighbors import NeighborIndex
from repro.system.ingestion import IngestionEngine
from repro.system.config import LocaterConfig
from repro.system import locater as locater_module
from repro.system import streaming
from repro.system.locater import Locater
from repro.system.memory import MEMO_ENTRY_NBYTES
from repro.system.query import LocationQuery
from repro.system.storage import InMemoryStorage
from repro.util.timeutil import TimeInterval, hours, minutes


def _evts(mac, pairs):
    return [ConnectivityEvent(timestamp=t, mac=mac, ap_id=ap)
            for t, ap in pairs]


#: A burst over the fig1 morning that fills snapshots and every memo kind.
BURST = tuple(LocationQuery(mac=mac, timestamp=hours(t))
              for mac in ("d1", "d2", "d3") for t in (9, 11, 13))


def _is_cold(state) -> bool:
    """No neighbor snapshot and no memo entry: a fresh warm state."""
    return state.neighbors.snapshot_count == 0 and \
        not any(state.memo_dicts())


def _pulled_reports(locater) -> list:
    """Record every report the locater's ``on_ingest`` receives."""
    pulled = []
    on_ingest = locater.on_ingest

    def capture(report):
        pulled.append(report)
        return on_ingest(report)

    locater.on_ingest = capture  # type: ignore[method-assign]
    return pulled


class TestEventTableChangeFeed:
    def test_generation_advances_only_on_merge(self):
        table = EventTable()
        assert table.generation == 0
        table.append(ConnectivityEvent(10.0, "m1", "wap1"))
        table.freeze()
        assert table.generation == 1
        table.freeze()  # nothing pending
        assert table.generation == 1

    def test_changed_since_scopes_by_generation(self):
        table = EventTable()
        table.append(ConnectivityEvent(10.0, "m1", "wap1"))
        table.freeze()
        first = table.generation
        table.extend(_evts("m2", [(50.0, "wap1"), (70.0, "wap1")]))
        table.freeze()
        assert set(table.changed_since(first)) == {"m2"}
        assert table.changed_since(first)["m2"] == TimeInterval(50.0, 70.0)
        assert set(table.changed_since(0)) == {"m1", "m2"}
        assert table.changed_since(table.generation) == {}

    def test_changed_since_freezes_pending(self):
        table = EventTable()
        table.append(ConnectivityEvent(10.0, "m1", "wap1"))
        assert set(table.changed_since(0)) == {"m1"}

    def test_change_journal_is_bounded(self):
        table = EventTable()
        for i in range(5 * EventTable._CHANGE_JOURNAL_CAP):
            table.append(ConnectivityEvent(float(i), "m1", "wap1"))
            table.freeze()
        assert len(table._changes["m1"]) <= EventTable._CHANGE_JOURNAL_CAP
        # Compaction may widen old-generation queries, never narrow:
        # the feed still covers every timestamp ever merged.
        interval = table.changed_since(0)["m1"]
        assert interval.start == 0.0
        assert interval.end == float(5 * EventTable._CHANGE_JOURNAL_CAP - 1)

    def test_incremental_merge_interleaves(self):
        table = EventTable()
        table.extend(_evts("m1", [(10.0, "wap1"), (30.0, "wap2")]))
        table.freeze()
        table.extend(_evts("m1", [(20.0, "wap3"), (5.0, "wap1")]))
        table.freeze()
        log = table.log("m1")
        assert list(log.times) == [5.0, 10.0, 20.0, 30.0]
        assert [log.ap_at(i) for i in range(4)] == \
            ["wap1", "wap1", "wap3", "wap2"]


class TestCoarseInvalidation:
    def _localizer(self, building):
        table = EventTable.from_events(
            _evts("d1", [(hours(8) + i * 600, "wap3") for i in range(12)]) +
            _evts("d2", [(hours(8) + i * 600, "wap1") for i in range(12)]))
        for mac in ("d1", "d2"):
            table.registry.get(mac).delta = minutes(10)
        return CoarseLocalizer(building, table)

    def test_invalidate_device_is_surgical(self, fig1_building):
        localizer = self._localizer(fig1_building)
        kept = localizer.models_for("d1")
        localizer.models_for("d2")
        localizer.invalidate_device("d2")
        assert localizer.models_for("d1") is kept
        assert localizer._models.keys() == {"d1"}

    def test_aggregate_survives_unsampled_changes(self, fig1_building):
        localizer = self._localizer(fig1_building)
        aggregate = localizer._aggregate
        aggregate.modal_inside(hours(9))  # force build
        assert not aggregate.invalidate_if_affected(["ghost"])
        assert aggregate._hours is not None
        assert aggregate.invalidate_if_affected(["d1"])
        assert aggregate._hours is None

    def test_aggregate_detects_sample_shift(self, fig1_building):
        table = EventTable.from_events(
            _evts("d9", [(hours(8), "wap1"), (hours(12), "wap1")]))
        aggregate = PopulationAggregate(fig1_building, table, max_devices=1)
        aggregate.modal_inside(hours(9))
        # A new device that sorts ahead of d9 shifts the 1-device sample.
        table.extend(_evts("a0", [(hours(9), "wap1")]))
        table.freeze()
        assert aggregate.invalidate_if_affected(["a0"])


class TestDeviceAffinityInvalidation:
    def test_only_entries_with_changed_macs_drop(self):
        table = EventTable.from_events(
            _evts("a", [(0.0, "wap1")]) + _evts("b", [(10.0, "wap1")]) +
            _evts("c", [(20.0, "wap1")]))
        index = DeviceAffinityIndex(table)
        index.pairwise("a", "b")
        index.pairwise("b", "c")
        index.pairwise("a", "c")
        assert index.invalidate_devices(["b"]) == 2
        assert set(index._cache) == {frozenset(("a", "c"))}


class TestNeighborIndexInvalidation:
    def _index(self, fig1_building, fig1_table):
        return NeighborIndex(fig1_building, fig1_table)

    def test_invalidate_all(self, fig1_building, fig1_table):
        index = self._index(fig1_building, fig1_table)
        index.snapshot(hours(8))
        assert index.invalidate_all() == 1
        assert not index._snapshots

    def test_max_snapshots_evicts_oldest(self, fig1_building, fig1_table):
        index = NeighborIndex(fig1_building, fig1_table, max_snapshots=2)
        for t in (hours(8), hours(9), hours(10)):
            index.snapshot(t)
        assert set(index._snapshots) == {hours(9), hours(10)}


class TestLocaterOnIngest:
    """No wiring: every serve pulls ``on_ingest`` from the table itself."""

    def test_stale_stored_answer_regression(self, fig1_building,
                                            fig1_metadata, fig1_table):
        # Regression for the headline bug: with a storage engine
        # attached, a pre-ingest answer was served verbatim after new
        # events arrived at that very timestamp.
        storage = InMemoryStorage()
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          storage=storage)
        engine = IngestionEngine(fig1_table, storage=storage)
        t_evening = hours(15)  # after d3's last event: answered outside
        assert not locater.locate("d3", t_evening).inside
        engine.ingest(_evts("d3", [(t_evening - 120, "wap3"),
                                   (t_evening + 120, "wap3")]))
        fresh = locater.locate("d3", t_evening)
        assert fresh.inside and fresh.from_event

    def test_empty_ingest_keeps_stored_answers(self, fig1_building,
                                               fig1_metadata, fig1_table):
        # An empty poll tick must not purge the answer store: nothing
        # changed, so every stored answer is still exact.
        storage = InMemoryStorage()
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          storage=storage)
        engine = IngestionEngine(fig1_table, storage=storage)
        locater.locate("d1", hours(9))
        summary = locater.on_ingest(engine.ingest([]))
        assert summary.answers_dropped == 0
        assert storage.find_answer("d1", hours(9)) is not None
        # Nor does the next serve's pull: the generation did not move.
        locater.locate_batch([])
        assert storage.find_answer("d1", hours(9)) is not None

    def test_models_invalidated_for_changed_device_only(
            self, fig1_building, fig1_metadata, fig1_table):
        locater = Locater(fig1_building, fig1_metadata, fig1_table)
        engine = IngestionEngine(fig1_table)
        locater.coarse.models_for("d1")
        kept = locater.coarse.models_for("d2")
        # Same-day ingest: the span's day range is unchanged, so the
        # invalidation is surgical.  It runs at the next serve (here an
        # empty batch, so nothing retrains), and the retrain happens in
        # bulk at a serve that queries the device (locate_batch's
        # train_devices pre-pass), not here.
        engine.ingest(_evts("d1", [(hours(15), "wap3")]))
        assert "d1" in locater.coarse._models  # the engine pushes nothing
        locater.locate_batch([])
        assert "d1" not in locater.coarse._models
        assert locater.coarse.models_for("d2") is kept

    def test_day_range_change_escalates_to_full(
            self, fig1_building, fig1_metadata, fig1_table):
        locater = Locater(fig1_building, fig1_metadata, fig1_table)
        engine = IngestionEngine(fig1_table)
        locater.coarse.models_for("d2")
        # Next-day events change every device's density denominator.
        summary = locater.on_ingest(
            engine.ingest(_evts("d1", [(hours(30), "wap3")])))
        assert summary.full
        assert not locater.coarse._models

    def test_sliding_history_always_full(self, fig1_building,
                                         fig1_metadata, fig1_table):
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          config=LocaterConfig(history_days=2))
        engine = IngestionEngine(fig1_table)
        summary = locater.on_ingest(
            engine.ingest(_evts("d1", [(hours(15), "wap3")])))
        assert summary.full

    @pytest.mark.parametrize("at", [hours(1), hours(30)],
                             ids=["same-day", "next-day"])
    @pytest.mark.parametrize("how", ["append", "append-freeze", "engine",
                                     "on-ingest"])
    def test_a_generation_move_resets_the_warm_state_whole(
            self, fig1_building, fig1_metadata, fig1_table, how, at):
        # One row for d3 at 01:00 — same day, hours before every warm
        # query, so far outside δ — or on the next day.  Same-day rows
        # invalidate models surgically, next-day ones fully; either way
        # nothing of the warm state survives.  A bare append refits no
        # δ; an engine ingest moves d3's.
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          config=LocaterConfig(use_caching=False))
        locater.locate_batch(BURST)
        state = locater._state
        assert not _is_cold(state)
        row = ConnectivityEvent(at, "d3", "wap1")
        if how == "on-ingest":
            locater.on_ingest(IngestionEngine(fig1_table).ingest([row]))
        else:
            if how == "engine":
                IngestionEngine(fig1_table).ingest([row])
            else:
                fig1_table.append(row)
                if how == "append-freeze":
                    fig1_table.freeze()
            locater.locate_batch([])
        assert locater._state is state and _is_cold(state)
        assert locater.full_invalidations == (at == hours(30))

    @pytest.mark.parametrize("at", [hours(1), hours(30)],
                             ids=["same-day", "next-day"])
    def test_every_reset_runs_through_prune_batch_state(
            self, fig1_building, fig1_metadata, fig1_table, monkeypatch,
            at):
        # Once per generation move, full or surgical: perfbench times
        # the reset by wrapping this module function.
        locater = Locater(fig1_building, fig1_metadata, fig1_table)
        calls = []
        prune = streaming.prune_batch_state

        def counted(*args):
            calls.append(args)
            prune(*args)

        monkeypatch.setattr(streaming, "prune_batch_state", counted)
        IngestionEngine(fig1_table).ingest(_evts("d3", [(at, "wap1")]))
        locater.locate_batch([])
        locater.locate_batch([])
        assert [args[0] for args in calls] == [locater._state]

    def test_pulled_report_matches_the_engines(
            self, fig1_building, fig1_metadata, fig1_table):
        # The pull rebuilds the report the engine returned: the same
        # generation and changed intervals.  (The pulled report counts
        # no rows: nothing downstream reads it.)
        locater = Locater(fig1_building, fig1_metadata, fig1_table)
        engine = IngestionEngine(fig1_table)
        pulled = _pulled_reports(locater)
        report = engine.ingest(
            _evts("d1", [(hours(15), "wap3")]) +
            _evts("new", [(hours(9) + i * 300.0, "wap1")
                          for i in range(20)]))
        locater.locate_batch([])
        locater.locate_batch([])  # unmoved generation: no second pull
        [seen] = pulled
        assert (seen.generation, seen.changed) == \
            (report.generation, report.changed)

    def test_one_pull_spans_every_merge_since_the_last_serve(
            self, fig1_building, fig1_metadata, fig1_table):
        # Merges by a bare append, an engine and a pending append, with
        # no serve between them, reach the locater as one report.
        locater = Locater(fig1_building, fig1_metadata, fig1_table)
        pulled = _pulled_reports(locater)
        fig1_table.append(ConnectivityEvent(hours(1), "d1", "wap3"))
        fig1_table.freeze()
        IngestionEngine(fig1_table).ingest(_evts("d2", [(hours(2), "wap3")]))
        fig1_table.append(ConnectivityEvent(hours(3), "d3", "wap1"))
        locater.locate_batch([])
        [seen] = pulled
        assert seen.generation == fig1_table.generation
        assert seen.changed == {
            "d1": TimeInterval(hours(1), hours(1)),
            "d2": TimeInterval(hours(2), hours(2)),
            "d3": TimeInterval(hours(3), hours(3))}

    def test_failed_catch_up_retries_on_the_next_call(
            self, fig1_building, fig1_metadata, fig1_table):
        locater = Locater(fig1_building, fig1_metadata, fig1_table)
        engine = IngestionEngine(fig1_table)
        locater.coarse.models_for("d1")
        engine.ingest(_evts("d1", [(hours(15), "wap3")]))
        invalidate = locater.coarse.invalidate_devices

        def interrupted(macs):
            locater.coarse.invalidate_devices = invalidate
            raise RuntimeError("invalidation interrupted")

        locater.coarse.invalidate_devices = interrupted  # type: ignore[method-assign]
        with pytest.raises(RuntimeError, match="interrupted"):
            locater.locate_batch([])
        assert "d1" in locater.coarse._models
        locater.locate_batch([])  # the generation is still unseen
        assert "d1" not in locater.coarse._models

    def test_a_failed_reset_retries_on_the_next_call(
            self, fig1_building, fig1_metadata, fig1_table, monkeypatch):
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          config=LocaterConfig(use_caching=False))
        locater.locate_batch(BURST)
        fig1_table.append(ConnectivityEvent(hours(1), "d3", "wap1"))
        prune = streaming.prune_batch_state

        def interrupted(state):
            monkeypatch.setattr(streaming, "prune_batch_state", prune)
            raise RuntimeError("reset interrupted")

        monkeypatch.setattr(streaming, "prune_batch_state", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            locater.locate_batch([])
        assert not _is_cold(locater._state)
        locater.locate_batch([])  # the generation is still unseen
        assert _is_cold(locater._state)

    def test_explicit_on_ingest_then_pull_stays_fresh(
            self, fig1_building, fig1_metadata, fig1_table):
        # Calling on_ingest with an engine's report is redundant — the
        # next serve pulls the same change — but harmless, also when the
        # explicit call escalated to a full drop and the pull, finding
        # the day range already seen, invalidates models surgically.
        config = LocaterConfig(use_caching=False)
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          config=config)
        engine = IngestionEngine(fig1_table)
        queries = [LocationQuery(mac=mac, timestamp=hours(t))
                   for mac in ("d1", "d2", "d3") for t in (9, 11, 13)]
        locater.locate_batch(queries)  # warm the memos
        summary = locater.on_ingest(
            engine.ingest(_evts("d1", [(hours(30), "wap3")])))
        assert summary.full
        # The explicit call reset the warm state already; the pull that
        # follows resets it again.
        assert not any(locater._state.memo_dicts())
        assert locater._state.neighbors.snapshot_count == 0
        cold = Locater(fig1_building, fig1_metadata, fig1_table,
                       config=config)
        assert locater.locate_batch(queries) == cold.locate_batch(queries)
        assert locater.full_invalidations == 1

    def test_memos_stay_bounded_without_an_ingest(
            self, fig1_building, fig1_metadata, fig1_table, monkeypatch):
        # The warm state outlives every call, so the memo bound must
        # hold where memos grow — at the end of each locate_batch —
        # not only after an ingest that may never come.
        config = LocaterConfig(use_caching=False)
        queries = [LocationQuery(mac=mac, timestamp=hours(t))
                   for mac in ("d1", "d2", "d3") for t in (9, 11, 13)]
        unbounded = Locater(fig1_building, fig1_metadata, fig1_table,
                            config=config)
        expected = unbounded.locate_batch(queries)
        assert max(map(len, unbounded._state.memo_dicts())) > 1
        monkeypatch.setattr(locater_module, "MAX_MEMO_ENTRIES", 1)
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          config=config)
        for _ in range(2):
            # Clearing is wholesale and never changes an answer.
            assert locater.locate_batch(queries) == expected
            assert max(map(len, locater._state.memo_dicts())) <= 1

    def test_reset_keeps_the_memory_entry_on_the_live_state(
            self, fig1_building, fig1_metadata, fig1_table):
        # The budget's one batch-memo entry sizes and evicts the state
        # the locater serves from, also after a reset refilled it.
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          config=LocaterConfig(use_caching=False,
                                               memory_budget_bytes=2**40))
        locater.locate_batch(BURST)
        fig1_table.append(ConnectivityEvent(hours(1), "d3", "wap1"))
        locater.locate_batch(BURST)
        state = locater._state
        entries = sum(map(len, state.memo_dicts())) + \
            state.neighbors.snapshot_count
        assert entries > 0
        assert locater.memory.stats()["by_category"]["batch-memos"] == \
            entries * MEMO_ENTRY_NBYTES
        locater.memory.budget_bytes = 0
        locater.memory.enforce()
        assert _is_cold(state)

    def test_every_shard_resets_at_its_next_serve(
            self, fig1_building, fig1_metadata, fig1_table):
        # A cluster serve calls every shard, an empty slice included,
        # so every shard's locater pulls the ingest and resets.
        cluster = ShardedLocater(fig1_building, fig1_metadata, fig1_table,
                                 shard_count=2,
                                 config=LocaterConfig(use_caching=False))
        try:
            cluster.locate_batch(BURST)
            states = [shard.locater._state
                      for shard in cluster.executor.shards]
            assert not all(map(_is_cold, states))
            cluster.ingest([ConnectivityEvent(hours(1), "d3", "wap1")])
            cluster.locate_batch([])
            assert all(map(_is_cold, states))
        finally:
            cluster.close()
