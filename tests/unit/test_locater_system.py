"""Unit tests for the Locater facade and the baselines."""

from __future__ import annotations


from repro.system.baselines import Baseline1, Baseline2, CoarseBaseline
from repro.system.config import LocaterConfig
from repro.system.locater import Locater
from repro.system.storage import InMemoryStorage
from repro.util.timeutil import hours


class TestLocaterFacade:
    def test_locate_inside(self, fig1_building, fig1_metadata, fig1_table):
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          config=LocaterConfig(use_caching=False))
        answer = locater.locate("d1", 8.5 * 3600)
        assert answer.inside
        assert answer.room_id in \
            fig1_building.region_of_ap("wap3").rooms
        assert answer.fine is not None
        assert answer.location_label == answer.room_id

    def test_locate_outside(self, fig1_building, fig1_metadata,
                            fig1_table):
        locater = Locater(fig1_building, fig1_metadata, fig1_table)
        answer = locater.locate("d1", 100.0)  # before first event
        assert not answer.inside
        assert answer.room_id is None
        assert answer.location_label == "outside"
        assert answer.fine is None

    def test_caching_records_edges(self, fig1_building, fig1_metadata,
                                   fig1_table):
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          config=LocaterConfig(use_caching=True))
        assert locater.cache is not None
        locater.locate("d1", 8.5 * 3600)
        assert locater.cache.graph.edge_count >= 1

    def test_no_caching_configured(self, fig1_building, fig1_metadata,
                                   fig1_table):
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          config=LocaterConfig(use_caching=False))
        assert locater.cache is None
        locater.locate("d1", 8.5 * 3600)

    def test_storage_short_circuits_repeat_query(self, fig1_building,
                                                 fig1_metadata,
                                                 fig1_table):
        storage = InMemoryStorage()
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          storage=storage)
        first = locater.locate("d1", 8.5 * 3600)
        second = locater.locate("d1", 8.5 * 3600)
        assert second.room_id == first.room_id
        assert second.fine is None  # served from the clean store

    def test_history_days_limits_training_window(self, fig1_building,
                                                 fig1_metadata,
                                                 fig1_table):
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          config=LocaterConfig(history_days=1))
        span = locater.coarse.history
        assert span.duration <= 86400.0 + 1.0

    def test_locate_query_object(self, fig1_building, fig1_metadata,
                                 fig1_table):
        from repro.system.query import LocationQuery
        locater = Locater(fig1_building, fig1_metadata, fig1_table)
        answer = locater.locate_query(LocationQuery("d1", 8.5 * 3600))
        assert answer.query.mac == "d1"

    def test_stored_multi_region_room_resolves_lowest_region(
            self, fig1_building, fig1_metadata, fig1_table):
        # Room 2099 spans wap3's and wap4's regions; a stored answer only
        # keeps the room, so the rehydrated region must be deterministic:
        # the lowest region id, regardless of building listing order.
        storage = InMemoryStorage()
        storage.store_answer("d1", 1234.5, "2099")
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          storage=storage)
        answer = locater.locate("d1", 1234.5)
        spanning = fig1_building.regions_of_room("2099")
        assert len(spanning) > 1  # the room genuinely spans regions
        assert answer.room_id == "2099"
        assert answer.region_id == min(r.region_id for r in spanning)

    def test_stored_single_region_room_roundtrip(self, fig1_building,
                                                 fig1_metadata, fig1_table):
        storage = InMemoryStorage()
        storage.store_answer("d1", 99.0, "2061")
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          storage=storage)
        answer = locater.locate("d1", 99.0)
        (only,) = fig1_building.regions_of_room("2061")
        assert answer.region_id == only.region_id


class TestLocateBatch:
    def _queries(self):
        from repro.system.query import LocationQuery
        h = 3600.0
        return [LocationQuery("d1", 8.5 * h), LocationQuery("d3", 9 * h),
                LocationQuery("d2", 8.6 * h), LocationQuery("d1", 13 * h),
                LocationQuery("d1", 100.0)]

    def test_answers_in_input_order(self, fig1_building, fig1_metadata,
                                    fig1_table):
        locater = Locater(fig1_building, fig1_metadata, fig1_table)
        queries = self._queries()
        answers = locater.locate_batch(queries)
        assert len(answers) == len(queries)
        for query, answer in zip(queries, answers):
            assert answer.query == query

    def test_matches_sequential_in_plan_order(self, fig1_building,
                                              fig1_metadata, fig1_table):
        from repro.system.planner import plan_queries
        queries = self._queries()
        plan = plan_queries(queries)
        sequential = Locater(fig1_building, fig1_metadata, fig1_table)
        expected = [sequential.locate(q.mac, q.timestamp)
                    for q in plan.ordered_queries()]
        batch = Locater(fig1_building, fig1_metadata, fig1_table)
        answers = batch.locate_batch(queries)
        for planned, reference in zip(plan.ordered(), expected):
            assert answers[planned.index] == reference
        assert batch.cache.stats() == sequential.cache.stats()

    def test_storage_short_circuits_duplicates_within_batch(
            self, fig1_building, fig1_metadata, fig1_table):
        from repro.system.query import LocationQuery
        storage = InMemoryStorage()
        locater = Locater(fig1_building, fig1_metadata, fig1_table,
                          storage=storage)
        t = 8.5 * 3600
        first, second = locater.locate_batch(
            [LocationQuery("d1", t), LocationQuery("d1", t)])
        assert first.room_id == second.room_id
        assert first.fine is not None   # computed by the pipeline
        assert second.fine is None      # served from the clean store

    def test_pretrain_pass_trains_only_gap_query_devices(
            self, fig1_building, fig1_metadata, fig1_table):
        from repro.system.query import LocationQuery
        locater = Locater(fig1_building, fig1_metadata, fig1_table)
        # d1 @ 08:30 hits a validity window (no model consulted); d2 is
        # queried in a gap (model needed).
        locater.locate_batch([LocationQuery("d1", 8.5 * 3600),
                              LocationQuery("d2", 11.0 * 3600)])
        assert "d1" not in locater.coarse._models
        assert "d2" in locater.coarse._models

    def test_pretrain_pass_respects_storage_short_circuit(
            self, fig1_building, fig1_metadata, fig1_table):
        from repro.system.query import LocationQuery
        storage = InMemoryStorage()
        warm = Locater(fig1_building, fig1_metadata, fig1_table,
                       storage=storage)
        query = LocationQuery("d1", 11.0 * 3600)  # a gap query
        warm.locate_batch([query])
        # A fresh system over the same store answers from storage and,
        # like the lazy path, must not train any model for it.
        cold = Locater(fig1_building, fig1_metadata, fig1_table,
                       storage=storage)
        answer = cold.locate_batch([query])[0]
        assert answer.fine is None  # served from the store
        assert "d1" not in cold.coarse._models

    def test_empty_batch(self, fig1_building, fig1_metadata, fig1_table):
        locater = Locater(fig1_building, fig1_metadata, fig1_table)
        assert locater.locate_batch([]) == []


class TestCoarseBaseline:
    def test_event_hit(self, fig1_building, fig1_table):
        baseline = CoarseBaseline(fig1_building, fig1_table)
        inside, region_id, from_event = baseline.locate("d1", 8.5 * 3600)
        assert inside and from_event
        assert region_id == fig1_building.region_of_ap("wap3").region_id

    def test_short_gap_stays_in_last_region(self, fig1_building,
                                            fig1_table):
        baseline = CoarseBaseline(fig1_building, fig1_table,
                                  outside_threshold=hours(3))
        inside, region_id, from_event = baseline.locate("d1", 11 * 3600)
        assert inside and not from_event
        assert region_id == fig1_building.region_of_ap("wap3").region_id

    def test_long_gap_is_outside(self, fig1_building, fig1_table):
        baseline = CoarseBaseline(fig1_building, fig1_table,
                                  outside_threshold=hours(1))
        inside, region_id, _ = baseline.locate("d1", 11 * 3600)
        assert not inside and region_id is None

    def test_eventless_device_is_outside(self, fig1_building, fig1_table):
        fig1_table.registry.intern("dx")
        baseline = CoarseBaseline(fig1_building, fig1_table)
        inside, region_id, from_event = baseline.locate("dx", 1000.0)
        assert (inside, region_id, from_event) == (False, None, False)


class TestBaselines:
    def test_baseline1_random_candidate(self, fig1_building, fig1_metadata,
                                        fig1_table):
        baseline = Baseline1(fig1_building, fig1_metadata, fig1_table,
                             seed=0)
        answer = baseline.locate("d1", 8.5 * 3600)
        assert answer.inside
        assert answer.room_id in fig1_building.region_of_ap("wap3").rooms

    def test_baseline2_prefers_metadata_room(self, fig1_building,
                                             fig1_metadata, fig1_table):
        baseline = Baseline2(fig1_building, fig1_metadata, fig1_table,
                             seed=0)
        answer = baseline.locate("d1", 8.5 * 3600)
        assert answer.room_id == "2061"  # d1's office

    def test_baseline2_falls_back_to_random(self, fig1_building,
                                            fig1_metadata, fig1_table):
        # d3 has no metadata: must still answer with some candidate.
        baseline = Baseline2(fig1_building, fig1_metadata, fig1_table,
                             seed=0)
        answer = baseline.locate("d3", 9 * 3600)
        assert answer.inside
        assert answer.room_id in fig1_building.region_of_ap("wap1").rooms

    def test_baseline_outside(self, fig1_building, fig1_metadata,
                              fig1_table):
        baseline = Baseline1(fig1_building, fig1_metadata, fig1_table)
        answer = baseline.locate("d1", 100.0)
        assert not answer.inside
