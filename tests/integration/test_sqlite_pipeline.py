"""Integration tests: ingestion + SQLite storage + cleaning."""

from __future__ import annotations

from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.system.config import LocaterConfig
from repro.system.ingestion import IngestionEngine
from repro.system.locater import Locater
from repro.system.storage import SqliteStorage
from repro.util.timeutil import SECONDS_PER_DAY


class TestSqlitePipeline:
    def test_ingest_store_reload_clean(self, small_dataset, tmp_path):
        db_path = str(tmp_path / "wifi.db")
        # Phase 1: ingest the simulated stream into SQLite.
        with SqliteStorage(db_path) as storage:
            table = EventTable()
            engine = IngestionEngine(table, storage=storage)
            for mac in small_dataset.table.macs():
                engine.ingest(small_dataset.table.events_of(mac))
            stored = storage.event_count()
        assert stored == small_dataset.event_count()

        # Phase 2: reload from SQLite into a fresh table and clean.
        with SqliteStorage(db_path) as storage:
            reloaded = EventTable()
            engine = IngestionEngine(reloaded)
            engine.ingest(storage.load_events())
            assert len(reloaded) == stored
            locater = Locater(small_dataset.building,
                              small_dataset.metadata, reloaded,
                              config=LocaterConfig(use_caching=False))
            mac = next(m for m in small_dataset.macs()
                       if len(reloaded.log(m)) > 20)
            t = float(reloaded.log(mac).times[5]) + 30.0
            answer = locater.locate(mac, t)
            assert answer.inside

    def test_answers_persisted_and_reused(self, small_dataset, tmp_path):
        db_path = str(tmp_path / "answers.db")
        mac = next(m for m in small_dataset.macs()
                   if len(small_dataset.table.log(m)) > 20)
        t = float(small_dataset.table.log(mac).times[3]) + 10.0
        with SqliteStorage(db_path) as storage:
            locater = Locater(small_dataset.building,
                              small_dataset.metadata,
                              small_dataset.table, storage=storage)
            first = locater.locate(mac, t)
            assert storage.find_answer(mac, t) == first.location_label
        # A brand-new system over the same store reuses the clean answer.
        with SqliteStorage(db_path) as storage:
            locater = Locater(small_dataset.building,
                              small_dataset.metadata,
                              small_dataset.table, storage=storage)
            again = locater.locate(mac, t)
            assert again.location_label == first.location_label

    def test_restart_after_ingest_reuses_no_stale_answer(
            self, small_dataset, tmp_path):
        # The engine persists new rows and purges the store's answers in
        # the same call: a system rebuilt over the store after the
        # process exits, before any serve, must clean afresh.
        db_path = str(tmp_path / "restart.db")
        config = LocaterConfig(use_caching=False)
        building, metadata = small_dataset.building, small_dataset.metadata
        mac = next(m for m in small_dataset.macs()
                   if len(small_dataset.table.log(m)) > 20)
        t = float(small_dataset.table.log(mac).times[3]) + 10.0
        with SqliteStorage(db_path) as storage:
            table = EventTable()
            engine = IngestionEngine(table, storage=storage)
            for device in small_dataset.table.macs():
                engine.ingest(small_dataset.table.events_of(device))
            locater = Locater(building, metadata, table, config=config,
                              storage=storage)
            first = locater.locate(mac, t)
            assert first.inside  # a stored answer would lose .fine
            assert storage.find_answer(mac, t) == first.location_label
            # The device comes back a day past the span; the process
            # exits before the next query.
            start = table.span().end + SECONDS_PER_DAY
            log = table.log(mac)
            engine.ingest([
                ConnectivityEvent(timestamp=start + i * 60.0, mac=mac,
                                  ap_id=log.ap_at(len(log) - 1))
                for i in range(5)])
            assert storage.find_answer(mac, t) is None
        with SqliteStorage(db_path) as storage:
            reloaded = EventTable()
            IngestionEngine(reloaded).ingest(storage.load_events())
            restarted = Locater(building, metadata, reloaded,
                                config=config, storage=storage)
            cold = Locater(building, metadata, reloaded, config=config)
            assert restarted.locate(mac, t) == cold.locate(mac, t)
