"""Unit tests for the ingestion engine."""

from __future__ import annotations

import pytest

from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.system.ingestion import IngestionEngine, IngestReport
from repro.system.storage import InMemoryStorage, SqliteStorage


def _events(n: int, mac: str = "m1", start: float = 0.0):
    return [ConnectivityEvent(start + float(i * 300), mac, "wap1")
            for i in range(n)]


class TestIngestionEngine:
    def test_ingest_populates_table(self):
        table = EventTable()
        engine = IngestionEngine(table)
        assert engine.ingest(_events(10)).count == 10
        assert len(table) == 10
        assert len(table.log("m1")) == 10

    def test_event_ids_assigned_monotonically(self):
        table = EventTable()
        storage = InMemoryStorage()
        engine = IngestionEngine(table, storage=storage)
        engine.ingest(_events(3))
        engine.ingest(_events(3, mac="m2"))
        stored = sorted(e.event_id for e in storage.load_events())
        assert stored == [0, 1, 2, 3, 4, 5]
        assert table.max_event_id == 5

    def test_event_ids_seeded_from_table(self):
        # A second engine over the same table must continue, not restart.
        table = EventTable()
        IngestionEngine(table).ingest(_events(4))
        restarted = IngestionEngine(table)
        restarted.ingest(_events(2, mac="m2", start=9000.0))
        assert table.max_event_id == 5

    def test_event_ids_seeded_from_storage(self):
        # Restart over persisted rows only (fresh in-memory table).
        storage = SqliteStorage(":memory:")
        IngestionEngine(EventTable(), storage=storage).ingest(_events(4))
        restarted = IngestionEngine(EventTable(), storage=storage)
        restarted.ingest(_events(2, mac="m2", start=9000.0))
        ids = [e.event_id for e in storage.load_events()]
        assert sorted(ids) == [0, 1, 2, 3, 4, 5]
        storage.close()

    def test_report_changed_devices_and_intervals(self):
        engine = IngestionEngine(EventTable())
        report = engine.ingest(_events(3) + _events(2, mac="m2",
                                                    start=1000.0))
        assert isinstance(report, IngestReport)
        assert report.macs == {"m1", "m2"}
        assert report.changed["m1"].start == 0.0
        assert report.changed["m1"].end == 600.0
        assert report.changed["m2"].start == 1000.0
        assert report.generation == engine.table.generation

    def test_storage_receives_rows(self):
        storage = InMemoryStorage()
        engine = IngestionEngine(EventTable(), storage=storage,
                                 batch_size=4)
        engine.ingest(_events(10))
        assert storage.event_count() == 10

    def test_delta_estimated_after_ingest(self):
        table = EventTable()
        engine = IngestionEngine(table)
        engine.ingest(_events(50))
        # Regular 5-minute probing → delta near 300 s, not the default.
        assert table.registry.get("m1").delta == pytest.approx(300.0,
                                                               abs=120.0)

    def test_delta_estimated_only_for_changed_devices(self):
        from repro.events.device import DEFAULT_DELTA_SECONDS
        table = EventTable()
        engine = IngestionEngine(table)
        engine.ingest(_events(50))
        table.registry.get("m1").delta = 123.0  # pinned out of band
        report = engine.ingest(_events(50, mac="m2"))
        assert report.macs == {"m2"}
        assert table.registry.get("m1").delta == 123.0  # untouched
        assert table.registry.get("m2").delta != DEFAULT_DELTA_SECONDS

    def test_delta_changes_reported(self):
        table = EventTable()
        engine = IngestionEngine(table)
        first = engine.ingest(_events(50))
        assert "m1" in first.delta_changes
        old, new = first.delta_changes["m1"]
        assert new == table.registry.get("m1").delta
        # Re-ingesting an identical cadence leaves δ in place: no entry.
        second = engine.ingest(_events(50, start=50 * 300.0))
        assert "m1" not in second.delta_changes

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            IngestionEngine(EventTable(), batch_size=0)

    def test_empty_stream(self):
        engine = IngestionEngine(EventTable())
        report = engine.ingest([])
        assert report.count == 0 and not report.changed
