"""Unit tests for the ingestion engine."""

from __future__ import annotations

import pytest

from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.events.validity import DeltaEstimator
from repro.system.ingestion import (
    STORAGE_BATCH_ROWS,
    IngestionEngine,
    IngestReport,
)
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
        # More rows than one storage write holds: full writes, then the
        # partial tail.
        storage = InMemoryStorage()
        engine = IngestionEngine(EventTable(), storage=storage)
        rows = 2 * STORAGE_BATCH_ROWS + 500
        engine.ingest(_events(rows))
        assert storage.event_count() == rows

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

    def test_refitting_changed_devices_matches_a_full_refit(self):
        # δ is fitted from a device's own log, so refitting only the
        # devices an ingest changed leaves every δ where a refit of the
        # whole merged log puts it: a δ moves only with its own log.
        def cadence(mac, n, start, step):
            return [ConnectivityEvent(start + i * step, mac, "wap1")
                    for i in range(n)]

        first = cadence("m1", 40, 0.0, 300.0) + cadence("m2", 30, 50.0, 420.0)
        second = cadence("m2", 90, 20000.0, 180.0) + \
            cadence("m3", 25, 100.0, 240.0)
        table = EventTable()
        engine = IngestionEngine(table)
        engine.ingest(first)
        moved = table.registry.get("m2").delta
        assert engine.ingest(second).macs == {"m2", "m3"}
        assert table.registry.get("m2").delta != moved
        cold = EventTable.from_events(first + second)
        DeltaEstimator().fit_table(cold)
        assert {mac: table.registry.get(mac).delta for mac in table.macs()} == \
            {mac: cold.registry.get(mac).delta for mac in cold.macs()}

    def test_empty_stream(self):
        engine = IngestionEngine(EventTable())
        report = engine.ingest([])
        assert report.count == 0 and not report.changed
