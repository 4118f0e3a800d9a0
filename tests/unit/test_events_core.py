"""Unit tests for repro.events.event, device and table."""

from __future__ import annotations

import pytest

from repro.errors import (
    EmptyHistoryError,
    EventTableError,
    InvalidEventError,
    UnknownDeviceError,
)
from repro.events.device import DEFAULT_DELTA_SECONDS, Device, DeviceRegistry
from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.util.timeutil import TimeInterval


class TestConnectivityEvent:
    def test_ordering_by_time(self):
        a = ConnectivityEvent(10.0, "m1", "wap1")
        b = ConnectivityEvent(5.0, "m2", "wap2")
        assert sorted([a, b]) == [b, a]

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ConnectivityEvent(-1.0, "m", "w")
        with pytest.raises(ValueError):
            ConnectivityEvent(1.0, "", "w")
        with pytest.raises(ValueError):
            ConnectivityEvent(1.0, "m", "")

    @pytest.mark.parametrize("timestamp,mac,ap_id", [
        (float("nan"), "m", "w"),
        (float("inf"), "m", "w"),
        (float("-inf"), "m", "w"),
        (-1.0, "m", "w"),
        (1.0, "", "w"),
        (1.0, "m", ""),
    ])
    def test_malformed_event_raises_typed_error(self, timestamp, mac, ap_id):
        # Typed for the ingest boundary, and still a ValueError.
        with pytest.raises(InvalidEventError) as info:
            ConnectivityEvent(timestamp, mac, ap_id)
        assert isinstance(info.value, EventTableError)
        assert isinstance(info.value, ValueError)

    def test_str_contains_mac_and_ap(self):
        text = str(ConnectivityEvent(1.0, "m1", "wap1", event_id=3))
        assert "m1" in text and "wap1" in text and "e3" in text


class TestDeviceRegistry:
    def test_intern_assigns_dense_indices(self):
        reg = DeviceRegistry()
        d0 = reg.intern("a")
        d1 = reg.intern("b")
        assert (d0.index, d1.index) == (0, 1)
        assert reg.intern("a") is d0

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownDeviceError):
            DeviceRegistry().get("ghost")

    def test_default_delta(self):
        device = Device(mac="a", index=0)
        assert device.delta == DEFAULT_DELTA_SECONDS

    def test_device_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            Device(mac="a", index=0, delta=0.0)

    def test_iteration_and_macs(self):
        reg = DeviceRegistry()
        reg.intern("a")
        reg.intern("b")
        assert reg.macs() == ["a", "b"]
        assert len(list(reg)) == 2
        assert "a" in reg and "z" not in reg


class TestEventTable:
    def _table(self) -> EventTable:
        events = [
            ConnectivityEvent(30.0, "m1", "wap2"),
            ConnectivityEvent(10.0, "m1", "wap1"),
            ConnectivityEvent(20.0, "m2", "wap1"),
        ]
        return EventTable.from_events(events)

    def test_log_sorted(self):
        table = self._table()
        log = table.log("m1")
        assert list(log.times) == [10.0, 30.0]
        assert log.ap_at(0) == "wap1"
        assert log.ap_at(1) == "wap2"

    def test_len_and_device_count(self):
        table = self._table()
        assert len(table) == 3
        assert table.device_count == 2

    def test_unknown_device_raises(self):
        with pytest.raises(UnknownDeviceError):
            self._table().log("ghost")

    def test_span(self):
        span = self._table().span()
        assert span.start == 10.0
        assert span.end >= 30.0

    def test_empty_table_span_raises(self):
        with pytest.raises(EmptyHistoryError):
            EventTable().span()

    def test_incremental_append_resorts(self):
        table = self._table()
        table.append(ConnectivityEvent(5.0, "m1", "wap3"))
        log = table.log("m1")  # lazy freeze
        assert list(log.times) == [5.0, 10.0, 30.0]

    def test_slice_interval(self):
        table = self._table()
        times, aps = table.log("m1").slice_interval(TimeInterval(10.0, 30.0))
        assert list(times) == [10.0]  # half-open: 30.0 excluded
        assert table.log("m1").resolve_ap(int(aps[0])) == "wap1"

    def test_count_in(self):
        log = self._table().log("m1")
        assert log.count_in(TimeInterval(0.0, 100.0)) == 2
        assert log.count_in(TimeInterval(11.0, 29.0)) == 0

    def test_nearest_before_after(self):
        log = self._table().log("m1")
        assert log.nearest_before(15.0) == 0
        assert log.nearest_before(5.0) is None
        assert log.nearest_after(15.0) == 1
        assert log.nearest_after(31.0) is None

    def test_events_of_with_window(self):
        table = self._table()
        events = table.events_of("m1", TimeInterval(0.0, 15.0))
        assert [e.timestamp for e in events] == [10.0]

    def test_devices_active_in(self):
        table = self._table()
        active = table.devices_active_in(TimeInterval(15.0, 25.0))
        assert active == ["m2"]

    def test_restrict_preserves_delta(self):
        table = self._table()
        table.registry.get("m1").delta = 123.0
        clipped = table.restrict(TimeInterval(0.0, 15.0))
        assert clipped.registry.get("m1").delta == 123.0
        assert len(clipped) == 1

    def test_restrict_keeps_devices_without_surviving_events(self):
        # Delta estimates come from the full history; a restriction must
        # carry them for every registered device, not only those with
        # events inside the window.
        table = self._table()
        table.registry.get("m2").delta = 77.0
        clipped = table.restrict(TimeInterval(0.0, 15.0))  # drops all of m2
        assert clipped.registry.get("m2").delta == 77.0
        assert clipped.log("m2").is_empty
        assert clipped.macs() == table.macs()

    def test_restrict_matches_append_based_rebuild(self):
        # The array-sliced fast path must be indistinguishable from
        # re-appending the surviving events one by one.
        table = self._table()
        window = TimeInterval(15.0, 35.0)
        clipped = table.restrict(window)
        rebuilt = EventTable.from_events(
            event for mac in table.macs()
            for event in table.events_of(mac, window))
        assert clipped.ap_ids == rebuilt.ap_ids
        assert len(clipped) == len(rebuilt)
        for mac in rebuilt.macs():
            assert list(clipped.log(mac).times) == \
                list(rebuilt.log(mac).times)
            assert [clipped.log(mac).ap_at(i)
                    for i in range(len(clipped.log(mac)))] == \
                [rebuilt.log(mac).ap_at(i)
                 for i in range(len(rebuilt.log(mac)))]

    def test_ap_vocab(self):
        assert set(self._table().ap_ids) == {"wap1", "wap2"}

    def test_empty_log_for_registered_device(self):
        table = EventTable()
        table.registry.intern("m9")
        log = table.log("m9")
        assert log.is_empty
        assert list(log.events()) == []
