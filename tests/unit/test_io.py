"""Unit tests for dataset I/O: CSV/JSONL logs and MAC anonymization."""

from __future__ import annotations

import pytest

from repro.errors import EventTableError, InvalidEventError
from repro.events.event import ConnectivityEvent
from repro.io.anonymize import MacAnonymizer
from repro.io.csvlog import read_csv_events, write_csv_events
from repro.io.jsonl import read_jsonl_events, write_jsonl_events


EVENTS = [
    ConnectivityEvent(10.5, "aa:bb:cc", "wap1"),
    ConnectivityEvent(20.25, "dd:ee:ff", "wap2"),
    ConnectivityEvent(30.0, "aa:bb:cc", "wap1"),
]


class TestCsvLog:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "log.csv"
        assert write_csv_events(path, EVENTS) == 3
        loaded = list(read_csv_events(path))
        assert [(e.timestamp, e.mac, e.ap_id) for e in loaded] == \
            [(e.timestamp, e.mac, e.ap_id) for e in EVENTS]

    def test_float_precision_preserved(self, tmp_path):
        path = tmp_path / "log.csv"
        precise = [ConnectivityEvent(12345.678901234, "m", "w")]
        write_csv_events(path, precise)
        loaded = list(read_csv_events(path))
        assert loaded[0].timestamp == precise[0].timestamp

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EventTableError):
            list(read_csv_events(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(EventTableError):
            list(read_csv_events(path))

    def test_bad_timestamp_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,mac,ap_id\nnope,m,w\n")
        with pytest.raises(EventTableError, match=":2"):
            list(read_csv_events(path))

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,mac,ap_id\n1.0,m\n")
        with pytest.raises(EventTableError):
            list(read_csv_events(path))

    def test_nan_timestamp_row_rejected_with_line(self, tmp_path):
        # float("nan") parses, so the row reaches the event check.
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,mac,ap_id\n1.0,m,w\nnan,m,w\n")
        with pytest.raises(InvalidEventError, match=":3"):
            list(read_csv_events(path))


class TestJsonlLog:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert write_jsonl_events(path, EVENTS) == 3
        loaded = list(read_jsonl_events(path))
        assert [(e.timestamp, e.mac, e.ap_id) for e in loaded] == \
            [(e.timestamp, e.mac, e.ap_id) for e in EVENTS]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"timestamp": 1.0, "mac": "m", "ap_id": "w"}\n\n')
        assert len(list(read_jsonl_events(path))) == 1

    def test_extra_keys_ignored(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"timestamp": 1.0, "mac": "m", "ap_id": "w", '
                        '"rssi": -60}\n')
        loaded = list(read_jsonl_events(path))
        assert loaded[0].mac == "m"

    def test_invalid_json_reported_with_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"timestamp": 1.0}\nnot json\n')
        with pytest.raises(EventTableError):
            list(read_jsonl_events(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"timestamp": 1.0, "mac": "m"}\n')
        with pytest.raises(EventTableError, match=":1"):
            list(read_jsonl_events(path))

    def test_nan_timestamp_record_rejected_with_line(self, tmp_path):
        # json accepts the NaN literal Python's encoder writes.
        path = tmp_path / "log.jsonl"
        path.write_text('{"timestamp": 1.0, "mac": "m", "ap_id": "w"}\n'
                        '{"timestamp": NaN, "mac": "m", "ap_id": "w"}\n')
        with pytest.raises(InvalidEventError, match=":2"):
            list(read_jsonl_events(path))


class TestMacAnonymizer:
    def test_deterministic(self):
        anon = MacAnonymizer(salt="s3cret")
        assert anon.pseudonym("aa:bb") == anon.pseudonym("aa:bb")

    def test_distinct_macs_distinct_pseudonyms(self):
        anon = MacAnonymizer(salt="s3cret")
        assert anon.pseudonym("aa:bb") != anon.pseudonym("cc:dd")

    def test_salt_changes_mapping(self):
        a = MacAnonymizer(salt="one").pseudonym("aa:bb")
        b = MacAnonymizer(salt="two").pseudonym("aa:bb")
        assert a != b

    def test_linkage_preserved_on_streams(self):
        anon = MacAnonymizer(salt="s3cret")
        out = list(anon.anonymize(EVENTS))
        assert out[0].mac == out[2].mac       # same device stays linked
        assert out[0].mac != EVENTS[0].mac    # but pseudonymized
        assert out[0].timestamp == EVENTS[0].timestamp
        assert anon.mapping_size() == 2

    def test_prefix_and_length(self):
        anon = MacAnonymizer(salt="x", prefix="dev-", digest_chars=16)
        pseudonym = anon.pseudonym("aa")
        assert pseudonym.startswith("dev-")
        assert len(pseudonym) == 4 + 16

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MacAnonymizer(salt="")
        with pytest.raises(ValueError):
            MacAnonymizer(salt="x", digest_chars=4)

    def test_pipeline_equivalence(self, fig1_building, fig1_metadata,
                                  fig1_table):
        """Cleaning anonymized data gives the same answers (linkage is
        all LOCATER needs)."""
        from repro.events.table import EventTable
        from repro.space.metadata import SpaceMetadata
        from repro.system.config import LocaterConfig
        from repro.system.locater import Locater

        anon = MacAnonymizer(salt="k")
        events = [e for mac in fig1_table.macs()
                  for e in fig1_table.events_of(mac)]
        table2 = EventTable.from_events(anon.anonymize(events))
        for mac in fig1_table.macs():
            table2.registry.get(anon.pseudonym(mac)).delta = \
                fig1_table.registry.get(mac).delta
        meta2 = SpaceMetadata(fig1_building, preferred_rooms={
            anon.pseudonym("d1"): ["2061"],
            anon.pseudonym("d2"): ["2069"],
        })
        config = LocaterConfig(use_caching=False)
        plain = Locater(fig1_building, fig1_metadata, fig1_table,
                        config=config)
        hashed = Locater(fig1_building, meta2, table2, config=config)
        t = 8.5 * 3600
        a = plain.locate("d1", t)
        b = hashed.locate(anon.pseudonym("d1"), t)
        assert a.inside == b.inside
        assert a.region_id == b.region_id