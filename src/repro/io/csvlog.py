"""CSV connectivity logs: ``timestamp,mac,ap_id`` rows with a header."""

from __future__ import annotations

import csv
from pathlib import Path
from collections.abc import Iterable, Iterator

from repro.errors import EventTableError, InvalidEventError
from repro.events.event import ConnectivityEvent

HEADER = ("timestamp", "mac", "ap_id")


def write_csv_events(path: "str | Path",
                     events: Iterable[ConnectivityEvent]) -> int:
    """Write events as CSV; returns the number of rows written."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        for event in events:
            writer.writerow([repr(event.timestamp), event.mac, event.ap_id])
            count += 1
    return count


def read_csv_events(path: "str | Path") -> Iterator[ConnectivityEvent]:
    """Read events from CSV written by :func:`write_csv_events`.

    Validates the header and every row; malformed rows raise
    :class:`EventTableError` with the offending line number
    (:class:`InvalidEventError` when the fields parse but do not form a
    valid event, e.g. a ``nan`` timestamp).
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise EventTableError(f"{path}: empty CSV file") from None
        if tuple(header) != HEADER:
            raise EventTableError(
                f"{path}: unexpected header {header!r}, want {HEADER}")
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise EventTableError(
                    f"{path}:{line_number}: expected 3 columns, got {row!r}")
            try:
                timestamp = float(row[0])
            except ValueError:
                raise EventTableError(
                    f"{path}:{line_number}: bad timestamp {row[0]!r}"
                ) from None
            try:
                event = ConnectivityEvent(timestamp=timestamp, mac=row[1],
                                          ap_id=row[2])
            except InvalidEventError as exc:
                raise InvalidEventError(
                    f"{path}:{line_number}: {exc}") from None
            yield event
