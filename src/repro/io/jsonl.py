"""JSON-lines connectivity logs: one event object per line."""

from __future__ import annotations

import json
from pathlib import Path
from collections.abc import Iterable, Iterator

from repro.errors import EventTableError, InvalidEventError
from repro.events.event import ConnectivityEvent


def write_jsonl_events(path: "str | Path",
                       events: Iterable[ConnectivityEvent]) -> int:
    """Write events as JSON lines; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps({
                "timestamp": event.timestamp,
                "mac": event.mac,
                "ap_id": event.ap_id,
            }, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_jsonl_events(path: "str | Path") -> Iterator[ConnectivityEvent]:
    """Read events from a JSON-lines file.

    Unknown extra keys are ignored (forward compatibility); missing
    required keys or malformed JSON raise :class:`EventTableError` with
    the offending line number, and a record whose fields do not form a
    valid event (e.g. a ``NaN`` timestamp) raises
    :class:`InvalidEventError`.
    """
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EventTableError(
                    f"{path}:{line_number}: invalid JSON: {exc}") from None
            try:
                event = ConnectivityEvent(timestamp=float(doc["timestamp"]),
                                          mac=str(doc["mac"]),
                                          ap_id=str(doc["ap_id"]))
            except InvalidEventError as exc:
                raise InvalidEventError(
                    f"{path}:{line_number}: {exc}") from None
            except (KeyError, TypeError, ValueError) as exc:
                raise EventTableError(
                    f"{path}:{line_number}: bad event record: {exc}"
                ) from None
            yield event
