"""Time arithmetic for connectivity logs.

Timestamps throughout the library are plain ``float`` seconds relative to a
simulation epoch (second 0 is midnight on a Monday).  Working in seconds
keeps the event table numpy-friendly and avoids timezone concerns that real
deployments would push into the ingestion layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from repro.errors import ConfigurationError

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
DAYS_PER_WEEK = 7
SECONDS_PER_WEEK = SECONDS_PER_DAY * DAYS_PER_WEEK

_DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def minutes(value: float) -> float:
    """Convert minutes to seconds."""
    return value * SECONDS_PER_MINUTE


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return value * SECONDS_PER_HOUR


def weeks(value: float) -> float:
    """Convert weeks to seconds."""
    return value * SECONDS_PER_WEEK


def day_index(timestamp: float) -> int:
    """Return the zero-based day number containing ``timestamp``."""
    return int(timestamp // SECONDS_PER_DAY)


def day_of_week(timestamp: float) -> int:
    """Return the day of week (0=Monday .. 6=Sunday) of ``timestamp``."""
    return day_index(timestamp) % DAYS_PER_WEEK


def seconds_of_day(timestamp: float) -> float:
    """Return seconds elapsed since midnight of the day of ``timestamp``."""
    return timestamp % SECONDS_PER_DAY


def day_span(interval: "TimeInterval") -> "tuple[int, int]":
    """Inclusive ``(first_day, last_day)`` day indices touched by an interval.

    The interval is half-open, so a window ending exactly on midnight does
    not touch the day that starts there: ``day_span([0, 86400)) == (0, 0)``.
    A zero-length interval touches only the day containing its start.  This
    replaces the fragile ``day_index(end - 1e-9)`` epsilon pattern, which
    silently spilled into the next day for ends within 1e-9 above midnight.
    """
    first = day_index(interval.start)
    if interval.end <= interval.start:
        return first, first
    last = day_index(interval.end)
    if interval.end == last * SECONDS_PER_DAY:
        # End lands exactly on a midnight: [.., end) excludes that day.
        last -= 1
    return first, max(first, last)


def format_timestamp(timestamp: float) -> str:
    """Render a timestamp as ``day N (Ddd) HH:MM:SS`` for logs and reports."""
    day = day_index(timestamp)
    rem = seconds_of_day(timestamp)
    hh = int(rem // SECONDS_PER_HOUR)
    mm = int((rem % SECONDS_PER_HOUR) // SECONDS_PER_MINUTE)
    ss = int(rem % SECONDS_PER_MINUTE)
    return f"day {day} ({_DAY_NAMES[day % DAYS_PER_WEEK]}) {hh:02d}:{mm:02d}:{ss:02d}"


@dataclass(frozen=True, slots=True)
class TimeInterval:
    """A half-open time interval ``[start, end)`` in seconds.

    Used for event validity, gaps, ground-truth room visits and history
    windows.  ``end`` must be at least ``start``; zero-length intervals are
    allowed and behave as empty.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigurationError(
                f"interval end ({self.end}) precedes start ({self.start})"
            )

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.end - self.start

    def contains(self, timestamp: float) -> bool:
        """Whether ``timestamp`` falls inside ``[start, end)``."""
        return self.start <= timestamp < self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        """Whether the two intervals share any positive-length overlap.

        Zero-length intervals overlap nothing (consistent with
        :meth:`intersect`, which would return ``None``).
        """
        return max(self.start, other.start) < min(self.end, other.end)

    def intersect(self, other: "TimeInterval") -> "TimeInterval | None":
        """Return the overlapping sub-interval, or ``None`` if disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo >= hi:
            return None
        return TimeInterval(lo, hi)

    def shift(self, delta: float) -> "TimeInterval":
        """Return the interval translated by ``delta`` seconds."""
        return TimeInterval(self.start + delta, self.end + delta)

    def split_by_day(self) -> Iterator["TimeInterval"]:
        """Yield the pieces of this interval clipped to day boundaries."""
        cursor = self.start
        while cursor < self.end:
            boundary = (day_index(cursor) + 1) * SECONDS_PER_DAY
            piece_end = min(boundary, self.end)
            yield TimeInterval(cursor, piece_end)
            cursor = piece_end

    def __str__(self) -> str:
        return f"[{format_timestamp(self.start)} .. {format_timestamp(self.end)})"
