"""Event validity intervals and per-device δ estimation (paper §2 + appendix).

An event at time ``t`` of device ``d`` is valid in ``(t − δ(d), t + δ(d))``,
truncated so it never overlaps the validity of the neighbouring events of
the same device (paper Fig. 2).  δ depends on the device: different OSes
probe the network at different periodicities.  The appendix notes δ "can be
extracted directly from the WiFi connectivity data": while a device sits in
one room, the log shows how frequently it reconnects.  We implement that as
a clamped high percentile of the device's *within-session* inter-event
times, where a session is a run of consecutive events whose spacing stays
below a session break threshold.

:func:`valid_event_at` answers the query-time test for one device log;
:func:`valid_events_at` answers it for every device of a table at once,
over the table's :class:`~repro.events.table.FlatLogs`, with the same
candidates and the same window rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.events.device import DEFAULT_DELTA_SECONDS
from repro.events.table import DeviceLog, EventTable, FlatLogs
from repro.util.timeutil import TimeInterval, minutes
from repro.util.validation import check_fraction, check_positive


@dataclass(frozen=True, slots=True)
class ValidityInterval:
    """The validity window of one event (paper Fig. 2).

    Attributes:
        event_position: Index of the event inside its device log.
        interval: The clipped ``(t − δ, t + δ)`` window.
        ap_id: AP the device was associated with during the window.
    """

    event_position: int
    interval: TimeInterval
    ap_id: str


def validity_intervals(log: DeviceLog, delta: "float | None" = None
                       ) -> list[ValidityInterval]:
    """Compute clipped validity intervals for every event of a device.

    The raw window of event ``e_n`` is ``(t_n − δ, t_n + δ)``.  Following
    the paper exactly (Fig. 2): when the window overlaps the *next*
    event's window, its end is updated to the next event's timestamp —
    e1 becomes valid in ``(t1 − δ, t2)``.  Starts always stay at
    ``t_n − δ`` (clamped at 0), so consecutive windows may overlap in
    ``(t_{n+1} − δ, t_{n+1})``; that residual ambiguity is inherent to
    the model and harmless, since a query landing there is answered by
    whichever event's window is found first.
    """
    if delta is None:
        delta = log.device.delta
    check_positive("delta", delta)
    out: list[ValidityInterval] = []
    n = len(log)
    for i in range(n):
        t = log.time_at(i)
        start = max(t - delta, 0.0)
        end = t + delta
        if i + 1 < n:
            next_t = log.time_at(i + 1)
            if next_t - delta < end:
                end = next_t
        if end < start:  # duplicate timestamps can invert the window
            end = start
        out.append(ValidityInterval(event_position=i,
                                    interval=TimeInterval(start, end),
                                    ap_id=log.ap_at(i)))
    return out


def valid_event_at(log: DeviceLog, timestamp: float,
                   delta: "float | None" = None) -> "ValidityInterval | None":
    """Return the validity interval covering ``timestamp``, if any.

    This is the query-time test of Section 2: if the query time falls
    inside some event's validity window, the device's region is simply the
    region of that event's AP and no cleaning is needed.
    """
    if delta is None:
        delta = log.device.delta
    if log.is_empty:
        return None
    pos = log.nearest_before(timestamp)
    candidates = []
    if pos is not None:
        candidates.append(pos)
    after = log.nearest_after(timestamp)
    if after is not None:
        candidates.append(after)
    for i in candidates:
        t = log.time_at(i)
        start, end = max(t - delta, 0.0), t + delta
        if i + 1 < len(log) and log.time_at(i + 1) - delta < end:
            end = log.time_at(i + 1)
        if start <= timestamp <= end:
            return ValidityInterval(event_position=i,
                                    interval=TimeInterval(start, max(start, end)),
                                    ap_id=log.ap_at(i))
    return None


def valid_events_at(flat: FlatLogs, timestamp: float
                    ) -> "tuple[np.ndarray, np.ndarray]":
    """:func:`valid_event_at` for every device of ``flat`` in one pass.

    Returns ``(rows, positions)``: the rows of the devices with an event
    valid at ``timestamp``, ascending (so in sorted-MAC order), and the
    position in ``flat`` of each one's valid event — the event
    :func:`valid_event_at` returns for that device's log.  δ is read
    from each device at call time.

    The candidates are those of :func:`valid_event_at`: the latest
    event at or before ``timestamp``, tried first, then the next one.
    Since δ > 0 (every writer of ``Device.delta`` keeps it positive),
    each can miss on one side only.  The event before starts no later
    than its own time, so only its end can fall short; and when it sits
    exactly on ``timestamp`` it always covers it, so the scalar rule's
    other candidate (the first event at ``timestamp``) never decides,
    and the next position stands in for it.  The event after lies past
    ``timestamp``, and so does its end, so only its start can miss.
    """
    times = flat.times
    # Windows start at >= 0, so nothing is valid at a negative (or NaN)
    # time; past this check max(start, 0) <= timestamp iff start does.
    if times.size == 0 or not timestamp >= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    count = len(flat.macs)
    delta = np.fromiter((device.delta for device in flat.devices),
                        dtype=np.float64, count=count)
    # complex(0, t), not 1j * t: 1j * inf has a NaN real part.
    probes = np.arange(count) + complex(0.0, timestamp)
    before = np.searchsorted(flat.keys, probes, side="right") - 1
    after = before + 1
    has_before = before >= flat.offsets[:-1]
    has_after = after < flat.offsets[1:]
    # Rows without a candidate read a clamped neighbour, masked below.
    t_before = times[np.maximum(before, 0)]
    t_after = times[np.minimum(after, times.size - 1)]
    start_after = t_after - delta
    # The before window's end is cut to the next event's time when the
    # next window starts inside it (paper Fig. 2).
    end = t_before + delta
    end = np.where(has_after & (start_after < end), t_after, end)
    hit_before = has_before & (timestamp <= end)
    hit_after = has_after & (start_after <= timestamp)
    rows = np.flatnonzero(hit_before | hit_after)
    positions = np.where(hit_before, before, after)[rows]
    return rows, positions


class DeltaEstimator:
    """Estimates each device's validity period δ(d) from its own log.

    Args:
        session_break: Spacing above which two consecutive events are
            considered different sessions (default 30 minutes).
        percentile: Percentile of within-session inter-event times used as
            δ (default 0.75 — bridges normal probe jitter while leaving
            genuinely long silences as gaps).
        minimum / maximum: Clamps on the estimate, so pathological logs
            (e.g. a device that connected twice) stay reasonable.
        min_samples: Below this many within-session spacings, fall back to
            :data:`DEFAULT_DELTA_SECONDS`.
    """

    def __init__(self, session_break: float = minutes(45),
                 percentile: float = 0.75,
                 minimum: float = minutes(2),
                 maximum: float = minutes(20),
                 min_samples: int = 5) -> None:
        check_positive("session_break", session_break)
        check_fraction("percentile", percentile)
        check_positive("minimum", minimum)
        check_positive("maximum", maximum)
        if maximum < minimum:
            raise ConfigurationError("maximum delta must be >= minimum delta")
        self.session_break = session_break
        self.percentile = percentile
        self.minimum = minimum
        self.maximum = maximum
        self.min_samples = min_samples

    def estimate(self, log: DeviceLog) -> float:
        """δ estimate for one device log."""
        if len(log) < 2:
            return DEFAULT_DELTA_SECONDS
        spacings = np.diff(log.times)
        in_session = spacings[spacings < self.session_break]
        if in_session.size < self.min_samples:
            return DEFAULT_DELTA_SECONDS
        value = float(np.quantile(in_session, self.percentile))
        return float(np.clip(value, self.minimum, self.maximum))

    def fit_table(self, table: EventTable) -> dict[str, float]:
        """Estimate and install δ for every device in ``table``.

        Returns the mapping mac → δ for inspection.
        """
        return self.fit_devices(table, table.macs())

    def fit_devices(self, table: EventTable,
                    macs: Iterable[str]) -> dict[str, float]:
        """Estimate and install δ for the given devices only.

        The estimate is a pure function of the device's own log, so
        fitting just the devices whose logs changed (the ingestion
        engine's change feed) yields exactly the same table state as
        refitting everything — at O(changed) cost.  Returns mac → δ.
        """
        estimates: dict[str, float] = {}
        for mac in macs:
            log = table.log(mac)
            delta = self.estimate(log)
            table.registry.get(mac).delta = delta
            estimates[mac] = delta
        return estimates
