"""Gap detection: the missing values of the coarse localization problem.

A *gap* is a maximal period in a device's log during which no connectivity
event is valid (paper §2): between consecutive events ``e0`` at ``t0`` and
``e1`` at ``t1``, if ``t1 − t0 > 2δ`` there is a gap
``[t0 + δ, t1 − δ]``.  The coarse-grained localizer classifies each gap as
outside the building or inside a specific region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.events.table import DeviceLog
from repro.util.timeutil import TimeInterval


@dataclass(frozen=True, slots=True)
class Gap:
    """One gap in a device's connectivity log.

    Attributes:
        mac: Device the gap belongs to.
        interval: ``[t_str, t_end]`` = ``[t0 + δ, t1 − δ]``.
        before_position: Log position of the event e0 preceding the gap.
        after_position: Log position of the event e1 following the gap.
        ap_before: AP of e0 (determines the gap's start region g_str).
        ap_after: AP of e1 (determines the gap's end region g_end).
    """

    mac: str
    interval: TimeInterval
    before_position: int
    after_position: int
    ap_before: str
    ap_after: str

    @property
    def duration(self) -> float:
        """δ(gap): the length of the gap in seconds."""
        return self.interval.duration

    def __str__(self) -> str:
        return (f"gap({self.mac}) {self.interval} "
                f"[{self.ap_before} → {self.ap_after}]")


@dataclass(frozen=True, slots=True)
class GapArrays:
    """Column-oriented view of a device's gaps (the array-native core).

    Parallel arrays, one entry per gap in chronological order.  ``starts``
    and ``ends`` are the gap bounds ``[t0 + δ, t1 − δ]``;
    ``before_positions`` indexes the event e0 preceding each gap, and
    ``ap_before_codes`` / ``ap_after_codes`` are AP *vocabulary indices*
    (resolve via :meth:`DeviceLog.resolve_ap`).  The coarse training
    pipeline consumes these columns directly; :meth:`to_gaps` materializes
    the classic :class:`Gap` records for the object-based boundary APIs.
    """

    mac: str
    starts: np.ndarray
    ends: np.ndarray
    before_positions: np.ndarray
    ap_before_codes: np.ndarray
    ap_after_codes: np.ndarray

    def __len__(self) -> int:
        return int(self.starts.size)

    def to_gaps(self, log: DeviceLog) -> list[Gap]:
        """Materialize :class:`Gap` records (bit-identical to the loop)."""
        return [Gap(
            mac=self.mac,
            interval=TimeInterval(float(self.starts[i]),
                                  float(self.ends[i])),
            before_position=int(self.before_positions[i]),
            after_position=int(self.before_positions[i]) + 1,
            ap_before=log.resolve_ap(int(self.ap_before_codes[i])),
            ap_after=log.resolve_ap(int(self.ap_after_codes[i])),
        ) for i in range(len(self))]


def extract_gap_arrays(log: DeviceLog, delta: "float | None" = None,
                       window: "TimeInterval | None" = None) -> GapArrays:
    """All gaps of a device log as :class:`GapArrays`, fully vectorized.

    One pass of array arithmetic over the sorted timestamp array replaces
    the per-event-pair Python loop: consecutive spacings are diffed, the
    ``> 2δ`` mask (and the optional window mask on the start event) selects
    the gap positions, and the bound/AP columns are gathered in bulk.
    """
    if delta is None:
        delta = log.device.delta
    times = log.times
    if times.size < 2:
        empty = np.empty(0, dtype=np.int64)
        return GapArrays(mac=log.device.mac,
                         starts=np.empty(0, dtype=np.float64),
                         ends=np.empty(0, dtype=np.float64),
                         before_positions=empty,
                         ap_before_codes=empty, ap_after_codes=empty)
    mask = (times[1:] - times[:-1]) > 2 * delta
    if window is not None:
        mask &= (times[:-1] >= window.start) & (times[:-1] < window.end)
    positions = np.flatnonzero(mask)
    return GapArrays(
        mac=log.device.mac,
        starts=times[positions] + delta,
        ends=times[positions + 1] - delta,
        before_positions=positions,
        ap_before_codes=log.ap_indices[positions],
        ap_after_codes=log.ap_indices[positions + 1],
    )


def extract_gaps(log: DeviceLog, delta: "float | None" = None,
                 window: "TimeInterval | None" = None) -> list[Gap]:
    """All gaps of a device log (GAP(d)), optionally restricted to a window.

    A pair of consecutive events produces a gap only when the spacing
    exceeds ``2δ``; otherwise their validity windows tile the whole span.
    With ``window``, only gaps whose *start* event lies in the window are
    returned (how the training history E_T is assembled in Section 3).

    Built on :func:`extract_gap_arrays`; answers are identical to the
    historical per-pair loop (retained as the oracle in
    ``tests/oracles/coarse.py``).
    """
    return extract_gap_arrays(log, delta=delta, window=window).to_gaps(log)


def find_gap_at(log: DeviceLog, timestamp: float,
                delta: "float | None" = None) -> "Gap | None":
    """The gap containing ``timestamp``, or None if an event is valid there.

    Boundary gaps (before the first or after the last event) return None:
    they are handled by the caller, since without a surrounding event pair
    the gap features of Section 3 are undefined (the coarse localizer
    treats a query there as outside the building).
    """
    if delta is None:
        delta = log.device.delta
    if log.is_empty:
        return None
    before = log.nearest_before(timestamp)
    if before is None or before + 1 >= len(log):
        return None
    t0 = log.time_at(before)
    t1 = log.time_at(before + 1)
    if t1 - t0 <= 2 * delta:
        return None
    start, end = t0 + delta, t1 - delta
    if not start <= timestamp <= end:
        return None
    return Gap(
        mac=log.device.mac,
        interval=TimeInterval(start, end),
        before_position=before,
        after_position=before + 1,
        ap_before=log.ap_at(before),
        ap_after=log.ap_at(before + 1),
    )
