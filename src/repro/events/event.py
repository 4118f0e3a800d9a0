"""Connectivity event records (the raw tuples of paper Fig. 1(b))."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import InvalidEventError
from repro.util.timeutil import format_timestamp


@dataclass(frozen=True, slots=True, order=True)
class ConnectivityEvent:
    """One WiFi association event ``⟨mac, timestamp, wap⟩``.

    Ordering is by timestamp first so sorted containers of events are
    chronological; ties break on mac then AP for determinism.

    Attributes:
        timestamp: Seconds since the dataset epoch.
        mac: MAC address (or anonymized id) of the connecting device.
        ap_id: Identifier of the access point that logged the association.
        event_id: Optional monotonically increasing id assigned at ingest.
    """

    timestamp: float
    mac: str
    ap_id: str
    event_id: int = -1

    def __post_init__(self) -> None:
        # NaN fails every comparison, so ``timestamp < 0`` alone would
        # admit it; a NaN in a sorted log breaks every binary search.
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0):
            raise InvalidEventError(
                f"timestamp must be finite and >= 0, got {self.timestamp}")
        if not self.mac:
            raise InvalidEventError("mac must be non-empty")
        if not self.ap_id:
            raise InvalidEventError("ap_id must be non-empty")

    def __str__(self) -> str:
        return (f"e{self.event_id if self.event_id >= 0 else '?'}: "
                f"{self.mac} @ {self.ap_id} [{format_timestamp(self.timestamp)}]")
