"""Query types of the LOCATER query engine."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import InvalidQueryError
from repro.util.timeutil import format_timestamp


@dataclass(frozen=True, slots=True)
class LocationQuery:
    """Q = (d_i, t_q): where was device ``mac`` at time ``timestamp``?

    ``timestamp`` may be current (real-time tracking) or past (historical
    analysis) — the cleaning path is identical.
    """

    mac: str
    timestamp: float

    def __post_init__(self) -> None:
        if not self.mac:
            raise InvalidQueryError("query mac must be non-empty")
        # NaN fails every comparison, so ``timestamp < 0`` alone would
        # admit it (and answer "outside"); inf overflows the planner.
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0):
            raise InvalidQueryError(
                f"query timestamp must be finite and >= 0, "
                f"got {self.timestamp}")

    def __str__(self) -> str:
        return f"Q({self.mac} @ {format_timestamp(self.timestamp)})"
