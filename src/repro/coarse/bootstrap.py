"""Bootstrapping heuristics that seed the semi-supervised learner (§3).

Building level: a gap shorter than τl is labeled *inside*, longer than τh
*outside*; in-between gaps stay unlabeled.  Region level, for gaps labeled
inside: if the gap's start and end regions agree, that region is the label;
otherwise the label is the device's most-visited region among events that
overlap the gap's time-of-day window across the history.  A second
threshold pair (τ′l, τ′h) controls which inside gaps receive a confident
region label versus staying unlabeled for the region classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.events.gaps import Gap
from repro.events.table import DeviceLog
from repro.space.building import Building, RegionCodeResolver
from repro.util.timeutil import (
    SECONDS_PER_DAY,
    TimeInterval,
    day_span,
    minutes,
    seconds_of_day,
)
from repro.util.validation import check_positive

#: Building-level labels produced by the bootstrapper.
GapLabel = str
LABEL_INSIDE: GapLabel = "inside"
LABEL_OUTSIDE: GapLabel = "outside"


@dataclass(slots=True)
class BootstrapResult:
    """Partition of a device's gaps into labeled and unlabeled sets.

    Attributes:
        labeled: (gap, label) pairs — S_labeled of Algorithm 1.
        unlabeled: gaps the heuristics could not label — S_unlabeled.
    """

    labeled: list[tuple[Gap, GapLabel]] = field(default_factory=list)
    unlabeled: list[Gap] = field(default_factory=list)


class BootstrapLabeler:
    """Threshold-based gap labeling (paper §3 "Bootstrapping").

    Args:
        building: Space model, for AP → region resolution.
        tau_low: Gaps with duration ≤ τl are labeled inside (default 20 min,
            the paper's best value from Fig. 7).
        tau_high: Gaps with duration ≥ τh are labeled outside (default
            170 min; paper's Pc levels off beyond 170).
        tau_region_low / tau_region_high: The τ′ pair for region labels
            (paper: τ′l=20, τ′h=40 best).  Inside gaps shorter than τ′l
            always take a region label; inside gaps longer than τ′h whose
            endpoint regions disagree stay unlabeled for the region
            classifier.
    """

    def __init__(self, building: Building,
                 tau_low: float = minutes(20),
                 tau_high: float = minutes(170),
                 tau_region_low: float = minutes(20),
                 tau_region_high: float = minutes(40)) -> None:
        check_positive("tau_low", tau_low)
        check_positive("tau_high", tau_high)
        if tau_high <= tau_low:
            raise ConfigurationError(
                f"tau_high ({tau_high}) must exceed tau_low ({tau_low})")
        check_positive("tau_region_low", tau_region_low)
        check_positive("tau_region_high", tau_region_high)
        if tau_region_high < tau_region_low:
            raise ConfigurationError(
                "tau_region_high must be >= tau_region_low")
        self._building = building
        self.tau_low = tau_low
        self.tau_high = tau_high
        self.tau_region_low = tau_region_low
        self.tau_region_high = tau_region_high
        self._region_codes = RegionCodeResolver(building)

    # ------------------------------------------------------------------
    # Building level
    # ------------------------------------------------------------------
    def label_building_level(self, gaps: Sequence[Gap]) -> BootstrapResult:
        """Split gaps into inside / outside / unlabeled by duration."""
        result = BootstrapResult()
        for gap in gaps:
            if gap.duration <= self.tau_low:
                result.labeled.append((gap, LABEL_INSIDE))
            elif gap.duration >= self.tau_high:
                result.labeled.append((gap, LABEL_OUTSIDE))
            else:
                result.unlabeled.append(gap)
        return result

    # ------------------------------------------------------------------
    # Region level
    # ------------------------------------------------------------------
    def region_heuristic(self, gap: Gap, log: DeviceLog,
                         history: TimeInterval) -> int:
        """Heuristic region for an inside gap.

        Same start/end region → that region; otherwise the most-visited
        region among the device's events overlapping the gap's time-of-day
        window across the history period (ties break to the start region,
        then to the lowest region id, deterministically).
        """
        start_region = self._building.region_of_ap(gap.ap_before).region_id
        end_region = self._building.region_of_ap(gap.ap_after).region_id
        if start_region == end_region:
            return start_region
        counts = self._region_visit_counts(gap, log, history)
        if not counts:
            return start_region
        best = max(sorted(counts), key=lambda rid: (counts[rid],
                                                    rid == start_region))
        return best

    def _region_visit_counts(self, gap: Gap, log: DeviceLog,
                             history: TimeInterval) -> dict[int, int]:
        """Event counts per region within the gap's time-of-day window.

        Vectorized: one ``searchsorted`` pair finds every day's window
        slice, the slices' AP codes are gathered in bulk, and each
        distinct AP resolves to its region once (instead of once per
        event per day).
        """
        window_start = seconds_of_day(gap.interval.start)
        window_end = seconds_of_day(gap.interval.end)
        if window_end <= window_start:
            window_end = SECONDS_PER_DAY
        first_day, last_day = day_span(history)
        base = np.arange(first_day, last_day + 1) * SECONDS_PER_DAY
        lo, hi = log.window_bounds(base + window_start, base + window_end)
        segments = [log.ap_indices[int(a):int(b)]
                    for a, b in zip(lo, hi) if b > a]
        if not segments:
            return {}
        codes = np.concatenate(segments)
        regions = self._region_codes.regions_of(log.ap_vocab, codes)
        counts = np.bincount(regions)
        return {int(region_id): int(count)
                for region_id, count in enumerate(counts) if count}

    def label_region_level(self, inside_gaps: Sequence[Gap], log: DeviceLog,
                           history: TimeInterval) -> BootstrapResult:
        """Split inside gaps into region-labeled and unlabeled sets.

        Short gaps (≤ τ′l) and gaps whose endpoints agree get a confident
        heuristic label; long gaps (≥ τ′h) with disagreeing endpoints stay
        unlabeled for the semi-supervised region classifier; mid-length
        disagreeing gaps take the most-visited-region heuristic.
        """
        result = BootstrapResult()
        for gap in inside_gaps:
            start_region = self._building.region_of_ap(gap.ap_before).region_id
            end_region = self._building.region_of_ap(gap.ap_after).region_id
            if start_region == end_region or gap.duration <= self.tau_region_low:
                label = str(self.region_heuristic(gap, log, history))
                result.labeled.append((gap, label))
            elif gap.duration >= self.tau_region_high:
                result.unlabeled.append(gap)
            else:
                label = str(self.region_heuristic(gap, log, history))
                result.labeled.append((gap, label))
        return result
