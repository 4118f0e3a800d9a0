"""Gap feature extraction (paper §3), array-native.

For each gap the paper extracts: start/end time-of-day, duration, start/end
day-of-week, start/end region, and the *connection density* ω — the average
number of the device's connectivity events during the same time-of-day
window per day of the history period T.

The extractor emits the whole batch as one :class:`GapFeatureMatrix` —
numeric columns as a dense float64 matrix and categoricals as one-hot
*column codes* — so training builds the design matrix with array ops only.
The density of every gap is computed in one shot: a (gaps × days) grid of
absolute window bounds fed to :meth:`~repro.events.table.DeviceLog
.count_in_windows`, two vectorized binary searches total instead of
gaps × days ``count_in`` calls.  The historical one-dict-per-gap path is
retained in :mod:`repro.coarse.reference` as the property-suite oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.events.gaps import Gap
from repro.events.table import DeviceLog
from repro.space.building import Building
from repro.util.timeutil import (
    DAYS_PER_WEEK,
    SECONDS_PER_DAY,
    TimeInterval,
    day_span,
)

#: Column names of the numeric gap features, in design-matrix order.
NUMERIC_COLUMNS = ("start_time", "end_time", "duration", "density")

#: Column names of the categorical gap features.
CATEGORICAL_COLUMNS = ("start_day", "end_day", "start_region", "end_region")


@dataclass(frozen=True, slots=True)
class GapFeatureMatrix:
    """One device's gap features in array form.

    Attributes:
        numeric: (gaps × 4) float64 matrix in :data:`NUMERIC_COLUMNS`
            order — raw (unscaled) values, fed to the pipeline's scaler.
        categorical_codes: Per categorical column, the one-hot *column
            code* of each gap (−1 would encode as all zeros, matching the
            encoder's unseen-category contract, though the extractor's
            fixed vocabularies always resolve).
    """

    numeric: np.ndarray
    categorical_codes: "dict[str, np.ndarray]"

    def __len__(self) -> int:
        return int(self.numeric.shape[0])


class GapFeatureExtractor:
    """Vectorizes gaps for one building.

    Keeps the building handy and exposes the fixed categorical vocabularies
    (7 days of week; all region ids) so every device's design matrix has
    identical width.
    """

    def __init__(self, building: Building) -> None:
        self._building = building
        region_ids = [region.region_id for region in building.regions]
        self.categorical_vocab: list[tuple[str, Sequence[int]]] = [
            ("start_day", list(range(DAYS_PER_WEEK))),
            ("end_day", list(range(DAYS_PER_WEEK))),
            ("start_region", region_ids),
            ("end_region", region_ids),
        ]
        self.numeric_columns = list(NUMERIC_COLUMNS)
        # One-hot column of each region id (region ids are dense ints, so
        # an array lookup beats a dict in the vectorized path).
        size = max(region_ids, default=-1) + 1
        self._region_code = np.full(size, -1, dtype=np.int64)
        for column, region_id in enumerate(region_ids):
            self._region_code[region_id] = column
        # AP id → region id, resolved on first use per AP.
        self._ap_region: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _region_of_ap(self, ap_id: str) -> int:
        region_id = self._ap_region.get(ap_id)
        if region_id is None:
            region_id = self._building.region_of_ap(ap_id).region_id
            self._ap_region[ap_id] = region_id
        return region_id

    def matrix(self, gaps: Sequence[Gap], log: DeviceLog,
               history: TimeInterval) -> GapFeatureMatrix:
        """The full feature batch of one device's gaps, in one shot.

        Gap bounds and endpoint regions are gathered into arrays with a
        single cheap pass over ``gaps``; every feature — including the
        density ω of all gaps over all history days — is then a
        vectorized transform.  Values are bit-identical to the reference
        one-dict-per-gap path.
        """
        count = len(gaps)
        starts = np.empty(count)
        ends = np.empty(count)
        start_regions = np.empty(count, dtype=np.int64)
        end_regions = np.empty(count, dtype=np.int64)
        for i, gap in enumerate(gaps):
            starts[i] = gap.interval.start
            ends[i] = gap.interval.end
            start_regions[i] = self._region_of_ap(gap.ap_before)
            end_regions[i] = self._region_of_ap(gap.ap_after)

        numeric = np.empty((count, len(NUMERIC_COLUMNS)))
        numeric[:, 0] = starts % SECONDS_PER_DAY
        numeric[:, 1] = ends % SECONDS_PER_DAY
        numeric[:, 2] = ends - starts
        numeric[:, 3] = self._densities(starts, ends, log, history)

        days = (starts // SECONDS_PER_DAY).astype(np.int64)
        end_days = (ends // SECONDS_PER_DAY).astype(np.int64)
        codes = {
            "start_day": days % DAYS_PER_WEEK,
            "end_day": end_days % DAYS_PER_WEEK,
            "start_region": self._region_code[start_regions],
            "end_region": self._region_code[end_regions],
        }
        return GapFeatureMatrix(numeric=numeric, categorical_codes=codes)

    def _densities(self, starts: np.ndarray, ends: np.ndarray,
                   log: DeviceLog, history: TimeInterval) -> np.ndarray:
        """ω for every gap at once (mean daily count in each gap's window).

        Gaps wrapping past midnight use the start-to-midnight slice, which
        keeps the window well-defined (the paper assumes gaps do not span
        multiple days).
        """
        window_start = starts % SECONDS_PER_DAY
        window_end = ends % SECONDS_PER_DAY
        window_end = np.where(window_end <= window_start,
                              SECONDS_PER_DAY, window_end)
        first_day, last_day = day_span(history)
        n_days = max(1, last_day - first_day + 1)
        base = np.arange(first_day, last_day + 1) * SECONDS_PER_DAY
        counts = log.count_in_windows(base[None, :] + window_start[:, None],
                                      base[None, :] + window_end[:, None])
        return counts.sum(axis=1) / n_days

    def rows(self, gaps: Sequence[Gap], log: DeviceLog,
             history: TimeInterval) -> list[dict]:
        """Feature rows as dicts (introspection/boundary adapter).

        Values come from the same array path :meth:`matrix` runs; only the
        presentation differs.  Categorical entries hold the raw category
        values (day of week, region id), as the historical API did.
        """
        feature_matrix = self.matrix(gaps, log, history)
        vocab = dict(self.categorical_vocab)
        rows: list[dict] = []
        for i in range(len(gaps)):
            row = {name: float(feature_matrix.numeric[i, j])
                   for j, name in enumerate(NUMERIC_COLUMNS)}
            for name in CATEGORICAL_COLUMNS:
                code = int(feature_matrix.categorical_codes[name][i])
                row[name] = vocab[name][code]
            rows.append(row)
        return rows


def gap_feature_row(gap: Gap, building: Building, log: DeviceLog,
                    history: TimeInterval) -> dict:
    """Build the feature dict of one gap.

    The connection density ω averages the device's event count inside the
    gap's time-of-day window over each day of ``history``, matching the
    paper's "average number of logged connectivity events for the device
    during the same time period of a gap for each day in T".
    """
    return GapFeatureExtractor(building).rows([gap], log, history)[0]
