"""Dict/loop reference implementations of the coarse training pipeline.

The production coarse trainer now runs array-native end to end:
vectorized gap extraction (:func:`repro.events.gaps.extract_gap_arrays`),
one-shot design matrices (:meth:`repro.coarse.features
.GapFeatureExtractor.matrix`), and a preallocated-pool self-training loop
(:class:`repro.coarse.semi_supervised.SelfTrainingClassifier`).  This
module retains the pre-vectorization implementations — per-gap feature
dicts, a per-day ``count_in`` density loop, and the literal
vstack/``list.remove`` Algorithm 1 over the plain-expression solver of
:mod:`oracles.logistic` — as the **oracle** of the property
suite (``tests/property/test_prop_coarse_core.py``): on random logs and
training sets the array path must reproduce these bit for bit —
identical gaps, identical design matrices, identical promotion order and
labels, identical final coefficients under warm start.

Nothing in the production pipeline imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable, Sequence

import numpy as np

from repro.coarse.bootstrap import BootstrapLabeler, LABEL_INSIDE, LABEL_OUTSIDE
from repro.errors import TrainingError
from repro.events.gaps import Gap
from repro.events.table import DeviceLog, EventTable
from repro.ml.pipeline import FeaturePipeline
from repro.space.building import Building
from repro.util.stats import prediction_confidence
from repro.util.timeutil import (
    SECONDS_PER_DAY,
    TimeInterval,
    day_index,
    day_of_week,
    seconds_of_day,
)

from oracles.logistic import ReferenceLogisticRegression

#: Column names of the numeric gap features, in design-matrix order.
NUMERIC_COLUMNS = ("start_time", "end_time", "duration", "density")


def reference_extract_gaps(log: DeviceLog, delta: "float | None" = None,
                           window: "TimeInterval | None" = None) -> list[Gap]:
    """The historical per-event-pair gap extraction loop."""
    if delta is None:
        delta = log.device.delta
    gaps: list[Gap] = []
    n = len(log)
    for i in range(n - 1):
        t0 = log.time_at(i)
        t1 = log.time_at(i + 1)
        if t1 - t0 <= 2 * delta:
            continue
        if window is not None and not window.contains(t0):
            continue
        gaps.append(Gap(
            mac=log.device.mac,
            interval=TimeInterval(t0 + delta, t1 - delta),
            before_position=i,
            after_position=i + 1,
            ap_before=log.ap_at(i),
            ap_after=log.ap_at(i + 1),
        ))
    return gaps


def connection_density(gap: Gap, log: DeviceLog,
                       history: TimeInterval) -> float:
    """ω via the historical one-``count_in``-per-day loop."""
    window_start = seconds_of_day(gap.interval.start)
    window_end = seconds_of_day(gap.interval.end)
    if window_end <= window_start:
        window_end = SECONDS_PER_DAY
    first_day = day_index(history.start)
    last_day = day_index(max(history.start, history.end - 1e-9))
    n_days = max(1, last_day - first_day + 1)
    total = 0
    for day in range(first_day, last_day + 1):
        base = day * SECONDS_PER_DAY
        total += log.count_in(TimeInterval(base + window_start,
                                           base + window_end))
    return total / n_days


def reference_region_visit_counts(building: Building, gap: Gap,
                                  log: DeviceLog,
                                  history: TimeInterval) -> dict[int, int]:
    """The historical per-event region-count loop of the bootstrapper."""
    window_start = seconds_of_day(gap.interval.start)
    window_end = seconds_of_day(gap.interval.end)
    if window_end <= window_start:
        window_end = SECONDS_PER_DAY
    counts: dict[int, int] = {}
    first_day = day_index(history.start)
    last_day = day_index(max(history.start, history.end - 1e-9))
    for day in range(first_day, last_day + 1):
        base = day * SECONDS_PER_DAY
        _, ap_indices = log.slice_interval(
            TimeInterval(base + window_start, base + window_end))
        for ap_index in ap_indices:
            ap_id = log.resolve_ap(int(ap_index))
            region_id = building.region_of_ap(ap_id).region_id
            counts[region_id] = counts.get(region_id, 0) + 1
    return counts


def gap_feature_row(gap: Gap, building: Building, log: DeviceLog,
                    history: TimeInterval) -> dict:
    """The historical one-dict-per-gap feature builder."""
    start_region = building.region_of_ap(gap.ap_before).region_id
    end_region = building.region_of_ap(gap.ap_after).region_id
    return {
        "start_time": seconds_of_day(gap.interval.start),
        "end_time": seconds_of_day(gap.interval.end),
        "duration": gap.duration,
        "density": connection_density(gap, log, history),
        "start_day": day_of_week(gap.interval.start),
        "end_day": day_of_week(gap.interval.end),
        "start_region": start_region,
        "end_region": end_region,
    }


class ReferenceGapFeatureExtractor:
    """Row-of-dicts extractor feeding :meth:`FeaturePipeline.transform`."""

    def __init__(self, building: Building) -> None:
        self._building = building
        region_ids = [region.region_id for region in building.regions]
        self.categorical_vocab: list[tuple[str, Sequence[int]]] = [
            ("start_day", list(range(7))),
            ("end_day", list(range(7))),
            ("start_region", region_ids),
            ("end_region", region_ids),
        ]
        self.numeric_columns = list(NUMERIC_COLUMNS)

    def rows(self, gaps: Sequence[Gap], log: DeviceLog,
             history: TimeInterval) -> list[dict]:
        """Feature rows for a batch of gaps of the same device."""
        return [gap_feature_row(gap, self._building, log, history)
                for gap in gaps]


class ReferenceSelfTrainingClassifier:
    """Algorithm 1 with per-promotion ``np.vstack`` and ``list.remove``.

    O(U²) data movement for U unlabeled gaps — the cost the preallocated
    production loop removes.  It trains with the reference solver
    (:class:`oracles.logistic.ReferenceLogisticRegression`), so the
    production solver is checked too.  Everything observable
    (``promotions_``, ``rounds_``, predictions, final coefficients) must
    match the production :class:`~repro.coarse.semi_supervised
    .SelfTrainingClassifier` bit for bit.
    """

    def __init__(self, classes: Sequence[Hashable], batch_size: int = 1,
                 l2: float = 1e-3, learning_rate: float = 0.5,
                 max_iter: int = 150) -> None:
        if not classes:
            raise TrainingError("self-training needs a non-empty class set")
        if batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
        self.classes = list(classes)
        self.batch_size = batch_size
        self._model = ReferenceLogisticRegression(
            l2=l2, learning_rate=learning_rate, max_iter=max_iter,
            classes=self.classes)
        self.rounds_: int = 0
        self.promotions_: list[tuple[int, Hashable, float]] = []

    @property
    def model(self) -> ReferenceLogisticRegression:
        return self._model

    def fit(self, labeled: np.ndarray, labels: Sequence[Hashable],
            unlabeled: np.ndarray) -> "ReferenceSelfTrainingClassifier":
        work_x = np.asarray(labeled, dtype=float)
        work_y = list(labels)
        pool = np.asarray(unlabeled, dtype=float)
        if pool.ndim == 1 and pool.size:
            pool = pool.reshape(1, -1)
        remaining = list(range(pool.shape[0])) if pool.size else []
        if work_x.size == 0:
            raise TrainingError("self-training needs at least one labeled gap")

        distinct = set(work_y)
        if len(distinct) < 2:
            only = next(iter(distinct))
            self._constant_label = only
            self.rounds_ = 0
            for row in remaining:
                self.promotions_.append((row, only, 1.0))
            return self

        self._constant_label = None
        self._model.fit(work_x, work_y)
        self.rounds_ = 1
        while remaining:
            probs = self._model.predict_proba(pool[remaining])
            confidences = probs.var(axis=1)
            order = np.argsort(-confidences, kind="stable")
            take = order[: self.batch_size]
            promoted_rows: list[int] = []
            for k in take:
                row = remaining[int(k)]
                row_probs = probs[int(k)]
                label = self.classes[int(row_probs.argmax())]
                self.promotions_.append(
                    (row, label, prediction_confidence(row_probs)))
                work_x = np.vstack([work_x, pool[row]])
                work_y.append(label)
                promoted_rows.append(row)
            for row in promoted_rows:
                remaining.remove(row)
            self._model.fit(work_x, work_y, warm_start=True)
            self.rounds_ += 1
        return self

    def predict_one(self, features: np.ndarray
                    ) -> "tuple[np.ndarray, Hashable]":
        if getattr(self, "_constant_label", None) is not None:
            probs = np.array([1.0 if c == self._constant_label else 0.0
                              for c in self.classes])
            return probs, self._constant_label
        return self._model.predict_one(features)

    def predict(self, matrix: np.ndarray) -> list[Hashable]:
        data = np.asarray(matrix, dtype=float)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        if getattr(self, "_constant_label", None) is not None:
            return [self._constant_label] * data.shape[0]
        return self._model.predict(data)


@dataclass(slots=True)
class ReferenceDeviceModels:
    """What :func:`train_device_reference` produces for one device."""

    pipeline: FeaturePipeline
    building_clf: "ReferenceSelfTrainingClassifier | None"
    region_clf: "ReferenceSelfTrainingClassifier | None"
    fallback_region: "int | None"


def _modal_region_reference(building: Building, log: DeviceLog,
                            history: TimeInterval) -> "int | None":
    """The historical per-event dict-count modal region."""
    times, ap_indices = log.slice_interval(history)
    if times.size == 0:
        return None
    counts: dict[int, int] = {}
    for ap_index in ap_indices:
        region_id = building.region_of_ap(
            log.resolve_ap(int(ap_index))).region_id
        counts[region_id] = counts.get(region_id, 0) + 1
    return max(sorted(counts), key=counts.get)


def train_device_reference(building: Building, table: EventTable, mac: str,
                           bootstrap: "BootstrapLabeler | None" = None,
                           history: "TimeInterval | None" = None,
                           batch_size: int = 1) -> ReferenceDeviceModels:
    """The historical lazy one-device training path, end to end.

    Mirrors ``CoarseLocalizer._train_device`` as it stood before the
    array rewrite: dict feature rows through ``FeaturePipeline.fit`` /
    ``transform`` and the vstack self-training loop.  The property suite
    and the coarse-training benchmark drive this as the ground truth.
    """
    bootstrap = bootstrap or BootstrapLabeler(building)
    log = table.log(mac)
    if history is None:
        history = table.span()
    extractor = ReferenceGapFeatureExtractor(building)
    gaps = reference_extract_gaps(log, window=history)

    pipeline = FeaturePipeline(extractor.numeric_columns,
                               extractor.categorical_vocab)
    if not gaps:
        return ReferenceDeviceModels(
            pipeline=pipeline, building_clf=None, region_clf=None,
            fallback_region=_modal_region_reference(building, log, history))

    rows = extractor.rows(gaps, log, history)
    pipeline.fit(rows)
    matrix = pipeline.transform(rows)
    row_of_gap = {id(gap): i for i, gap in enumerate(gaps)}

    split = bootstrap.label_building_level(gaps)
    building_clf: "ReferenceSelfTrainingClassifier | None" = None
    if split.labeled:
        labeled_idx = [row_of_gap[id(g)] for g, _ in split.labeled]
        labels = [label for _, label in split.labeled]
        unlabeled_idx = [row_of_gap[id(g)] for g in split.unlabeled]
        building_clf = ReferenceSelfTrainingClassifier(
            classes=[LABEL_INSIDE, LABEL_OUTSIDE], batch_size=batch_size)
        building_clf.fit(matrix[labeled_idx], labels,
                         matrix[unlabeled_idx]
                         if unlabeled_idx else np.zeros((0, matrix.shape[1])))

    inside_gaps = [g for g, label in split.labeled if label == LABEL_INSIDE]
    region_clf: "ReferenceSelfTrainingClassifier | None" = None
    if inside_gaps:
        region_split = bootstrap.label_region_level(inside_gaps, log, history)
        if region_split.labeled:
            region_classes = [str(r.region_id) for r in building.regions]
            labeled_idx = [row_of_gap[id(g)] for g, _ in region_split.labeled]
            labels = [label for _, label in region_split.labeled]
            unlabeled_idx = [row_of_gap[id(g)]
                             for g in region_split.unlabeled]
            region_clf = ReferenceSelfTrainingClassifier(
                classes=region_classes, batch_size=batch_size)
            region_clf.fit(matrix[labeled_idx], labels,
                           matrix[unlabeled_idx]
                           if unlabeled_idx
                           else np.zeros((0, matrix.shape[1])))

    return ReferenceDeviceModels(
        pipeline=pipeline,
        building_clf=building_clf,
        region_clf=region_clf,
        fallback_region=_modal_region_reference(building, log, history))
