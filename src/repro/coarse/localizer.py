"""The coarse-grained localizer: query answering over gaps (paper §3).

Wiring: a query (device, t_q) first checks whether t_q lies inside some
event's validity window — if so the answer is that event's region with no
cleaning needed.  Otherwise the query falls in a gap and two per-device
self-trained classifiers decide (1) inside vs outside the building and
(2) the region if inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import numpy as np

from repro.coarse.aggregate import PopulationAggregate
from repro.coarse.bootstrap import (
    BootstrapLabeler,
    LABEL_INSIDE,
    LABEL_OUTSIDE,
)
from repro.coarse.features import GapFeatureExtractor
from repro.coarse.semi_supervised import SelfTrainingClassifier
from repro.events.gaps import extract_gaps, find_gap_at
from repro.events.table import EventTable
from repro.events.validity import valid_event_at
from repro.ml.pipeline import FeaturePipeline
from repro.space.building import Building, RegionCodeResolver
from repro.util.timeutil import TimeInterval

#: Building-level answers.
INSIDE = "inside"
OUTSIDE = "outside"


@dataclass(frozen=True, slots=True)
class CoarseResult:
    """Answer of the coarse-grained localizer for one query.

    Attributes:
        mac: Queried device.
        timestamp: Query time.
        inside: Whether the device was inside the building.
        region_id: Region the device was in (None when outside).
        from_event: True when t_q hit a validity interval directly (no
            cleaning was needed); False when a gap was classified.
    """

    mac: str
    timestamp: float
    inside: bool
    region_id: "int | None"
    from_event: bool

    def __str__(self) -> str:
        where = f"region g{self.region_id}" if self.inside else "outside"
        via = "event" if self.from_event else "gap"
        return f"{self.mac} @ {self.timestamp:.0f}s → {where} (via {via})"


@dataclass(slots=True)
class CoarseSharedState:
    """Cross-query memo of per-gap work (batch engine).

    Queries landing in the same gap of the same device (trajectory
    sampling, dense occupancy grids) need identical feature rows, and the
    classifiers' decisions are pure functions of those rows — so feature
    extraction and predictions are shared per (mac, gap).  The aggregate
    fallbacks stay unmemoized (they depend on the query time, not the
    gap).  Values are exactly what the sequential path computes, so
    sharing never changes an answer.  Every field is a memo dict (the
    warm state's trim and reset enumerate them by field).
    """

    features: "dict[tuple[str, float, float], np.ndarray]" = field(
        default_factory=dict)
    building_labels: "dict[tuple[str, float, float], str]" = field(
        default_factory=dict)
    region_ids: "dict[tuple[str, float, float], int]" = field(
        default_factory=dict)


@dataclass(slots=True)
class _DeviceModels:
    """Trained per-device classifiers plus the feature pipeline."""

    pipeline: FeaturePipeline
    building_clf: "SelfTrainingClassifier | None"
    region_clf: "SelfTrainingClassifier | None"
    fallback_inside: bool
    fallback_region: "int | None"


class CoarseLocalizer:
    """Missing-value detection and repair for one building.

    Args:
        building: The space model.
        table: The connectivity events table (history source).
        bootstrap: Threshold labeler; defaults per the paper's best values.
        history: Training window T (defaults to the table's full span).
        batch_size: Promotions per self-training round (1 = paper-literal).

    Models are trained lazily per device and cached; :meth:`invalidate`
    drops the cache (e.g. after ingesting new events).
    """

    def __init__(self, building: Building, table: EventTable,
                 bootstrap: "BootstrapLabeler | None" = None,
                 history: "TimeInterval | None" = None,
                 batch_size: int = 1) -> None:
        self._building = building
        self._table = table
        self._bootstrap = bootstrap or BootstrapLabeler(building)
        self._history = history
        self._batch_size = batch_size
        self._extractor = GapFeatureExtractor(building)
        # Template pipeline: per-device pipelines spawn from it, sharing
        # the fixed categorical vocabularies and encoder instances.
        self._pipeline_template = FeaturePipeline(
            self._extractor.numeric_columns,
            self._extractor.categorical_vocab)
        self._region_codes = RegionCodeResolver(building)
        self._models: dict[str, _DeviceModels] = {}
        self._aggregate = PopulationAggregate(building, table,
                                              bootstrap=self._bootstrap,
                                              history=history)
        # Optional memory-budget hookup (repro.system.memory): trained
        # models become one-shot LRU entries — evicting one pops it from
        # the cache, and the deterministic retrain on next use
        # reproduces it (and every answer) bit for bit.
        self._memory = None
        self._memory_entries: dict = {}

    # ------------------------------------------------------------------
    @property
    def history(self) -> TimeInterval:
        """The training window actually in use."""
        if self._history is None:
            self._history = self._table.span()
        return self._history

    def set_history(self, history: "TimeInterval | None") -> None:
        """Change the training window and drop cached models.

        The population aggregate follows the same window, so it is
        re-pointed (and rebuilt lazily) as well.
        """
        self._history = history
        self._aggregate.set_history(history)
        self.invalidate()

    def advance_history(self, history: "TimeInterval | None") -> None:
        """Update the training window *without* dropping cached models.

        For the online-ingestion path only: when the window merely
        extends (same first/last day indices, superset of the old
        window), an unchanged device's gaps, features and bootstrap
        labels are provably identical under either window — its event
        times all lie inside both, and the density feature depends on
        the window only through its day range — so retraining would
        reproduce the cached models bit for bit.  Callers that cannot
        guarantee that invariant must use :meth:`set_history` instead.
        """
        self._history = history

    def set_memory_manager(self, manager) -> None:
        """Let ``manager`` evict trained models under memory pressure."""
        self._memory = manager
        for mac, models in self._models.items():
            self._charge_models(mac, models)

    def _charge_models(self, mac: str, models: _DeviceModels) -> None:
        from repro.system.memory import approx_nbytes
        old = self._memory_entries.pop(mac, None)
        if old is not None:
            self._memory.release(old)
        size = approx_nbytes(models)
        self._memory_entries[mac] = self._memory.charge(
            "coarse-model", ("coarse-model", mac),
            size_fn=lambda: size,
            evictor=lambda m=mac: self._evict_models(m))

    def _evict_models(self, mac: str) -> None:
        """LRU evictor: drop one device's trained models (retrain on
        next use reproduces them — training is deterministic)."""
        self._models.pop(mac, None)
        self._memory_entries.pop(mac, None)

    def _release_entry(self, mac: str) -> None:
        entry = self._memory_entries.pop(mac, None)
        if entry is not None:
            self._memory.release(entry)

    def invalidate(self) -> None:
        """Forget all trained per-device models and the aggregate."""
        if self._memory is not None:
            for mac in list(self._memory_entries):
                self._release_entry(mac)
        self._models.clear()
        self._aggregate.invalidate()

    def invalidate_device(self, mac: str) -> None:
        """Forget one device's trained models (e.g. after it ingested
        new events), plus the population aggregate if that device —
        or a shift in the sampled population — fed it."""
        self.invalidate_devices((mac,))

    def invalidate_devices(self, macs: "Iterable[str]") -> None:
        """Surgically forget the trained models of the given devices.

        Unlike :meth:`invalidate`, models of other devices survive: a
        device's classifiers are functions of its own log, its δ and the
        training window, none of which changed for the others.  The
        population aggregate is dropped only if it was built from one of
        the changed devices (or its device sample itself shifted).
        """
        macs = list(macs)
        for mac in macs:
            if self._models.pop(mac, None) is not None and \
                    self._memory is not None:
                self._release_entry(mac)
        self._aggregate.invalidate_if_affected(macs)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _train_device(self, mac: str) -> _DeviceModels:
        log = self._table.log(mac)
        history = self.history
        gaps = extract_gaps(log, window=history)

        pipeline = self._pipeline_template.spawn()

        if not gaps:
            # No gap history: the paper (§3 fn. 5) labels such devices by
            # aggregated location — the most common label among other
            # devices (resolved per query time via PopulationAggregate);
            # the device's own modal region, when it has events, wins.
            return _DeviceModels(
                pipeline=pipeline, building_clf=None, region_clf=None,
                fallback_inside=True,
                fallback_region=self._modal_region(mac))

        features = self._extractor.matrix(gaps, log, history)
        pipeline.fit_arrays(features.numeric)
        matrix = pipeline.transform_arrays(features.numeric,
                                           features.categorical_codes)
        row_of_gap = {id(gap): i for i, gap in enumerate(gaps)}

        # ---- building level ------------------------------------------
        split = self._bootstrap.label_building_level(gaps)
        building_clf: "SelfTrainingClassifier | None" = None
        if split.labeled:
            labeled_idx = [row_of_gap[id(g)] for g, _ in split.labeled]
            labels = [label for _, label in split.labeled]
            unlabeled_idx = [row_of_gap[id(g)] for g in split.unlabeled]
            building_clf = SelfTrainingClassifier(
                classes=[LABEL_INSIDE, LABEL_OUTSIDE],
                batch_size=self._batch_size)
            building_clf.fit(matrix[labeled_idx], labels,
                             matrix[unlabeled_idx]
                             if unlabeled_idx else np.zeros((0, matrix.shape[1])))

        # ---- region level ---------------------------------------------
        inside_gaps = [g for g, label in split.labeled if label == LABEL_INSIDE]
        region_clf: "SelfTrainingClassifier | None" = None
        if inside_gaps:
            region_split = self._bootstrap.label_region_level(
                inside_gaps, log, history)
            if region_split.labeled:
                region_classes = [str(r.region_id)
                                  for r in self._building.regions]
                labeled_idx = [row_of_gap[id(g)]
                               for g, _ in region_split.labeled]
                labels = [label for _, label in region_split.labeled]
                unlabeled_idx = [row_of_gap[id(g)]
                                 for g in region_split.unlabeled]
                region_clf = SelfTrainingClassifier(
                    classes=region_classes, batch_size=self._batch_size)
                region_clf.fit(matrix[labeled_idx], labels,
                               matrix[unlabeled_idx]
                               if unlabeled_idx
                               else np.zeros((0, matrix.shape[1])))

        return _DeviceModels(
            pipeline=pipeline,
            building_clf=building_clf,
            region_clf=region_clf,
            fallback_inside=True,
            fallback_region=self._modal_region(mac))

    def _modal_region(self, mac: str) -> "int | None":
        """The device's most-visited region over the history, if any."""
        log = self._table.log(mac)
        times, ap_indices = log.slice_interval(self.history)
        if times.size == 0:
            return None
        regions = self._region_codes.regions_of(log.ap_vocab, ap_indices)
        counts = np.bincount(regions)
        # Ties break to the lowest region id, as the historical
        # max-over-sorted-dict-keys did.
        return int(np.flatnonzero(counts == counts.max())[0])

    def models_for(self, mac: str) -> _DeviceModels:
        """Trained models for a device, training on first use."""
        models = self._models.get(mac)
        if models is None:
            models = self._train_device(mac)
            self._models[mac] = models
            if self._memory is not None:
                self._charge_models(mac, models)
        elif self._memory is not None:
            entry = self._memory_entries.get(mac)
            if entry is not None:
                self._memory.touch(entry)
        return models

    def needs_model(self, mac: str, timestamp: float) -> bool:
        """Whether answering (mac, timestamp) consults trained models.

        True exactly when the lazy per-query path would train: the
        device is known, non-empty, the timestamp misses every validity
        window, and an enclosing gap exists.  Two binary searches — the
        batch pre-pass uses this to bulk-train precisely the devices a
        plan will need, no more (a query answered straight from an event
        never touches a model).
        """
        if mac not in self._table.registry:
            return False
        log = self._table.log(mac)
        if log.is_empty:
            return False
        if valid_event_at(log, timestamp) is not None:
            return False
        return find_gap_at(log, timestamp) is not None

    def train_devices(self, macs: Iterable[str]
                      ) -> dict[str, _DeviceModels]:
        """Train many devices in one bulk pass (the batch/streaming entry).

        Devices are trained in sorted order for determinism, reusing the
        shared extractor state and spawning per-device pipelines from one
        template (fixed vocabularies and encoders are built once, not per
        device).  Already-trained devices are returned from cache, and
        MACs the table has never observed are skipped — a batch plan may
        legitimately mention them, and the per-query path raises for them
        at their own turn.  Training is a pure function of the table and
        the history window, so eager bulk training never changes an
        answer; it only moves the cost out of the first query per device.
        """
        out: dict[str, _DeviceModels] = {}
        registry = self._table.registry
        for mac in sorted(set(macs)):
            if mac not in registry:
                continue
            out[mac] = self.models_for(mac)
        return out

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def locate(self, mac: str, timestamp: float,
               shared: "CoarseSharedState | None" = None) -> CoarseResult:
        """Answer Q = (d, t_q) at the coarse level.

        A device with no connectivity history at all is answered as
        outside: with zero association events there is no evidence the
        device ever entered the building.

        Args:
            shared: Optional batch memo; queries hitting the same gap
                reuse its transformed feature row.  The answer is
                identical with or without it.
        """
        log = self._table.log(mac)
        if log.is_empty:
            return CoarseResult(mac=mac, timestamp=timestamp, inside=False,
                                region_id=None, from_event=False)

        hit = valid_event_at(log, timestamp)
        if hit is not None:
            region = self._building.region_of_ap(hit.ap_id)
            return CoarseResult(mac=mac, timestamp=timestamp, inside=True,
                                region_id=region.region_id, from_event=True)

        gap = find_gap_at(log, timestamp)
        if gap is None:
            # Before the first or after the last event: no enclosing gap
            # features exist, so the device is considered outside.
            return CoarseResult(mac=mac, timestamp=timestamp, inside=False,
                                region_id=None, from_event=False)

        models = self.models_for(mac)
        key = (mac, gap.interval.start, gap.interval.end)
        features = None

        def gap_features() -> np.ndarray:
            nonlocal features
            if features is None:
                features = self._gap_features(mac, gap, log, models, shared)
            return features

        if models.building_clf is not None:
            label = shared.building_labels.get(key) \
                if shared is not None else None
            if label is None:
                _, label = models.building_clf.predict_one(gap_features())
                if shared is not None:
                    shared.building_labels[key] = label
        else:
            # Aggregate fallback (§3 fn. 5): most common label among
            # other devices at this time of day.
            label = (LABEL_INSIDE if self._aggregate.modal_inside(timestamp)
                     else LABEL_OUTSIDE)
        if label == LABEL_OUTSIDE:
            return CoarseResult(mac=mac, timestamp=timestamp, inside=False,
                                region_id=None, from_event=False)

        if models.region_clf is not None:
            region_id = shared.region_ids.get(key) \
                if shared is not None else None
            if region_id is None:
                _, region_label = models.region_clf.predict_one(
                    gap_features())
                region_id = int(region_label)
                if shared is not None:
                    shared.region_ids[key] = region_id
        else:
            fallback = models.fallback_region
            if fallback is None:
                fallback = self._aggregate.modal_region(timestamp)
            region_id = (fallback if fallback is not None else
                         self._building.region_of_ap(gap.ap_before).region_id)
        return CoarseResult(mac=mac, timestamp=timestamp, inside=True,
                            region_id=region_id, from_event=False)

    def locate_many(self, mac: str, timestamps: Sequence[float],
                    shared: "CoarseSharedState | None" = None
                    ) -> list[CoarseResult]:
        """Answer many queries of one device, sharing gap feature rows.

        Results are identical to calling :meth:`locate` per timestamp in
        the same order; only the repeated feature extraction for
        timestamps falling in the same gap is shared.
        """
        if shared is None:
            shared = CoarseSharedState()
        return [self.locate(mac, timestamp, shared=shared)
                for timestamp in timestamps]

    def _gap_features(self, mac: str, gap, log,
                      models: _DeviceModels,
                      shared: "CoarseSharedState | None") -> np.ndarray:
        """The transformed feature row of one gap, memoized per batch."""
        if shared is None:
            return self._transform_gap(gap, log, models)
        key = (mac, gap.interval.start, gap.interval.end)
        features = shared.features.get(key)
        if features is None:
            features = self._transform_gap(gap, log, models)
            shared.features[key] = features
        return features

    def _transform_gap(self, gap, log, models: _DeviceModels) -> np.ndarray:
        """One gap's design row through the device's fitted pipeline."""
        batch = self._extractor.matrix([gap], log, self.history)
        return models.pipeline.transform_arrays(
            batch.numeric, batch.categorical_codes)[0]
