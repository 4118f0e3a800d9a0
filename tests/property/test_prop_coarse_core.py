"""Array path vs dict/loop reference: the vectorized coarse training core.

The production coarse trainer runs on dense arrays — vectorized gap
extraction, one-shot :meth:`GapFeatureExtractor.matrix` design matrices,
and a preallocated-pool self-training loop.  :mod:`oracles.coarse`
retains the pre-vectorization implementations.  On random logs and
training sets the two must agree bit for bit: identical gaps, identical
design matrices (asserted to 1e-9 *and* exactly), identical promotion
order/labels/rounds, and identical final coefficients under warm start.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coarse.bootstrap import BootstrapLabeler
from repro.coarse.features import GapFeatureExtractor
from repro.coarse.localizer import CoarseLocalizer
from repro.coarse.semi_supervised import SelfTrainingClassifier
from repro.events.event import ConnectivityEvent
from repro.events.gaps import extract_gaps
from repro.events.table import EventTable
from repro.ml.pipeline import FeaturePipeline
from repro.space.access_point import AccessPoint
from repro.space.building import Building
from repro.space.room import Room, RoomType
from repro.util.timeutil import SECONDS_PER_DAY, TimeInterval, minutes

from oracles.coarse import (
    ReferenceGapFeatureExtractor,
    ReferenceSelfTrainingClassifier,
    reference_extract_gaps,
    reference_region_visit_counts,
    train_device_reference,
)

AP_IDS = ("wapA", "wapB", "wapC")

_BUILDING = Building(
    "prop",
    rooms=[Room(room_id=f"r{i}",
                room_type=RoomType.PUBLIC if i % 2 == 0
                else RoomType.PRIVATE)
           for i in range(6)],
    access_points=[
        AccessPoint(ap_id="wapA", covered_rooms=frozenset({"r0", "r1"})),
        AccessPoint(ap_id="wapB", covered_rooms=frozenset({"r2", "r3"})),
        AccessPoint(ap_id="wapC", covered_rooms=frozenset({"r4", "r5"})),
    ])

# Event times on a 30-second lattice over up to 3 days: coarse-grained so
# the reference's historical 1e-9 day-boundary epsilon never bites, while
# still exercising multi-day histories, midnight-adjacent gaps and ties.
event_times = st.lists(
    st.integers(min_value=0, max_value=3 * 2880 - 1).map(
        lambda tick: tick * 30.0),
    min_size=0, max_size=40, unique=True)

deltas = st.sampled_from([minutes(5), minutes(10), minutes(30)])


def _table_from(times: "list[float]", data) -> EventTable:
    events = [ConnectivityEvent(timestamp=t, mac="dev",
                                ap_id=data.draw(st.sampled_from(AP_IDS),
                                                label="ap"))
              for t in sorted(times)]
    table = EventTable.from_events(events)
    return table


def _history(data) -> TimeInterval:
    first = data.draw(st.integers(0, 2), label="first_day")
    length = data.draw(st.integers(1, 3 - first), label="days")
    return TimeInterval(first * SECONDS_PER_DAY,
                        (first + length) * SECONDS_PER_DAY)


@given(event_times, deltas, st.data())
@settings(max_examples=80, deadline=None)
def test_gap_extraction_matches_reference(times, delta, data):
    if len(times) < 2:
        return
    table = _table_from(times, data)
    table.registry.get("dev").delta = delta
    log = table.log("dev")
    history = _history(data)
    assert extract_gaps(log) == reference_extract_gaps(log)
    assert extract_gaps(log, window=history) == \
        reference_extract_gaps(log, window=history)


@given(event_times, deltas, st.data())
@settings(max_examples=80, deadline=None)
def test_design_matrix_matches_reference(times, delta, data):
    if len(times) < 2:
        return
    table = _table_from(times, data)
    table.registry.get("dev").delta = delta
    log = table.log("dev")
    history = _history(data)
    gaps = extract_gaps(log, window=history)
    if not gaps:
        return

    array_extractor = GapFeatureExtractor(_BUILDING)
    features = array_extractor.matrix(gaps, log, history)
    array_pipeline = FeaturePipeline(array_extractor.numeric_columns,
                                     array_extractor.categorical_vocab)
    array_pipeline.fit_arrays(features.numeric)
    got = array_pipeline.transform_arrays(features.numeric,
                                          features.categorical_codes)

    dict_extractor = ReferenceGapFeatureExtractor(_BUILDING)
    rows = dict_extractor.rows(gaps, log, history)
    dict_pipeline = FeaturePipeline(dict_extractor.numeric_columns,
                                    dict_extractor.categorical_vocab)
    want = dict_pipeline.fit_transform(rows)

    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    assert np.array_equal(got, want)  # in fact bit-identical
    # The dict presentation agrees entry for entry too.
    for array_row, dict_row in zip(
            array_extractor.rows(gaps, log, history), rows):
        assert array_row == dict_row


@given(event_times, deltas, st.data())
@settings(max_examples=60, deadline=None)
def test_region_visit_counts_match_reference(times, delta, data):
    if len(times) < 2:
        return
    table = _table_from(times, data)
    table.registry.get("dev").delta = delta
    log = table.log("dev")
    history = _history(data)
    gaps = extract_gaps(log, window=history)
    labeler = BootstrapLabeler(_BUILDING)
    for gap in gaps:
        got = labeler._region_visit_counts(gap, log, history)
        want = reference_region_visit_counts(_BUILDING, gap, log, history)
        assert got == want
        assert labeler.region_heuristic(gap, log, history) in \
            {r.region_id for r in _BUILDING.regions}


# ---------------------------------------------------------------------------
# Self-training: preallocated pools vs the vstack/list.remove loop.
# ---------------------------------------------------------------------------

matrices = st.integers(min_value=2, max_value=5).flatmap(
    lambda width: st.tuples(
        st.lists(st.lists(st.floats(min_value=-3.0, max_value=3.0,
                                    allow_nan=False, width=32),
                          min_size=width, max_size=width),
                 min_size=2, max_size=10),
        st.lists(st.lists(st.floats(min_value=-3.0, max_value=3.0,
                                    allow_nan=False, width=32),
                          min_size=width, max_size=width),
                 min_size=0, max_size=10)))


@given(matrices, st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_self_training_matches_reference(pools, batch_size, data):
    labeled_rows, unlabeled_rows = pools
    labeled = np.array(labeled_rows)
    unlabeled = (np.array(unlabeled_rows) if unlabeled_rows
                 else np.zeros((0, labeled.shape[1])))
    classes = ["in", "out", "far"][: data.draw(st.integers(2, 3),
                                               label="n_classes")]
    labels = [data.draw(st.sampled_from(classes), label=f"label{i}")
              for i in range(labeled.shape[0])]

    fast = SelfTrainingClassifier(classes=classes, batch_size=batch_size,
                                  max_iter=40)
    fast.fit(labeled, labels, unlabeled)
    slow = ReferenceSelfTrainingClassifier(classes=classes,
                                           batch_size=batch_size,
                                           max_iter=40)
    slow.fit(labeled, labels, unlabeled)

    # Identical promotion order, labels, and confidences.
    assert [(row, label) for row, label, _ in fast.promotions_] == \
        [(row, label) for row, label, _ in slow.promotions_]
    for (_, _, got), (_, _, want) in zip(fast.promotions_,
                                         slow.promotions_):
        assert got == pytest.approx(want, abs=1e-12)
    assert fast.rounds_ == slow.rounds_

    # Identical final coefficients under warm start (bitwise).
    if fast.model.is_fitted or slow.model.is_fitted:
        assert np.array_equal(fast.model.weights_, slow.model.weights_)
        assert np.array_equal(fast.model.bias_, slow.model.bias_)

    # And identical predictions on the pool.
    if unlabeled.shape[0]:
        assert fast.predict(unlabeled) == slow.predict(unlabeled)


# ---------------------------------------------------------------------------
# End to end: the production trainer vs the retained lazy reference path.
# ---------------------------------------------------------------------------

@given(event_times, deltas, st.data())
@settings(max_examples=25, deadline=None)
def test_trained_models_match_reference(times, delta, data):
    if len(times) < 2:
        return
    table = _table_from(times, data)
    table.registry.get("dev").delta = delta
    history = _history(data)

    localizer = CoarseLocalizer(_BUILDING, table, history=history)
    got = localizer.train_devices(["dev"])["dev"]
    want = train_device_reference(_BUILDING, table, "dev", history=history)

    assert (got.building_clf is None) == (want.building_clf is None)
    if got.building_clf is not None and got.building_clf.model.is_fitted:
        assert np.array_equal(got.building_clf.model.weights_,
                              want.building_clf.model.weights_)
        assert np.array_equal(got.building_clf.model.bias_,
                              want.building_clf.model.bias_)
    assert (got.region_clf is None) == (want.region_clf is None)
    if got.region_clf is not None and got.region_clf.model.is_fitted:
        assert np.array_equal(got.region_clf.model.weights_,
                              want.region_clf.model.weights_)
    assert got.fallback_region == want.fallback_region
