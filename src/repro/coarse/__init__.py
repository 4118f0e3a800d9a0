"""Coarse-grained localization: missing-value detection and repair (§3).

Given a query (device, time) that falls in a gap of the device's log, the
coarse localizer decides (1) whether the device was inside or outside the
building and (2) if inside, which region it was in.  Labels for training
come from a threshold-based bootstrapper; the rest are filled in by the
self-training loop of Algorithm 1 over per-device logistic-regression
classifiers.

Architecture — array path vs reference oracle
---------------------------------------------

Training is array-native end to end, mirroring the fine core's layout:

* gap extraction is one vectorized diff/mask pass
  (:func:`~repro.events.gaps.extract_gap_arrays`; the classic
  :class:`~repro.events.gaps.Gap` records are materialized from it);
* :meth:`GapFeatureExtractor.matrix` emits the whole feature batch in one
  shot — time-of-day/duration/day-of-week as array transforms of the gap
  bound arrays, and the density ω of *all* gaps over *all* history days
  via two bulk binary searches
  (:meth:`~repro.events.table.DeviceLog.count_in_windows`);
* the design matrix assembles through
  :meth:`~repro.ml.pipeline.FeaturePipeline.transform_arrays` (scaled
  numerics + fancy-indexed one-hot codes);
* :meth:`SelfTrainingClassifier.fit` runs Algorithm 1 on preallocated
  pools — a boolean remaining mask, integer label codes, and warm-start
  retrains over growing matrix views — O(U·f) data movement instead of
  the historical per-promotion ``vstack``/``list.remove`` O(U²).

The pre-vectorization dict/loop implementations live in
``tests/oracles/coarse.py`` as the property-suite oracle
(``tests/property/test_prop_coarse_core.py``); nothing in the production
pipeline imports them.

Bulk-training contract
----------------------

:meth:`CoarseLocalizer.train_devices` trains any iterable of MACs in one
sorted sweep, reusing the shared extractor and spawning per-device
pipelines from a single vocab/encoder template.  It is the entry the
batch planner pre-pass calls: ``Locater.locate_batch`` bulk-trains, up
front, exactly the devices whose queries will consult models
(:meth:`CoarseLocalizer.needs_model` — gap queries; event hits never
train).  The same pre-pass is the post-ingest retrain path: the pull at
the top of a burst (``Locater.on_ingest``, run when the table's
generation moved) only *invalidates* the changed devices, and the same
burst then bulk-trains the ones it actually queries — never per ingest
tick, where repeatedly-changing devices would be retrained without
ever being asked about.  Training is
a pure function of the table and history window, so the pre-pass never
changes an answer — it only moves cost off the per-query path.  Unknown
MACs are skipped (the per-query path still raises for them), and cached
devices are returned as-is.
"""

from repro.coarse.aggregate import PopulationAggregate
from repro.coarse.features import (
    GapFeatureExtractor,
    GapFeatureMatrix,
    gap_feature_row,
)
from repro.coarse.bootstrap import BootstrapLabeler, BootstrapResult, GapLabel
from repro.coarse.semi_supervised import SelfTrainingClassifier
from repro.coarse.localizer import (
    CoarseLocalizer,
    CoarseResult,
    CoarseSharedState,
    INSIDE,
    OUTSIDE,
)

__all__ = [
    "INSIDE",
    "OUTSIDE",
    "BootstrapLabeler",
    "BootstrapResult",
    "CoarseLocalizer",
    "CoarseResult",
    "CoarseSharedState",
    "GapFeatureExtractor",
    "GapFeatureMatrix",
    "GapLabel",
    "PopulationAggregate",
    "SelfTrainingClassifier",
    "gap_feature_row",
]
