"""The experiment runner: score a system against ground truth."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Protocol, runtime_checkable

from repro.eval.metrics import PrecisionCounts
from repro.sim.dataset import Dataset
from repro.system.locater import LocationAnswer
from repro.system.query import LocationQuery


class SystemUnderTest(Protocol):
    """Anything with ``locate(mac, timestamp) -> LocationAnswer``."""

    def locate(self, mac: str, timestamp: float) -> LocationAnswer: ...


@runtime_checkable
class BatchSystemUnderTest(Protocol):
    """A system that additionally answers whole batches at once."""

    def locate(self, mac: str, timestamp: float) -> LocationAnswer: ...

    def locate_batch(self, queries: Sequence[LocationQuery]
                     ) -> list[LocationAnswer]: ...


@dataclass(slots=True)
class EvaluationResult:
    """Scores and timings of one evaluated system on one query set.

    Attributes:
        counts: Pooled precision counters.
        per_device: Counters keyed by MAC (for per-band pooling).
        elapsed_seconds: Total wall-clock spent inside ``locate`` (or
            in the one ``locate_batch`` call).
        per_query_seconds: Running time of each query, in order (drives
            the paper's Fig. 10 running-time-vs-queries curves).
    """

    counts: PrecisionCounts = field(default_factory=PrecisionCounts)
    per_device: dict[str, PrecisionCounts] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    per_query_seconds: list[float] = field(default_factory=list)

    @property
    def mean_query_ms(self) -> float:
        """Average per-query latency in milliseconds.

        ``elapsed_seconds`` over the queries scored, so it reads the same
        whether or not per-query latencies were recorded (a batch records
        none); 0.0 only when no query was scored.
        """
        if not self.counts.total:
            return 0.0
        return 1000.0 * self.elapsed_seconds / self.counts.total


def evaluate(system: SystemUnderTest, dataset: Dataset,
             queries: Sequence[LocationQuery],
             progress: "Callable[[int], None] | None" = None,
             record_latency: bool = False) -> EvaluationResult:
    """Run ``queries`` through ``system`` and score against ground truth.

    Scoring rules (matching §6.1's Q_out / Q_region / Q_room):

    * truth outside + predicted outside → counts toward Q_out;
    * truth inside + predicted region whose room set contains the true
      room → Q_region;
    * exact room match on top of that → Q_room.
    """
    result = EvaluationResult()
    for index, query in enumerate(queries):
        start = time.perf_counter()
        answer = system.locate(query.mac, query.timestamp)
        elapsed = time.perf_counter() - start
        result.elapsed_seconds += elapsed
        if record_latency:
            result.per_query_seconds.append(elapsed)
        _score_answer(result, dataset, query, answer)
        if progress is not None:
            progress(index + 1)
    return result


def evaluate_batch(system: SystemUnderTest, dataset: Dataset,
                   queries: Sequence[LocationQuery]) -> EvaluationResult:
    """Like :func:`evaluate`, but through ``locate_batch`` when available.

    Systems without a batch entry point (the baselines) fall back to the
    per-query loop of :func:`evaluate`.  A batch is timed as one call
    into ``elapsed_seconds``; per-query latencies come from
    :func:`evaluate` over ``plan_queries(queries).ordered_queries()``,
    the per-query path a batch is bitwise equal to.
    """
    if not isinstance(system, BatchSystemUnderTest):
        return evaluate(system, dataset, queries)
    start = time.perf_counter()
    answers = system.locate_batch(queries)
    result = EvaluationResult(elapsed_seconds=time.perf_counter() - start)
    for query, answer in zip(queries, answers):
        _score_answer(result, dataset, query, answer)
    return result


def _score_answer(result: EvaluationResult, dataset: Dataset,
                  query: LocationQuery, answer: LocationAnswer) -> None:
    """Score one answer against ground truth (§6.1's Q_out/Q_region/Q_room)."""
    truth_room = dataset.true_room_at(query.mac, query.timestamp)
    truth_outside = truth_room is None
    region_correct = False
    room_correct = False
    if not truth_outside and answer.inside and \
            answer.region_id is not None:
        region_rooms = dataset.building.region(answer.region_id).rooms
        region_correct = truth_room in region_rooms
        room_correct = answer.room_id == truth_room
    per_dev = result.per_device.setdefault(query.mac,
                                           PrecisionCounts())
    for counts in (result.counts, per_dev):
        counts.record(truth_outside=truth_outside,
                      predicted_outside=not answer.inside,
                      region_correct=region_correct,
                      room_correct=room_correct)


def pooled_counts(result: EvaluationResult,
                  macs: Sequence[str]) -> PrecisionCounts:
    """Merge the per-device counters of ``macs`` (band-level scores)."""
    pooled = PrecisionCounts()
    for mac in macs:
        counts = result.per_device.get(mac)
        if counts is not None:
            pooled = pooled.merge(counts)
    return pooled
