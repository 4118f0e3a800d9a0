"""Cluster scaling experiment: throughput versus shard count and executor.

The campus workload (multi-building space model, commuter devices, see
:meth:`repro.sim.scenarios.ScenarioSpec.campus`) is served two ways —
a lone :class:`~repro.system.locater.Locater` baseline, then a
:class:`~repro.cluster.ShardedLocater` for every (shard count, executor)
combination — and every configuration's answers are verified **bitwise
identical** to the baseline before its throughput is reported, so no
speedup is ever bought with divergence.  Caching is off, so the cluster
spreads devices by a stable hash of their MAC (the campus is one
co-presence component, which caching-on routing would put on a single
shard).

The two executors tell different stories on purpose:

* ``serial`` isolates pure partition-and-merge overhead;
* ``process`` forks one worker per shard and scales with the machine's
  cores — on a single-core host it degrades to serial-plus-pickling,
  which the result records honestly (``cpu_count`` is part of the
  rendered output).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.cluster import (
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardedLocater,
)
from repro.errors import ReproError
from repro.eval.experiments.common import campus_dataset
from repro.eval.queries import generated_query_set
from repro.eval.reporting import format_table
from repro.system.config import LocaterConfig
from repro.system.locater import Locater


@dataclass(slots=True)
class ClusterRun:
    """Measured outcome of one cluster configuration."""

    shards: int
    executor: str
    seconds: float
    identical: bool

    def qps(self, queries: int) -> float:
        return queries / max(self.seconds, 1e-12)


@dataclass(slots=True)
class ClusterScalingResult:
    """Baseline vs every (shard count, executor) combination."""

    runs: list[ClusterRun]
    query_count: int
    baseline_seconds: float
    event_count: int
    device_count: int
    cpu_count: int

    @property
    def all_identical(self) -> bool:
        """Whether every configuration matched the lone system bitwise."""
        return all(run.identical for run in self.runs)

    def speedup(self, run: ClusterRun) -> float:
        """Baseline time over this configuration's time."""
        return self.baseline_seconds / max(run.seconds, 1e-12)

    def best(self, executor: str) -> "ClusterRun | None":
        """The fastest run of one executor kind."""
        candidates = [run for run in self.runs if run.executor == executor]
        return min(candidates, key=lambda run: run.seconds) \
            if candidates else None

    def render(self) -> str:
        """Scaling table plus the baseline line."""
        rows = [[run.shards, run.executor, f"{run.seconds:.2f}",
                 f"{run.qps(self.query_count):.0f}",
                 f"{self.speedup(run):.2f}x",
                 "yes" if run.identical else "NO"]
                for run in self.runs]
        table = format_table(
            ["shards", "executor", "seconds", "qps",
             "vs lone", "identical"], rows,
            title=(f"Campus cluster scaling: {self.query_count} queries, "
                   f"{self.event_count} events, {self.device_count} "
                   f"devices, {self.cpu_count} cpu(s)"))
        baseline_qps = self.query_count / max(self.baseline_seconds, 1e-12)
        return (f"{table}\n"
                f"lone Locater baseline {self.baseline_seconds:.2f}s "
                f"({baseline_qps:.0f} qps) | "
                f"answers identical: {self.all_identical}")


def run(days: int = 6, population: int = 48, buildings: int = 3,
        queries: int = 600, shard_counts: Sequence[int] = (1, 2, 4),
        seed: int = 17) -> ClusterScalingResult:
    """Serve one campus query batch under every cluster configuration.

    Raises :class:`~repro.errors.ReproError` on any divergence from the
    lone baseline — bitwise identity is the experiment's correctness
    contract, not merely a reported column.
    """
    dataset = campus_dataset(days=days, population=population,
                             buildings=buildings, seed=seed)
    batch = generated_query_set(dataset, count=queries, seed=seed + 1)
    # Caching off: cluster answers are then pure functions of the table,
    # which is what makes cross-configuration bitwise comparison valid
    # (the caching engine is deliberate cross-query warm state and would
    # make even two differently-ordered lone runs diverge).
    config = LocaterConfig(use_caching=False)

    lone = Locater(dataset.building, dataset.metadata, dataset.table,
                   config=config)
    start = time.perf_counter()
    expected = lone.locate_batch(batch)
    baseline_seconds = time.perf_counter() - start

    executors: "list[tuple[str, Callable[[], object]]]" = [
        ("serial", SerialShardExecutor),
        ("process", ProcessShardExecutor),
    ]
    runs: list[ClusterRun] = []
    for shards in shard_counts:
        for executor_name, executor_factory in executors:
            with ShardedLocater(dataset.building, dataset.metadata,
                                dataset.table, shard_count=shards,
                                executor=executor_factory(),
                                config=config) as cluster:
                start = time.perf_counter()
                answers = cluster.locate_batch(batch)
                seconds = time.perf_counter() - start
            identical = answers == expected
            # Recorded before the divergence check so a caller catching
            # the raise still sees the failed configuration in the
            # partial runs.
            runs.append(ClusterRun(shards=shards, executor=executor_name,
                                   seconds=seconds, identical=identical))
            if not identical:
                raise ReproError(
                    f"cluster ({shards} shards, {executor_name}) "
                    f"diverged from the lone Locater")

    return ClusterScalingResult(
        runs=runs, query_count=len(batch),
        baseline_seconds=baseline_seconds,
        event_count=dataset.event_count(),
        device_count=dataset.table.device_count,
        cpu_count=os.cpu_count() or 1)
