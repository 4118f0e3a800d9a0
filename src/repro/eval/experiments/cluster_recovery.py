"""Cluster recovery experiment: the cost and exactness of resurrection.

A sharded cluster serves a batched query workload while a scripted
:class:`~repro.cluster.faults.FaultPlan` SIGKILLs its busiest shard
mid-workload (once per configured kill, at deterministic dispatch
indices).  A supervised cluster absorbs every kill — the worker is
resurrected from the factory, its §5 cache restored from the last
checkpoint, and only its slice re-dispatched — and the experiment
*verifies* the recovered run bitwise against an uninterrupted control
running the identical batch splits: answers and summed cache counters
must match exactly, or the run raises.  What gets measured on top:

* **recovery latency** — per episode, detection to serving replacement
  (:attr:`~repro.cluster.supervision.RecoveryEvent.duration_seconds`);
* **availability** — fraction of queries answered across the whole
  chaos run (1.0 when every kill is absorbed within budget);
* **disruption overhead** — chaos wall time over control wall time,
  the price of dying ``kills`` times mid-workload.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.cluster import (
    Fault,
    FaultInjectingExecutor,
    FaultPlan,
    ProcessShardExecutor,
    RecoveryPolicy,
    SerialShardExecutor,
    ShardedLocater,
)
from repro.errors import ConfigurationError, ReproError
from repro.eval.queries import generated_query_set
from repro.eval.reporting import format_table
from repro.sim.scenarios import isolated_campus_dataset

_EXECUTORS = {
    "serial": SerialShardExecutor,
    "process": ProcessShardExecutor,
}


@dataclass(slots=True)
class ClusterRecoveryResult:
    """Verified outcome of one chaos run against its control."""

    episodes: list[dict] = field(default_factory=list)
    query_count: int = 0
    batch_count: int = 0
    shard_count: int = 0
    victim_shard: int = 0
    kills: int = 0
    executor: str = "process"
    control_seconds: float = 0.0
    chaos_seconds: float = 0.0
    availability: float = 0.0
    equivalence_verified: bool = False

    def recovery_seconds(self) -> dict[str, float]:
        """Latency stats over the run's recovery episodes."""
        durations = [episode["duration_seconds"]
                     for episode in self.episodes]
        if not durations:
            return {}
        return {
            "min": min(durations),
            "median": statistics.median(durations),
            "mean": statistics.fmean(durations),
            "max": max(durations),
        }

    @property
    def disruption_overhead(self) -> float:
        """Chaos wall time over control wall time (1.0 = free kills)."""
        return self.chaos_seconds / max(self.control_seconds, 1e-12)

    def render(self) -> str:
        rows = [[episode["shard_id"], episode["method"],
                 episode["outcome"], episode["restarts"],
                 f"{episode['duration_seconds'] * 1e3:.1f}"]
                for episode in self.episodes]
        table = format_table(
            ["shard", "method", "outcome", "restarts", "latency_ms"],
            rows,
            title=(f"Cluster recovery: {self.kills} kill(s) of shard "
                   f"{self.victim_shard} across {self.batch_count} "
                   f"batches, {self.query_count} queries, "
                   f"{self.shard_count} {self.executor} shards"))
        latency = self.recovery_seconds()
        latency_line = (
            f"recovery latency ms: "
            f"median {latency.get('median', 0.0) * 1e3:.1f}, "
            f"max {latency.get('max', 0.0) * 1e3:.1f}"
            if latency else "recovery latency: no episodes")
        return (f"{table}\n{latency_line}\n"
                f"availability {self.availability:.3f} | "
                f"chaos {self.chaos_seconds:.2f}s vs control "
                f"{self.control_seconds:.2f}s "
                f"({self.disruption_overhead:.2f}x) | "
                f"bitwise identical: {self.equivalence_verified}")


def run(buildings: int = 3, population: int = 24, days: int = 3,
        queries: int = 60, shards: int = 4, batches: int = 3,
        kills: int = 2, executor: str = "process",
        seed: int = 17) -> ClusterRecoveryResult:
    """Chaos run vs uninterrupted control over identical batch splits.

    Raises :class:`~repro.errors.ReproError` if the recovered cluster's
    answers or summed cache counters diverge from the control — bitwise
    recovery is the experiment's correctness contract, not a column.
    """
    if executor not in _EXECUTORS:
        raise ConfigurationError(
            f"executor must be one of {sorted(_EXECUTORS)}, "
            f"got {executor!r}")
    if batches < kills + 1:
        raise ConfigurationError(
            f"need at least kills+1 batches so every kill lands on a "
            f"serving dispatch, got batches={batches}, kills={kills}")
    dataset = isolated_campus_dataset(buildings=buildings,
                                      population=population, days=days,
                                      seed=seed)
    batch = generated_query_set(dataset, count=queries, seed=seed + 1)
    size = max(1, len(batch) // batches)
    chunks = [batch[index * size:(index + 1) * size]
              for index in range(batches - 1)]
    chunks.append(batch[(batches - 1) * size:])

    with ShardedLocater(dataset.building, dataset.metadata,
                        dataset.table, shard_count=shards) as control:
        victim = Counter(control.shard_of(query.mac)
                         for query in batch).most_common(1)[0][0]
        start = time.perf_counter()
        expected = [control.locate_batch(chunk) for chunk in chunks]
        control_seconds = time.perf_counter() - start
        expected_totals = control.cache_stats().total

    # Kill j fires on the victim's (2j+1)-th locate_batch dispatch:
    # even indices are the scripted batches themselves interleaved with
    # the recovery re-dispatches each kill provokes (see the chaos
    # suite's repeated-kill test for the arithmetic).
    plan = FaultPlan([
        Fault(shard_id=victim, kind="kill", method="locate_batch",
              call_index=2 * index + 1)
        for index in range(kills)])
    injector = FaultInjectingExecutor(_EXECUTORS[executor](), plan)
    with ShardedLocater(dataset.building, dataset.metadata,
                        dataset.table, shard_count=shards,
                        executor=injector,
                        recovery=RecoveryPolicy(max_restarts=kills,
                                                backoff=(0.0,))
                        ) as cluster:
        start = time.perf_counter()
        got = [cluster.locate_batch(chunk) for chunk in chunks]
        chaos_seconds = time.perf_counter() - start
        got_totals = cluster.cache_stats().total
        episodes = [{
            "shard_id": episode.shard_id,
            "method": episode.method,
            "error": episode.error,
            "restarts": episode.restarts,
            "outcome": episode.outcome,
            "duration_seconds": episode.duration_seconds,
        } for episode in cluster.recovery_events]

    answered = sum(len(chunk_answers) for chunk_answers in got)
    identical = got == expected and got_totals == expected_totals
    result = ClusterRecoveryResult(
        episodes=episodes, query_count=len(batch),
        batch_count=len(chunks), shard_count=shards,
        victim_shard=victim, kills=kills, executor=executor,
        control_seconds=control_seconds, chaos_seconds=chaos_seconds,
        availability=answered / max(len(batch), 1),
        equivalence_verified=identical)
    if not plan.exhausted:
        raise ReproError(
            f"fault plan did not exhaust: {len(plan.pending)} fault(s) "
            f"never fired — the workload shape no longer reaches them")
    if not identical:
        raise ReproError(
            "recovered cluster diverged from the uninterrupted control "
            "(answers or cache counters); recovery is not bitwise")
    return result
