"""Fig. 10 — average time per query as the global affinity graph warms.

The paper plots, for I-LOCATER+C and D-LOCATER+C, the running average of
per-query time against the number of processed queries, on both the
university query set and a large generated set.  Shape to reproduce:
D-LOCATER+C starts expensive (cold cache) and converges to a much lower
steady state; I-LOCATER+C stays flat and fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.queries import generated_query_set, labeled_query_set
from repro.eval.reporting import format_series
from repro.eval.runner import evaluate
from repro.eval.experiments.common import dbh_dataset
from repro.fine.localizer import FineMode
from repro.system.config import LocaterConfig
from repro.system.locater import Locater
from repro.system.planner import plan_queries


@dataclass(slots=True)
class EfficiencyResult:
    """Running-average per-query latency (ms) at checkpoints."""

    checkpoints: list[int]
    series: dict[tuple[str, str], list[float]]  # (system, query_set) → ms

    def curve(self, system: str, query_set: str) -> list[float]:
        """One latency curve."""
        return self.series[(system, query_set)]

    def warmup_ratio(self, system: str, query_set: str) -> float:
        """First-checkpoint latency divided by last-checkpoint latency."""
        curve = self.curve(system, query_set)
        if curve[-1] <= 0:
            return 1.0
        return curve[0] / curve[-1]

    def render(self) -> str:
        """Print each curve like the paper's two panels."""
        blocks = []
        for (system, qset), values in self.series.items():
            blocks.append(format_series(
                f"{system} on {qset} (running avg ms/query)",
                [str(c) for c in self.checkpoints], values, unit="ms"))
        return "\n".join(blocks)


def _running_average_ms(latencies: list[float],
                        checkpoints: list[int]) -> list[float]:
    csum = np.cumsum(latencies)
    out = []
    for checkpoint in checkpoints:
        k = min(checkpoint, len(latencies))
        out.append(1000.0 * float(csum[k - 1]) / k)
    return out


def run(days: int = 10, population: int = 18, per_device: int = 10,
        generated_count: int = 150, seed: int = 7,
        n_checkpoints: int = 6) -> EfficiencyResult:
    """Measure warm-up curves for both cached systems on both query sets."""
    dataset = dbh_dataset(days=days, population=population, seed=seed)
    query_sets = {
        "university": labeled_query_set(dataset, per_device=per_device,
                                        seed=seed),
        "generated": generated_query_set(dataset, count=generated_count,
                                         seed=seed),
    }
    smallest = min(len(q) for q in query_sets.values())
    checkpoints = sorted({max(1, round(smallest * (i + 1) / n_checkpoints))
                          for i in range(n_checkpoints)})

    series: dict[tuple[str, str], list[float]] = {}
    for system_name, mode in (("I-LOCATER+C", FineMode.INDEPENDENT),
                              ("D-LOCATER+C", FineMode.DEPENDENT)):
        for qset_name, queries in query_sets.items():
            config = LocaterConfig(fine_mode=mode, use_caching=True)
            system = Locater(dataset.building, dataset.metadata,
                             dataset.table, config=config)
            # One locate per query in the planner's execution order
            # (bucket-granular chronological), which is the warm-up
            # order: lazy training and no batch memos, so the curves
            # show the caching engine warming — the quantity the paper
            # plots (§6.4).
            outcome = evaluate(system, dataset,
                               plan_queries(queries).ordered_queries(),
                               record_latency=True)
            series[(system_name, qset_name)] = _running_average_ms(
                outcome.per_query_seconds, checkpoints)
    return EfficiencyResult(checkpoints=checkpoints, series=series)
