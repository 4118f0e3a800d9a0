"""Fig. 12 — caching's effect on average query time (D-LOCATER).

The paper reports caching bringing D-LOCATER's per-query cost from ~5 s
to ~1 s.  Absolute numbers depend on the host; the shape to reproduce is
a large relative drop once the global affinity graph is warm.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.queries import generated_query_set, labeled_query_set
from repro.eval.reporting import format_table
from repro.eval.runner import evaluate
from repro.eval.experiments.common import dbh_dataset
from repro.fine.localizer import FineMode
from repro.system.config import LocaterConfig
from repro.system.locater import Locater
from repro.system.planner import plan_queries


@dataclass(slots=True)
class ScalabilityResult:
    """Mean per-query latency (ms) per variant per query set.

    Attributes:
        mean_ms: (variant, query set) → mean per-query latency.
        warmup_ms: (variant, query set) → (first-half, second-half) mean
            latency of the same run — the intra-run warm-up signal, which
            is robust against run-to-run load noise.
    """

    mean_ms: dict[tuple[str, str], float]
    warmup_ms: dict[tuple[str, str], tuple[float, float]]

    def cache_speedup(self, query_set: str) -> float:
        """uncached latency / cached latency."""
        plain = self.mean_ms[("D-LOCATER", query_set)]
        cached = self.mean_ms[("D-LOCATER+C", query_set)]
        return plain / cached if cached > 0 else 1.0

    def warmup_ratio(self, variant: str, query_set: str) -> float:
        """first-half latency / second-half latency (>1 = warming helps)."""
        first, second = self.warmup_ms[(variant, query_set)]
        return first / second if second > 0 else 1.0

    def render(self) -> str:
        """Print the comparison like Fig. 12."""
        rows = []
        for (variant, qset), ms in sorted(self.mean_ms.items()):
            first, second = self.warmup_ms[(variant, qset)]
            rows.append([variant, qset, f"{ms:.2f}",
                         f"{first:.2f}", f"{second:.2f}"])
        return format_table(
            ["variant", "query set", "ms/query", "first half",
             "second half"],
            rows, title="Fig 12: caching scalability (D-LOCATER)")


def run(days: int = 10, population: int = 18, per_device: int = 8,
        generated_count: int = 100, seed: int = 7) -> ScalabilityResult:
    """Compare D-LOCATER with and without the caching engine."""
    dataset = dbh_dataset(days=days, population=population, seed=seed)
    query_sets = {
        "university": labeled_query_set(dataset, per_device=per_device,
                                        seed=seed),
        "generated": generated_query_set(dataset, count=generated_count,
                                         seed=seed),
    }
    mean_ms: dict[tuple[str, str], float] = {}
    warmup_ms: dict[tuple[str, str], tuple[float, float]] = {}
    for variant, use_caching in (("D-LOCATER", False), ("D-LOCATER+C", True)):
        for qset_name, queries in query_sets.items():
            # Paper cost model: affinities are re-derived from history on
            # every query (reuse_affinity_cache=False); the caching
            # engine's neighbor ordering + tighter bounds then cut the
            # number of neighbors whose history must be mined.
            config = LocaterConfig(fine_mode=FineMode.DEPENDENT,
                                   use_caching=use_caching,
                                   reuse_affinity_cache=False)
            system = Locater(dataset.building, dataset.metadata,
                             dataset.table, config=config)
            # One locate per query in the planner's execution order,
            # with no batch memos: this figure ablates the caching
            # engine, and the memos would otherwise hand the non-cached
            # arm the same cross-query amortization for free.
            outcome = evaluate(system, dataset,
                               plan_queries(queries).ordered_queries(),
                               record_latency=True)
            mean_ms[(variant, qset_name)] = outcome.mean_query_ms
            latencies = outcome.per_query_seconds
            half = max(1, len(latencies) // 2)
            warmup_ms[(variant, qset_name)] = (
                1000.0 * sum(latencies[:half]) / half,
                1000.0 * sum(latencies[half:]) / max(1,
                                                     len(latencies) - half))
    return ScalabilityResult(mean_ms=mean_ms, warmup_ms=warmup_ms)
