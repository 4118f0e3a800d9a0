"""Per-PR performance history and the CI regression gate.

Every benchmark writes a machine-readable ``results/BENCH_<name>.json``
artifact.  This tool tracks a curated set of **ratio-like** metrics out
of those artifacts — speedups, availability, memory ratios — chosen
because they compare two measurements taken on the *same* machine in
the *same* run, so they are stable across hardware in a way raw
wall-clock numbers are not.

Two subcommands::

    python -m repro.tools.perf_history record --label pr11
    python -m repro.tools.perf_history check  --tolerance 0.20

``record`` appends one entry per tracked benchmark (current metric
values + label) to ``results/history/<bench>.jsonl`` — committed with
the PR, so the history *is* the per-PR performance ledger.  ``check``
re-extracts the metrics from the current artifacts and compares each
against the last recorded entry: any metric more than ``tolerance``
(default 20%) worse in its bad direction fails the gate (exit 1).
Benchmarks without a current artifact or without history are skipped —
the gate never blocks on a benchmark that did not run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

#: Relative regression allowed before the gate fails (20%): generous
#: enough for CI noise on ratio metrics, tight enough to catch a real
#: perf cliff (the ratios sit 1.5x-8x above their acceptance bars).
DEFAULT_TOLERANCE = 0.20

DEFAULT_RESULTS = Path("results")
DEFAULT_HISTORY = DEFAULT_RESULTS / "history"


@dataclass(frozen=True)
class TrackedMetric:
    """One ratio-like metric extracted from a BENCH_<name>.json payload.

    Attributes:
        name: Key the metric is recorded under.
        higher_is_better: Direction — a drop (higher-is-better) or a
            rise (lower-is-better) beyond tolerance is a regression.
        extract: Pulls the value out of the loaded JSON payload.
    """

    name: str
    higher_is_better: bool
    extract: Callable[[dict], float]


def _gateway_speedup(payload: dict) -> float:
    baseline = next(p["throughput_qps"] for p in payload["points"]
                    if p["max_batch"] == 1)
    best = max(p["throughput_qps"] for p in payload["points"]
               if p["max_batch"] > 1)
    return best / baseline


#: The manifest: benchmark name -> tracked metrics.  Adding a benchmark
#: here is all it takes to put it under the regression gate.
TRACKED: "dict[str, tuple[TrackedMetric, ...]]" = {
    "gateway": (
        TrackedMetric("coalescing_speedup", True, _gateway_speedup),
    ),
    "streaming": (
        TrackedMetric("ingest_speedup", True,
                      lambda d: d["rebuild_seconds"] /
                      d["incremental_seconds"]),
    ),
    "fine_core": (
        TrackedMetric("speedup_vs_dict", True,
                      lambda d: d["speedup_vs_dict"]),
    ),
    "cluster_recovery": (
        TrackedMetric("availability", True,
                      lambda d: d["availability"]),
        TrackedMetric("chaos_over_control", False,
                      lambda d: d["chaos_seconds"] /
                      d["control_seconds"]),
    ),
}


@dataclass(frozen=True)
class Regression:
    """One tracked metric past tolerance in its bad direction."""

    bench: str
    metric: str
    previous: float
    current: float
    tolerance: float
    higher_is_better: bool

    def render(self) -> str:
        arrow = "dropped" if self.higher_is_better else "rose"
        return (f"{self.bench}.{self.metric} {arrow} past "
                f"{self.tolerance:.0%}: {self.previous:.4g} -> "
                f"{self.current:.4g}")


def extract_metrics(bench: str, payload: dict) -> "dict[str, float]":
    """Current values of every tracked metric of one benchmark."""
    return {metric.name: float(metric.extract(payload))
            for metric in TRACKED[bench]}


def _artifact(results_dir: Path, bench: str) -> "dict | None":
    path = results_dir / f"BENCH_{bench}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _history_path(history_dir: Path, bench: str) -> Path:
    return history_dir / f"{bench}.jsonl"


def last_entry(history_dir: Path, bench: str) -> "dict | None":
    """The most recently recorded entry for ``bench`` (None if none)."""
    path = _history_path(history_dir, bench)
    if not path.exists():
        return None
    lines = [line for line in path.read_text().splitlines()
             if line.strip()]
    if not lines:
        return None
    return json.loads(lines[-1])


def record(results_dir: Path = DEFAULT_RESULTS,
           history_dir: Path = DEFAULT_HISTORY,
           label: str = "") -> "dict[str, dict[str, float]]":
    """Append current metric values to each benchmark's history.

    Returns {bench: metrics} for everything recorded.  Benchmarks
    whose artifact is absent are skipped silently — record only what
    actually ran.
    """
    history_dir.mkdir(parents=True, exist_ok=True)
    recorded: "dict[str, dict[str, float]]" = {}
    for bench in sorted(TRACKED):
        payload = _artifact(results_dir, bench)
        if payload is None:
            continue
        metrics = extract_metrics(bench, payload)
        entry = {"label": label, "recorded_at": time.time(),
                 "metrics": metrics}
        with _history_path(history_dir, bench).open("a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        recorded[bench] = metrics
    return recorded


def check(results_dir: Path = DEFAULT_RESULTS,
          history_dir: Path = DEFAULT_HISTORY,
          tolerance: float = DEFAULT_TOLERANCE) -> list[Regression]:
    """Compare current artifacts against the last recorded entries.

    Returns the regressions (empty = gate passes).  A benchmark is
    checked only when both a current artifact and a history entry
    exist.
    """
    regressions: list[Regression] = []
    for bench in sorted(TRACKED):
        payload = _artifact(results_dir, bench)
        previous = last_entry(history_dir, bench)
        if payload is None or previous is None:
            continue
        current = extract_metrics(bench, payload)
        for metric in TRACKED[bench]:
            if metric.name not in previous["metrics"]:
                continue
            before = float(previous["metrics"][metric.name])
            now = current[metric.name]
            if metric.higher_is_better:
                regressed = now < before * (1.0 - tolerance)
            else:
                regressed = now > before * (1.0 + tolerance)
            if regressed:
                regressions.append(Regression(
                    bench=bench, metric=metric.name, previous=before,
                    current=now, tolerance=tolerance,
                    higher_is_better=metric.higher_is_better))
    return regressions


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-perf-history",
        description="Record and gate benchmark metrics across PRs.")
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS,
                        help="directory holding BENCH_<name>.json")
    parser.add_argument("--history", type=Path, default=DEFAULT_HISTORY,
                        help="per-benchmark history directory")
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="append current metrics")
    rec.add_argument("--label", default="",
                     help="entry label (PR number, commit, ...)")
    chk = sub.add_parser("check", help="gate against the last entry")
    chk.add_argument("--tolerance", type=float,
                     default=DEFAULT_TOLERANCE,
                     help="allowed relative regression (default 0.20)")
    args = parser.parse_args(argv)

    if args.command == "record":
        recorded = record(args.results, args.history, label=args.label)
        for bench, metrics in recorded.items():
            rendered = ", ".join(f"{k}={v:.4g}"
                                 for k, v in metrics.items())
            print(f"recorded {bench}: {rendered}")
        if not recorded:
            print("perf-history: no benchmark artifacts found")
        return 0

    regressions = check(args.results, args.history,
                        tolerance=args.tolerance)
    if regressions:
        for regression in regressions:
            print(regression.render())
        print(f"perf-history: {len(regressions)} regression(s) past "
              f"{args.tolerance:.0%}", file=sys.stderr)
        return 1
    print("perf-history: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
