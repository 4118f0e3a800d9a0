"""Benchmark command for the LOCATER reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload live_day --seed 1 --seconds 30 --trace 0

Prints a host line, the ungated p90 tails and the timed metrics as
measured (``--trace 0``) or the trace summary (``--trace 1``), a summary
line and, last, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric of the traced run with
``--trace 1``.  The workloads are described in
``perfbench/README.md`` and :mod:`perfbench.workloads`.  Exits 1 when
the correctness gate fails and 2 when the system under test cannot be
imported; a watchdog ends a hung run with a traceback dump.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The runner must exit within 180 s; the watchdog fires first.
WATCHDOG_SECONDS = 170
#: Iterations of the host-speed probe's pure-Python spin.
PROBE_ITERATIONS = 400_000

#: BENCHMARK.json lists live_day and gateway.  cold_batch stays runnable
#: by name: its run-to-run spread on the shared host is above the bounds
#: at the run length the benchmark's time limit allows three workloads.
WORKLOADS = ("cold_batch", "live_day", "gateway")

#: Name → unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "fresh_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "coarse_precision": "share",
    "fine_precision": "share",
}


def per_layer_units() -> dict[str, str]:
    """Name → unit of every per-layer metric (``--trace 1``)."""
    from perfbench.tracing import SELF_TIME
    units = dict.fromkeys(SELF_TIME, "ms")
    units.update({
        "coarse.selftrain_fits": "count", "ml.fit_iters": "count",
        "fine.snapshots": "count", "fine.neighbors_processed": "count",
        "fine.processed_share": "share", "fine.stopped_early_share": "share",
        "cache.hits": "count", "cache.hit_share": "share",
        "storage.hits": "count", "storage.hit_share": "share",
        "ingestion.changed_devices": "count",
        "ingestion.full_invalidations": "count",
        "planner.queries_per_group": "count",
        "serve.queue_wait_p50_ms": "ms", "serve.queue_wait_p99_ms": "ms",
        "serve.window_ms": "ms", "serve.queries_per_window": "count",
        "serve.shed": "count", "cluster.shard_skew": "ratio",
        "input.from_event_share": "share", "input.gap_outside_share": "share",
        "input.coarse_only_share": "share", "input.fine_share": "share",
        "input.stored_hit_share": "share", "input.shared_ts_share": "share",
        "input.repeat_share": "share",
        "loadgen.late_p99_ms": "ms", "host.probe_ms": "ms",
        "runtime.gc_ms": "ms",
        "trace.overhead_share": "share", "trace.coverage_share": "share",
    })
    return units


def probe_ms() -> float:
    """Fastest of three runs of a fixed pure-Python spin, in ms.

    Taken before and after each run: it moves with the host's speed,
    not with the code under test.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def host_line() -> str:
    """nproc, CPU model, Python, numpy and its BLAS."""
    import numpy as np
    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"host: nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def timed(units, setups: list[float]) -> dict[str, float]:
    """The timed metrics of one run and its p90 tails.

    Throughput and the p50s are medians over the run's units of work;
    the tails pool every unit's samples; set-up is the median set-up.
    """
    from perfbench.tracing import percentile

    def median(value) -> float:
        return statistics.median(value(unit) for unit in units)
    return {
        "throughput_qps": median(lambda u: u.qps),
        "latency_p50_ms": median(lambda u: percentile(u.latency_ms, 50)),
        "latency_p90_ms": percentile(
            [x for u in units for x in u.latency_ms], 90),
        "fresh_p50_ms": median(lambda u: percentile(u.fresh_ms, 50)),
        "fresh_p90_ms": percentile([x for u in units for x in u.fresh_ms], 90),
        "setup_s": statistics.median(setups),
    }


def end_to_end(m) -> dict[str, float]:
    """The end-to-end metrics (timed ones at the reference speed)."""
    values = timed(m.units, m.setup_s)
    values.update(peak_rss_mb=m.peak_rss_mb,
                  coarse_precision=m.precision.coarse_precision,
                  fine_precision=m.precision.fine_precision)
    return values


def per_layer(m, tracer, probes: list[float]) -> dict[str, float]:
    """The traced run's layer metrics, input shares and harness checks."""
    from perfbench.tracing import percentile
    values = tracer.layer_metrics()
    values.update(m.shares)
    values["serve.shed"] = float(m.shed)
    values["loadgen.late_p99_ms"] = percentile(m.late_ms, 99)
    values["host.probe_ms"] = statistics.mean(probes)
    values["trace.overhead_share"] = m.overhead_share
    values["trace.coverage_share"] = tracer.coverage_ns(
        ("bench.", "serve.request")) / m.traced_wall_ns
    return values


def parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    args = parse(argv)
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    # One BLAS thread per caller, set before numpy loads: the gateway's
    # two lanes already keep both vCPUs busy, and runs stay steadier.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench import workloads
        from perfbench.tracing import EXACT_COUNTERS, Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the system under test: {exc}",
              file=sys.stderr)
        return 2
    print(host_line(), flush=True)
    probes = [probe_ms()]
    tracer = Tracer() if args.trace else None
    measurement = getattr(workloads, args.workload)(
        args.seed, args.seconds, tracer)
    probes.append(probe_ms())

    if tracer is None:
        values, units = end_to_end(measurement), END_TO_END
        # The tails are reported but not gated: on the shared host a
        # slow period stretches the upper half of every latency
        # distribution by 1.4-1.8x, and unscaled, the p90s of ten runs
        # of identical code spread by up to 0.55 of their median.
        print(f"tails (pooled over {len(measurement.units)} units, not "
              f"gated): latency_p90_ms={values['latency_p90_ms']:.4f} "
              f"fresh_p90_ms={values['fresh_p90_ms']:.4f}", flush=True)
        raw = timed(measurement.raw_units, measurement.raw_setup_s)
        print("as measured (not scaled to the reference speed): " + " ".join(
            f"{name}={value:.4f}" for name, value in raw.items()),
            flush=True)
    else:
        values, units = per_layer(measurement, tracer, probes), \
            per_layer_units()
        tracer.write(ROOT / ".perfbench" /
                     f"spans-{args.workload}-seed{args.seed}.tsv")
        absent = sorted(set(units) - set(values))
        exact = " ".join(f"{name}={values[name]:.0f}"
                         for name in EXACT_COUNTERS if name in values)
        print(f"trace: {len(tracer.spans)} spans, coverage "
              f"{values['trace.coverage_share']:.3f}, overhead "
              f"{values['trace.overhead_share']:+.3f}; exact counters "
              f"({'schedule-dependent' if args.workload == 'gateway' else 'repeat per seed'}): "
              f"{exact}; absent: {', '.join(absent) or 'none'}; unmeasured: "
              "system.memory (no memory budget set), process executors, "
              "supervision, io", flush=True)
    correct = measurement.wrong == 0
    share = measurement.failed / measurement.attempted
    print(f"summary: workload={args.workload} seed={args.seed} "
          f"correct={correct} attempted={measurement.attempted} "
          f"raised={measurement.raised} shed={measurement.shed} "
          f"wrong={measurement.wrong} failed_share={share:.6f} "
          f"probe_ms={probes[0]:.2f}/{probes[1]:.2f}", flush=True)
    result = {
        "correct": correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result), flush=True)
    faulthandler.cancel_dump_traceback_later()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
