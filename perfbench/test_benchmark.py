"""Checks of the benchmark itself.

The name and tracer checks are cheap and run with the default test
selection; the end-to-end checks run the benchmark command and are
``bench``-marked::

    PYTHONPATH=src python -m pytest perfbench -m bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from perfbench.run import END_TO_END, per_layer_units
from perfbench.tracing import EXACT_COUNTERS, Tracer

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(workload: str, seed: int, trace: int) -> dict:
    """The last stdout line of one benchmark run, parsed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        per_layer_units()


def test_tracer_nests_spans_splits_self_time_and_restores():
    class Work:
        def outer(self):
            time.sleep(0.002)
            return self.inner()

        def inner(self):
            time.sleep(0.002)
            return 7

    original = vars(Work)["outer"]
    tracer = Tracer()
    with tracer.installed():
        tracer.wrap(Work, "outer", "work.outer")
        tracer.wrap(Work, "inner", "work.inner")
        tracer.wrap(Work, "absent", "work.absent")
        assert Work().outer() == 7
    assert vars(Work)["outer"] is original
    assert "work.absent" in tracer.missing
    spans = {span[1]: span for span in tracer.spans}
    outer, inner = spans["work.outer"], spans["work.inner"]
    assert inner[4] == outer[0] and inner[5] == outer[5] == outer[0]
    self_ms = tracer.self_times_ms()
    assert self_ms["work.outer"] + self_ms["work.inner"] == \
        pytest.approx((outer[3] - outer[2]) / 1e6)
    assert self_ms["work.inner"] >= 2.0


def test_counts_from_racing_threads_are_all_kept():
    tracer = Tracer()

    def work():
        for _ in range(20_000):
            tracer.count("calls")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert tracer.counts["calls"] == 80_000


@pytest.mark.bench
@pytest.mark.parametrize("workload", ["cold_batch", "live_day", "gateway"])
def test_timed_run_is_correct_and_complete(workload):
    result = run_benchmark(workload, seed=5, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.bench
@pytest.mark.parametrize("workload", ["cold_batch", "live_day"])
def test_exact_counters_repeat_for_a_seed(workload):
    first, second = (run_benchmark(workload, seed=3, trace=1)
                     for _ in range(2))
    assert set(first["metrics"]) == set(per_layer_units())
    for name in EXACT_COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
