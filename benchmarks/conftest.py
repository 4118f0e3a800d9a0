"""Shared benchmark plumbing.

Each benchmark runs one paper experiment end to end (via
``benchmark.pedantic`` with a single round — the experiments are
deterministic, so repeated rounds would only re-measure the same work),
prints the regenerated table/figure, and archives it under ``results/``.

Everything in this directory is auto-marked ``bench`` and excluded from
the default pytest run (see pytest.ini); run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks -m bench -q
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR.parent / "results"


def _jsonable(value):
    """Coerce experiment payloads (numpy scalars, dataclasses) to JSON."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _stringify_keys(value):
    """Render non-string dict keys (tuples, ints) as strings for JSON."""
    if isinstance(value, dict):
        return {(key if isinstance(key, str) else str(key)):
                _stringify_keys(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify_keys(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _stringify_keys(dataclasses.asdict(value))
    return value


def pytest_collection_modifyitems(config, items):
    """Mark every test collected from this directory as a benchmark."""
    for item in items:
        path = pathlib.Path(str(item.fspath)).resolve()
        if BENCH_DIR == path.parent or BENCH_DIR in path.parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture
def report():
    """Print a rendered experiment and archive it under results/."""

    def _report(name: str, rendered: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n",
                                                 encoding="utf-8")
        print(f"\n===== {name} =====")
        print(rendered)

    return _report


@pytest.fixture
def bench_json(benchmark):
    """Archive a machine-readable record as ``results/BENCH_<name>.json``.

    The structured counterpart of ``report``: where ``report`` archives
    the human-readable table, this writes the same run as JSON for a
    reader to inspect; nothing downstream consumes it.  ``payload`` is the
    experiment's data — a dict, an object with ``to_json()``, or a
    dataclass — and is wrapped with the run configuration plus the
    wall-clock stats pytest-benchmark measured for the experiment call
    (single deterministic round, so min == median == max).
    """

    def _write(name: str, payload,
               config: "dict | None" = None) -> pathlib.Path:
        if hasattr(payload, "to_json"):
            payload = payload.to_json()
        elif dataclasses.is_dataclass(payload) and \
                not isinstance(payload, type):
            payload = dataclasses.asdict(payload)
        elif not isinstance(payload, dict):
            payload = {"rows": payload}
        record = {"bench": name}
        if config:
            record["config"] = config
        stats = getattr(getattr(benchmark, "stats", None), "stats", None)
        if stats is not None:
            record["timing_seconds"] = {
                key: round(float(getattr(stats, key)), 4)
                for key in ("min", "median", "mean", "max", "stddev")
                if getattr(stats, key, None) is not None}
        record.update(payload)
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"BENCH_{name}.json"
        path.write_text(
            json.dumps(_stringify_keys(record), indent=2,
                       default=_jsonable) + "\n", encoding="utf-8")
        return path

    return _write
