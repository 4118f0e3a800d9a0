"""Shared plumbing for the experiment modules.

Datasets are memoized per parameter tuple so an experiment sweep (or a
benchmark session touching several experiments) simulates each world only
once.
"""

from __future__ import annotations

from functools import lru_cache

from repro.sim.dataset import Dataset
from repro.sim.scenarios import ScenarioSpec
from repro.sim.simulator import Simulator


@lru_cache(maxsize=8)
def dbh_dataset(days: int = 14, population: int = 24,
                seed: int = 7) -> Dataset:
    """The DBH-like evaluation dataset (memoized)."""
    spec = ScenarioSpec.dbh_like(seed=seed, population=population)
    return Simulator(spec).run(days=days)


@lru_cache(maxsize=8)
def scenario_dataset(name: str, days: int = 10, seed: int = 11,
                     population_scale: float = 0.5) -> Dataset:
    """One of the paper's four simulated scenarios (memoized)."""
    spec = ScenarioSpec.by_name(name, seed=seed).scaled(population_scale)
    return Simulator(spec).run(days=days)
