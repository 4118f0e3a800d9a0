"""Command-line interface: simulate datasets, answer queries, run experiments.

Examples::

    locater simulate --scenario dbh --days 7 --population 20 --out events.db
    locater locate --scenario dbh --days 7 --mac dbh-mac0001 --time 180000
    locater experiment table3 --days 7 --population 16
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.errors import InvalidQueryError
from repro.sim.scenarios import ScenarioSpec
from repro.sim.simulator import Simulator
from repro.system.config import LocaterConfig
from repro.system.locater import Locater
from repro.system.query import LocationQuery
from repro.system.storage import SqliteStorage

#: Experiment registry: name → module path (imported lazily).
EXPERIMENTS = {
    "fig7": "repro.eval.experiments.fig7_thresholds",
    "table2": "repro.eval.experiments.table2_weights",
    "fig8": "repro.eval.experiments.fig8_history",
    "fig9": "repro.eval.experiments.fig9_caching",
    "table3": "repro.eval.experiments.table3_baselines",
    "table4": "repro.eval.experiments.table4_scenarios",
    "fig10": "repro.eval.experiments.fig10_efficiency",
    "fig11": "repro.eval.experiments.fig11_stopcond",
    "fig12": "repro.eval.experiments.fig12_scalability",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locater",
        description="LOCATER reproduction: semantic WiFi localization.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--scenario", default="dbh",
                     choices=["dbh", "office", "university", "mall",
                              "airport"])
    sim.add_argument("--days", type=int, default=7)
    sim.add_argument("--population", type=int, default=20)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default="",
                     help="optional SQLite file to persist raw events")

    loc = sub.add_parser("locate", help="answer one location query")
    loc.add_argument("--scenario", default="dbh",
                     choices=["dbh", "office", "university", "mall",
                              "airport"])
    loc.add_argument("--days", type=int, default=7)
    loc.add_argument("--population", type=int, default=20)
    loc.add_argument("--seed", type=int, default=0)
    loc.add_argument("--mac", required=True)
    loc.add_argument("--time", type=float, required=True, action="append",
                     help="query timestamp in seconds since epoch 0; "
                          "repeat the flag to answer several times in "
                          "one batched pass")
    loc.add_argument("--mode", default="dependent",
                     choices=["independent", "dependent"])

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))
    exp.add_argument("--days", type=int, default=None)
    exp.add_argument("--population", type=int, default=None)
    exp.add_argument("--seed", type=int, default=None)
    return parser


def _make_spec(args: argparse.Namespace) -> ScenarioSpec:
    if args.scenario == "dbh":
        return ScenarioSpec.dbh_like(seed=args.seed,
                                     population=args.population)
    return ScenarioSpec.by_name(args.scenario, seed=args.seed)


def _cmd_simulate(args: argparse.Namespace) -> int:
    dataset = Simulator(_make_spec(args)).run(days=args.days)
    print(f"scenario={args.scenario} days={args.days} "
          f"devices={len(dataset.macs())} events={dataset.event_count()}")
    if args.out:
        with SqliteStorage(args.out) as storage:
            for mac in dataset.table.macs():
                storage.store_events(dataset.table.events_of(mac))
            print(f"persisted {storage.event_count()} events to {args.out}")
    return 0


def _cmd_locate(args: argparse.Namespace) -> int:
    try:
        queries = [LocationQuery(mac=args.mac, timestamp=t)
                   for t in args.time]
    except InvalidQueryError as exc:
        print(f"invalid query: {exc}", file=sys.stderr)
        return 2
    dataset = Simulator(_make_spec(args)).run(days=args.days)
    config = (LocaterConfig.independent() if args.mode == "independent"
              else LocaterConfig.dependent())
    locater = Locater(dataset.building, dataset.metadata, dataset.table,
                      config=config)
    if args.mac not in dataset.table.registry:
        print(f"unknown device {args.mac!r}; known devices: "
              f"{', '.join(dataset.macs()[:5])} ...", file=sys.stderr)
        return 2
    answers = locater.locate_batch(queries)
    for query, answer in zip(queries, answers):
        print(answer)
        truth = dataset.true_room_at(query.mac, query.timestamp)
        print(f"ground truth: {truth if truth is not None else 'outside'}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(EXPERIMENTS[args.name])
    kwargs = {}
    for key in ("days", "population", "seed"):
        value = getattr(args, key)
        if value is not None:
            kwargs[key] = value
    result = module.run(**kwargs)
    print(result.render())
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "locate":
        return _cmd_locate(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
