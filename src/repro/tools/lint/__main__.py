"""CLI entry point: ``python -m repro.tools.lint [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import sys

from repro.tools.lint import checkers  # noqa: F401  (fills REGISTRY)
from repro.tools.lint.core import REGISTRY, run_lint
from repro.tools.lint.reporter import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.lint",
        description=(
            "repro-lint: enforce the repository's bitwise-equivalence "
            "contracts by static analysis."))
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files/directories to lint (default: src/repro)")
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule codes to run (default: all)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--all-paths", action="store_true",
        help="ignore per-rule path scoping; run every rule on every file")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for code, cls in sorted(REGISTRY.items()):
            print(f"{code}  {cls.name}: {cls.description}")
        return 0
    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",")
                  if code.strip()]
    try:
        violations = run_lint(args.paths, select=select,
                              all_paths=args.all_paths)
    except ValueError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    renderer = render_json if args.format == "json" else render_text
    renderer(violations, sys.stdout)
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
