"""repro-lint — AST contract checker for the reproduction's invariants.

The equivalence guarantees of this codebase (batch ≡ sequential,
cluster ≡ lone Locater, streaming ≡ cold rebuild — all *bitwise*)
rest on hand-maintained conventions: sorted iteration on answer paths,
pinned dtypes, shared-memory ownership discipline, typed pipe failures
and a non-blocking event loop.  ``repro-lint`` turns those conventions
into mechanically checked rules:

========  ===========================  ====================================
code      name                         module
========  ===========================  ====================================
RL002     determinism                  repro.tools.lint.checkers.determinism
RL003     shared-memory-lifecycle      repro.tools.lint.checkers.lifecycle
RL004     dtype-contracts              repro.tools.lint.checkers.dtypes
RL006     cluster-pipe-failures        repro.tools.lint.checkers.supervision
RL007     event-loop-hygiene           repro.tools.lint.checkers.eventloop
========  ===========================  ====================================

Two invariants once checked here hold by construction instead: every
``Locater`` resets its warm batch state whole whenever the table's
generation moves, so no memo can outlive the events it was computed
from (formerly RL001), and the reference oracles live under
``tests/oracles/``, out of ``src/``'s reach (formerly RL005).

Run it with ``python -m repro.tools.lint src/repro`` (exit 0 = clean,
1 = findings, 2 = usage error), or programmatically via
:func:`run_lint`.  Findings are suppressed per line with
``# repro-lint: disable=RL00x <reason>`` — false positives only, with
the reason mandatory by repository policy.
"""

from __future__ import annotations

from repro.tools.lint.core import (
    REGISTRY,
    Checker,
    FileContext,
    Suppressions,
    Violation,
    iter_python_files,
    load_context,
    parse_suppressions,
    register,
    run_lint,
)

__all__ = [
    "REGISTRY",
    "Checker",
    "FileContext",
    "Suppressions",
    "Violation",
    "iter_python_files",
    "load_context",
    "parse_suppressions",
    "register",
    "run_lint",
]
