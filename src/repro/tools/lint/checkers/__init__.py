"""Checker registry of ``repro-lint``.

Importing this package registers every built-in rule with
:data:`repro.tools.lint.core.REGISTRY`.  To add a rule, drop a module
here, subclass :class:`~repro.tools.lint.core.Checker`, decorate it with
:func:`~repro.tools.lint.core.register`, and import the module below —
see the package README for the contract a checker must satisfy.
"""

from __future__ import annotations

from repro.tools.lint.checkers import (  # noqa: F401  (registration imports)
    determinism,
    dtypes,
    eventloop,
)
