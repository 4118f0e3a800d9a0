"""RL001 — invalidation completeness of the shared-state classes.

The bitwise-equivalence guarantees of the streaming and cluster layers
rest on one convention: every memo/cache container a shared-state class
accumulates must be reachable from that class's invalidation surface
(``drop_device(s)`` / ``invalidate_*`` / ``clear``-style methods), and
that surface must actually be invoked from the ingest path
(:meth:`Locater.on_ingest`, which every ``Locater`` runs itself when
its pull finds the table's generation moved, and the
``prune_batch_state`` policy it calls).  The pull makes forgetting to
*call* the ingest path impossible, but invalidation stays surgical: a
memo dict added without a matching drop hook still serves stale values
after the first ingest — silently, because every test that does not
interleave ingest with that exact memo still passes.

Three sub-rules, all reported under RL001:

* **unreachable memo** — a dict/set-valued instance attribute of a
  tracked class is never referenced from any method reachable from the
  class's invalidation surface.
* **MEMO_ATTRS drift** — a tracked dataclass declares the ``MEMO_ATTRS``
  registry (the single list the trim/reset/eviction plumbing iterates)
  but its dict-valued fields and the registry disagree.
* **dead invalidation surface** — a tracked class accumulates memos but
  none of its invalidation methods are called anywhere in the ingest
  surface functions.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.tools.lint.checkers._astutil import (
    called_name,
    self_attribute_name,
)
from repro.tools.lint.core import Checker, FileContext, Violation, register

#: The shared-state classes whose caches the ingest path must be able to
#: invalidate (matched by class *name* wherever they are defined).
TRACKED_CLASSES = frozenset({
    "CoarseSharedState", "FineSharedState", "BatchState",
    "NeighborIndex", "CachingEngine",
})

#: Method names that form a class's invalidation surface.
INVALIDATION_RE = re.compile(
    r"^(drop_|invalidate|clear|reset|prune|release|evict)")

#: Functions forming the ingest call surface (cross-check targets).
INGEST_SURFACE = frozenset({"on_ingest", "prune_batch_state"})


def _is_container_default(node: ast.AST) -> bool:
    """Whether an assigned value creates a dict/set memo container."""
    if isinstance(node, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and \
                node.func.id in ("dict", "set", "defaultdict", "OrderedDict"):
            return True
        # dataclasses.field(default_factory=dict|set)
        if called_name(node) == "field":
            for keyword in node.keywords:
                if keyword.arg == "default_factory" and \
                        isinstance(keyword.value, ast.Name) and \
                        keyword.value.id in ("dict", "set", "defaultdict",
                                             "OrderedDict"):
                    return True
    return False


@dataclass
class _TrackedClass:
    """What RL001 learned about one tracked class definition."""

    name: str
    path: str
    line: int
    memo_attrs: dict[str, int] = field(default_factory=dict)  # name → line
    memo_attrs_registry: "list[str] | None" = None
    registry_line: int = 0
    invalidation_methods: set[str] = field(default_factory=set)


def _dataclass_fields(cls: ast.ClassDef) -> "dict[str, int]":
    """Dict/set-valued dataclass fields (name → line)."""
    out: dict[str, int] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name) and \
                stmt.value is not None and _is_container_default(stmt.value):
            out[stmt.target.id] = stmt.lineno
    return out


def _init_memo_attrs(cls: ast.ClassDef) -> "dict[str, int]":
    """Dict/set-valued ``self.x = ...`` assignments in ``__init__``."""
    out: dict[str, int] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for node in ast.walk(stmt):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                    value = node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                    value = node.value
                else:
                    continue
                if not _is_container_default(value):
                    continue
                for target in targets:
                    attr = self_attribute_name(target)
                    if attr is not None:
                        out[attr] = node.lineno
    return out


def _memo_attrs_registry(cls: ast.ClassDef
                         ) -> "tuple[list[str] | None, int]":
    """The declared ``MEMO_ATTRS`` tuple, when present."""
    for stmt in cls.body:
        target = None
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            target = stmt.target.id
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name):
            target = stmt.targets[0].id
        if target != "MEMO_ATTRS" or stmt.value is None:
            continue
        if isinstance(stmt.value, (ast.Tuple, ast.List)):
            names = [element.value for element in stmt.value.elts
                     if isinstance(element, ast.Constant)
                     and isinstance(element.value, str)]
            return names, stmt.lineno
    return None, 0


def _reachable_from_invalidation(cls: ast.ClassDef,
                                 invalidation: set[str]) -> set[str]:
    """Method names reachable from the invalidation surface via self calls."""
    calls: dict[str, set[str]] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            out: set[str] = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    attr = self_attribute_name(node.func)
                    if attr is not None:
                        out.add(attr)
            calls[stmt.name] = out
    reachable = set(invalidation)
    frontier = list(invalidation)
    while frontier:
        current = frontier.pop()
        for callee in calls.get(current, ()):
            if callee not in reachable:
                reachable.add(callee)
                frontier.append(callee)
    return reachable


def _attrs_touched(cls: ast.ClassDef, methods: set[str]) -> set[str]:
    """Every ``self.<attr>`` referenced inside the given methods."""
    touched: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name in methods:
            for node in ast.walk(stmt):
                attr = self_attribute_name(node)
                if attr is not None:
                    touched.add(attr)
            # Dynamic access — setattr(self, name, {}) (the evictor
            # pattern) or getattr(self, attr) over MEMO_ATTRS (the trim
            # plumbing); treat either as touching every attribute.
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Name) and \
                        node.func.id in ("setattr", "getattr"):
                    touched.add("*")
    return touched


@register
class InvalidationCompleteness(Checker):
    """RL001: every memo container must sit on the invalidation surface."""

    code = "RL001"
    name = "invalidation-completeness"
    description = (
        "memo/cache attributes of shared-state classes must be reachable "
        "from drop_device(s)/invalidate_* methods, MEMO_ATTRS must list "
        "exactly the memo dicts, and the invalidation surface must be "
        "invoked from the ingest path")

    def __init__(self) -> None:
        self._classes: list[_TrackedClass] = []
        self._ingest_called: set[str] = set()
        self._surface_seen = False

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef) and \
                    node.name in INGEST_SURFACE:
                self._surface_seen = True
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        name = called_name(sub)
                        if name is not None:
                            self._ingest_called.add(name)
            if not isinstance(node, ast.ClassDef) or \
                    node.name not in TRACKED_CLASSES:
                continue
            yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext,
                     cls: ast.ClassDef) -> Iterator[Violation]:
        memo_attrs = dict(_dataclass_fields(cls))
        memo_attrs.update(_init_memo_attrs(cls))
        registry, registry_line = _memo_attrs_registry(cls)
        invalidation = {stmt.name for stmt in cls.body
                        if isinstance(stmt, ast.FunctionDef)
                        and INVALIDATION_RE.match(stmt.name)}
        record = _TrackedClass(
            name=cls.name, path=ctx.posix_path, line=cls.lineno,
            memo_attrs=memo_attrs, memo_attrs_registry=registry,
            registry_line=registry_line, invalidation_methods=invalidation)
        self._classes.append(record)

        reachable = _reachable_from_invalidation(cls, invalidation)
        touched = _attrs_touched(cls, reachable)
        for attr, line in sorted(memo_attrs.items()):
            if attr in touched or "*" in touched:
                continue
            yield Violation(
                path=ctx.posix_path, line=line, col=0, code=self.code,
                message=(
                    f"{cls.name}.{attr} is a memo/cache container but no "
                    f"invalidation method (drop_*/invalidate_*/clear/reset) "
                    f"of {cls.name} ever touches it; stale entries will "
                    f"survive ingest"))

        if registry is not None:
            declared = set(registry)
            actual = set(memo_attrs)
            for missing in sorted(actual - declared):
                yield Violation(
                    path=ctx.posix_path, line=memo_attrs[missing], col=0,
                    code=self.code,
                    message=(
                        f"{cls.name}.{missing} is a memo dict but is not "
                        f"listed in {cls.name}.MEMO_ATTRS — the trim/reset/"
                        f"eviction plumbing iterates that registry and "
                        f"will skip it"))
            for extra in sorted(declared - actual):
                yield Violation(
                    path=ctx.posix_path, line=registry_line, col=0,
                    code=self.code,
                    message=(
                        f"{cls.name}.MEMO_ATTRS lists {extra!r} but the "
                        f"class defines no such memo container"))

    def check_project(self, files: Sequence[FileContext]
                      ) -> Iterator[Violation]:
        if not self._surface_seen:
            return
        for record in self._classes:
            if not record.memo_attrs:
                continue
            if record.invalidation_methods & self._ingest_called:
                continue
            names = ", ".join(sorted(record.invalidation_methods)) or "none"
            yield Violation(
                path=record.path, line=record.line, col=0, code=self.code,
                message=(
                    f"{record.name} accumulates memos but none of its "
                    f"invalidation methods ({names}) are called from the "
                    f"ingest surface ({'/'.join(sorted(INGEST_SURFACE))}); "
                    f"its caches outlive the data they were computed from"))
