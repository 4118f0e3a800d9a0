"""RL003 — shared-memory segment lifecycle (the bpo-39959 rules).

``multiprocessing.shared_memory`` has exactly one safe usage pattern in
this codebase (established in :mod:`repro.events.columns` and, until
this checker existed, enforced only by comments there):

* the **owner** process creates segments (``SharedMemory(create=True)``)
  and must both ``close()`` *and* ``unlink()`` them on teardown — a
  missing unlink leaks the segment until the resource tracker reclaims
  it at exit with a warning; a missing close leaks the mapping.
* **attached** readers must only ever ``close()`` — an attached view
  that unlinks tears the bytes out from under the owner and every other
  reader.

Mechanically:

* every class that creates segments must reach both a ``.close()`` (or
  a helper whose name contains ``close``) and an ``.unlink()`` call from
  some teardown-named method (``close``/``release``/``discard``/
  ``__del__``/``__exit__``/``teardown``...), following same-module calls
  by name;
* every ``.unlink()`` call must be *ownership-gated*: inside a function
  with an ``unlink`` parameter, or under an ``if`` whose condition
  mentions ownership (``unlink``/``is_attached``/``owner``/``track``).
  An unconditional unlink is exactly the attached-view bug.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.tools.lint.checkers._astutil import (
    ancestors,
    build_parents,
    called_name,
    enclosing_class,
    enclosing_function,
)
from repro.tools.lint.core import Checker, FileContext, Violation, register

_TEARDOWN_RE = re.compile(
    r"(close|release|discard|teardown|shutdown|cleanup|__del__|__exit__)")

_OWNERSHIP_TOKENS = ("unlink", "is_attached", "attached", "owner", "track")


def _is_shared_memory_call(node: ast.Call) -> bool:
    return called_name(node) == "SharedMemory"


def _creates_segment(node: ast.Call) -> bool:
    return _is_shared_memory_call(node) and any(
        keyword.arg == "create" and
        isinstance(keyword.value, ast.Constant) and
        keyword.value.value is True
        for keyword in node.keywords)


@dataclass
class _FunctionFacts:
    """What one function does, for name-level reachability."""

    name: str
    class_name: "str | None"
    creates: bool = False
    closes: bool = False
    unlinks: bool = False
    calls: set[str] = field(default_factory=set)


@register
class SharedMemoryLifecycle(Checker):
    """RL003: owner close+unlink coverage; ownership-gated unlink calls."""

    code = "RL003"
    name = "shared-memory-lifecycle"
    description = (
        "SharedMemory(create=True) sites need close+unlink reachable from "
        "a teardown method; every unlink must be ownership-gated so "
        "attached views never unlink a segment they do not own")

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if "SharedMemory" not in ctx.source:
            return
        parents = build_parents(ctx.tree)
        facts = self._collect_facts(ctx.tree, parents)
        yield from self._check_owner_teardown(ctx, parents, facts)
        yield from self._check_unlink_gating(ctx, parents)

    # ------------------------------------------------------------------
    def _collect_facts(self, tree: ast.Module,
                       parents: dict) -> list[_FunctionFacts]:
        facts: list[_FunctionFacts] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = enclosing_class(node, parents)
            record = _FunctionFacts(
                name=node.name,
                class_name=cls.name if cls is not None else None)
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                name = called_name(sub)
                if name is None:
                    continue
                record.calls.add(name)
                if _creates_segment(sub):
                    record.creates = True
                if name == "unlink":
                    record.unlinks = True
                if "close" in name:
                    record.closes = True
            facts.append(record)
        return facts

    def _check_owner_teardown(self, ctx: FileContext, parents: dict,
                              facts: list[_FunctionFacts]
                              ) -> Iterator[Violation]:
        by_name: dict[str, list[_FunctionFacts]] = {}
        for record in facts:
            by_name.setdefault(record.name, []).append(record)

        creator_classes = {record.class_name for record in facts
                           if record.creates and record.class_name}
        class_nodes = {node.name: node for node in ast.walk(ctx.tree)
                       if isinstance(node, ast.ClassDef)}
        for class_name in sorted(creator_classes):
            family = self._class_family(class_name, class_nodes)
            teardown = [record for record in facts
                        if record.class_name in family
                        and _TEARDOWN_RE.search(record.name)]
            closes, unlinks = self._reach(teardown, by_name)
            node = class_nodes[class_name]
            if not unlinks:
                yield Violation(
                    path=ctx.posix_path, line=node.lineno, col=0,
                    code=self.code,
                    message=(
                        f"{class_name} creates SharedMemory segments but no "
                        f"teardown path (close/release/_discard/__del__/"
                        f"__exit__) reaches an unlink() — owner segments "
                        f"leak until the resource tracker reclaims them"))
            if not closes:
                yield Violation(
                    path=ctx.posix_path, line=node.lineno, col=0,
                    code=self.code,
                    message=(
                        f"{class_name} creates SharedMemory segments but no "
                        f"teardown path reaches a close() — the mapping is "
                        f"never unmapped"))

    @staticmethod
    def _class_family(class_name: str,
                      class_nodes: dict[str, ast.ClassDef]) -> set[str]:
        """The class plus same-module bases/subclasses (teardown may be
        inherited either way)."""
        family = {class_name}
        changed = True
        while changed:
            changed = False
            for name, node in class_nodes.items():
                base_names = {base.id for base in node.bases
                              if isinstance(base, ast.Name)}
                if name in family and not base_names <= family:
                    family |= base_names & set(class_nodes)
                    changed = True
                if base_names & family and name not in family:
                    family.add(name)
                    changed = True
        return family

    @staticmethod
    def _reach(entry_points: list[_FunctionFacts],
               by_name: dict[str, list[_FunctionFacts]]
               ) -> "tuple[bool, bool]":
        """(reaches close, reaches unlink) following calls by name."""
        closes = unlinks = False
        seen: set[str] = set()
        frontier = list(entry_points)
        while frontier:
            record = frontier.pop()
            if record.name in seen:
                continue
            seen.add(record.name)
            closes = closes or record.closes
            unlinks = unlinks or record.unlinks
            for callee in record.calls:
                frontier.extend(by_name.get(callee, ()))
        return closes, unlinks

    # ------------------------------------------------------------------
    def _check_unlink_gating(self, ctx: FileContext,
                             parents: dict) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and
                    called_name(node) == "unlink"):
                continue
            # Only shared-memory unlinks: a path's .unlink() (file
            # removal) is a different API with the same name.
            if not self._is_segment_unlink(node, ctx):
                continue
            if self._is_gated(node, parents):
                continue
            yield Violation(
                path=ctx.posix_path, line=node.lineno, col=node.col_offset,
                code=self.code,
                message=(
                    "ungated unlink() of a shared-memory segment — guard "
                    "with the owner check (attached views must never "
                    "unlink; see repro.events.columns)"))

    @staticmethod
    def _is_segment_unlink(node: ast.Call, ctx: FileContext) -> bool:
        """Heuristic: unlink on something segment-ish, not a filesystem
        path (a ``Path.unlink`` removes a file, not a segment)."""
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        text = ast.dump(func.value)
        return "path" not in text.lower()

    @staticmethod
    def _is_gated(node: ast.Call, parents: dict) -> bool:
        function = enclosing_function(node, parents)
        if function is not None:
            params = {arg.arg for arg in function.args.args +
                      function.args.kwonlyargs}
            if "unlink" in params:
                return True
        for ancestor in ancestors(node, parents):
            if isinstance(ancestor, (ast.If, ast.IfExp)):
                test_text = ast.unparse(ancestor.test)
                if any(token in test_text for token in _OWNERSHIP_TOKENS):
                    return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        return False
