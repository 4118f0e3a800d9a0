"""Small shared AST helpers for the checkers."""

from __future__ import annotations

import ast
from collections.abc import Iterator


def build_parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Child → parent map for ancestor walks (``ast`` has no back links)."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def ancestors(node: ast.AST,
              parents: dict[ast.AST, ast.AST]) -> Iterator[ast.AST]:
    """The chain of enclosing nodes, innermost first."""
    current = parents.get(node)
    while current is not None:
        yield current
        current = parents.get(current)


def enclosing_function(node: ast.AST, parents: dict[ast.AST, ast.AST]
                       ) -> "ast.FunctionDef | ast.AsyncFunctionDef | None":
    for ancestor in ancestors(node, parents):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def enclosing_class(node: ast.AST, parents: dict[ast.AST, ast.AST]
                    ) -> "ast.ClassDef | None":
    for ancestor in ancestors(node, parents):
        if isinstance(ancestor, ast.ClassDef):
            return ancestor
    return None


def called_name(call: ast.Call) -> "str | None":
    """The final name of a call target: ``f(...)`` / ``x.f(...)`` → ``f``."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` attribute chains as a dotted string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
